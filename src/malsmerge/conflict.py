"""Per-layer inter-task conflict and importance statistics.

Conflict per layer is the mean over task pairs of half the absolute Pearson
correlation plus half the sign-disagreement ratio of the flattened layer
updates; importance is the mean absolute update magnitude averaged over
tasks. All accumulation happens at 64-bit: layer groups can exceed 1e7
elements and 32-bit sums lose the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .archive import tensor_shapes
from .errors import ValidationError
from .grouping import LayerGrouping, member_offsets
from .task_vectors import TaskVector, range_reader, require_compatible, update_range


@dataclass(frozen=True)
class ConflictReport:
    """Per-layer scores; ``rho_abs`` and ``sign_disagreement`` are ``(P, L)``
    arrays, row ``k`` for the task pair ``task_pairs[k]`` (i < j)."""

    layer_ids: tuple[str, ...]
    conflict: np.ndarray
    importance: np.ndarray
    task_pairs: tuple[tuple[int, int], ...]
    rho_abs: np.ndarray
    sign_disagreement: np.ndarray


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be flat vectors")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x, y


# the largest part of numpy's pairwise tree that is reduced at once. Not
# merging._SLICE_ENTRIES, which tests set to 1, 3 or 7 entries: _parts splits a part of
# under 16 entries at 0, so parts that small would recurse without end
_NODE_ENTRIES = 1 << 16
# a part job's float64 deviations, one row a vector, stay within this many bytes down to
# parts of _MIN_PART entries (_cut)
_PART_BYTES = 2 << 20
_MIN_PART = 1 << 12


def _cut(vectors: int) -> int:
    """The part size of a walk over ``vectors`` vectors' deviations: the largest power of two,
    at most ``_NODE_ENTRIES`` and at least ``_MIN_PART``, whose ``vectors`` float64 rows fit in
    ``_PART_BYTES`` (65,536 entries up to 4 vectors, 32,768 at 8, 16,384 at 16). A walk that
    takes no deviations cuts at ``_NODE_ENTRIES``."""
    if not vectors:
        return _NODE_ENTRIES
    fit = 1 << ((_PART_BYTES // 8 // vectors).bit_length() - 1)
    return min(_NODE_ENTRIES, max(_MIN_PART, fit))


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits ``n`` entries: the sum of the first ``half`` plus
    that of the rest."""
    return n // 2 - n // 2 % 8


def _parts(n: int, cut: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """``(start, length)`` of each part, in order, of numpy's pairwise tree over entries
    ``start`` to ``start + n``, cut at parts of at most ``cut`` entries."""
    if n <= cut:
        yield start, n
        return
    half = _half(n)
    yield from _parts(half, cut, start)
    yield from _parts(n - half, cut, start + half)


def _tree_sum(n: int, cut: int, sums: Iterator):
    """The sums of :func:`_parts`' parts of ``n`` entries at ``cut``, taken from ``sums`` in
    order and added as the tree adds them: floats, or float64 vectors added entry by entry."""
    if n <= cut:
        return next(sums)
    half = _half(n)
    return _tree_sum(half, cut, sums) + _tree_sum(n - half, cut, sums)


_Parts = Callable[[int, int], Iterable[np.ndarray]]  # parts(start, stop): each vector's entries there


def _views(xs: Sequence[np.ndarray]) -> _Parts:
    """The :data:`_Parts` of the flat arrays ``xs``: a view of each."""
    return lambda start, stop: (x[start:stop] for x in xs)


def _part_sums(parts: _Parts, means: Sequence[float], products: Sequence[tuple[int, int]],
               signs: Sequence[tuple[int, int]], part: tuple[int, int]) -> np.ndarray:
    """One part's terms of :func:`_part_walk`, in one float64 vector: each of ``products``'
    sum of products of deviations, each of ``signs``' count of opposite signs, then, with
    ``signs``, each vector's count of nonzero entries. ``parts`` gives the vectors' entries
    over the part one vector at a time, and each is dropped once its deviations go into a
    row of one ``vectors x part`` buffer and its sign masks are built; the products go
    through one reused buffer."""
    start, k = part
    deviations = np.empty((len(means), k)) if products else None
    pos, neg, nonzero = [], [], []
    for t, v in enumerate(parts(start, start + k)):
        if products:
            np.subtract(v, means[t], out=deviations[t], dtype=np.float64)
        if signs:
            pos.append(v > 0)
            neg.append(v < 0)
            # counting the zeros' bool mask is several times faster than counting a float
            # vector, and counts a NaN as nonzero
            nonzero.append(k - np.count_nonzero(v == 0))
        del v
    sums = []
    if products:
        product = np.empty(k)
        sums = [np.add.reduce(np.multiply(deviations[i], deviations[j], out=product)) for i, j in products]
        del deviations, product
    sums += [np.count_nonzero(pos[i] & neg[j]) + np.count_nonzero(neg[i] & pos[j]) for i, j in signs]
    return np.array(sums + nonzero, dtype=np.float64)


def _part_walk(parts: _Parts, n: int, means: Sequence[float], products: Sequence[tuple[int, int]],
               signs: Sequence[tuple[int, int]], map_jobs: Callable = map) -> tuple[np.ndarray, list[float]]:
    """For each ``(i, j)`` of ``products``, the sum of the products of vector ``i``'s and
    vector ``j``'s float64 deviations from ``means`` (an ``(i, i)`` gives a sum of squares),
    and each of ``signs``' sign disagreement, over flat vectors of ``n`` entries whose
    entries over a range ``parts`` gives. Each sum equals ``np.sum(dx * dy)`` over the
    whole deviations, bit for bit: numpy sums a
    contiguous float64 vector pairwise, split at :func:`_half` down to 128 entries, and
    this takes the same tree, reduces each of :func:`_parts` with ``np.add.reduce`` (the
    same pairwise sum, added to +0.0, which changes only a -0.0 that numpy's own +0.0 start
    turns to +0.0 too) and adds the parts' vectors in tree order; the counts in them,
    integers below 2**53, add exactly. The parts are cut at :func:`_cut` of the vectors
    whose deviations are taken, so a part's deviations fill at most ``_PART_BYTES`` whatever
    their count, and any cut of at least 128 entries follows the same tree. ``map_jobs``
    (results in order) takes one part at a time, so nothing is held beyond its part.
    BLAS-backed dot products would not fix the order across threads."""
    cut = _cut(len(means))
    totals = _tree_sum(n, cut, map_jobs(partial(_part_sums, parts, means, products, signs), _parts(n, cut)))
    counts = totals[len(products):].tolist()
    nonzero = counts[len(signs):]
    ratios = [2.0 * counts[p] / total if (total := nonzero[i] + nonzero[j]) else 0.0
              for p, (i, j) in enumerate(signs)]
    return totals[:len(products)], ratios


def _mean(x: np.ndarray) -> float:
    """The mean of the flat ``x``, summed in float64."""
    return np.sum(x, dtype=np.float64) / len(x)


def _rescaled(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``x`` scaled exactly by a power of two to a peak in [0.5, 1), and its mean: the scale
    cancels in a correlation, and a product of two such sums of squares stays normal."""
    # no |x| array, and float() so that int64's minimum negates; the scaled copy is the one array
    peak = max(-float(np.min(x)), float(np.max(x)))
    x = np.ldexp(x, -np.frexp(peak)[1], dtype=np.float64)
    return x, _mean(x)


def _constant(var: float, n: int, first: np.generic, x: Callable[[], np.ndarray]) -> bool:
    """Whether the ``n`` entries of the flat ``x()``, the first of them ``first``, whose
    deviations from their mean have the sum of squares ``var``, are all equal. Their computed
    mean may be off by rounding, so the deviations of a constant vector need not be 0; they
    are far under 2**-30 of its entries, and only a sum of squares that small is worth the
    exact check, the one call of ``x``. Entries whose deviations all equal d agree to within
    2**-52 |d|, so each lies within a factor of 2 of their computed mean m (or m is 0), where
    x - m is exact (Sterbenz): each is m + d, so equal deviations mean equal entries, and
    the check reads the entries, not their deviations."""
    return math.sqrt(var / n) <= 2.0**-30 * abs(float(first)) and bool(np.all(x() == first))


def _rho(product: float, var_x: float, var_y: float) -> float:
    """|rho| from a pair's sum of products of deviations and each one's sum of squares."""
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    # sqrt(v*v) == v, so x == y lands exactly on 1
    return min(abs(float(product / np.sqrt(var_x * var_y))), 1.0)


def pearson_abs(x: np.ndarray, y: np.ndarray) -> float:
    """Absolute Pearson correlation of two equally long flat vectors.

    Returns 0 when either vector has zero variance: a constant update
    carries no directional conflict signal. An infinity or a NaN in either
    vector gives NaN, with no warning, whatever the float dtype.
    """
    x, y = _check_pair(x, y)
    if len(x) == 0:
        raise ValueError("vectors must hold at least one element")
    xs, pairs = [x, y], [(0, 0), (1, 1), (0, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        means = [_mean(x), _mean(y)]
        sums, _ = _part_walk(_views(xs), len(x), means, pairs, ())
        # a nonzero sum of squares outside [2**-500, 2**500] is taken again from a rescaled
        # copy. Only an input wider than 4 bytes needs that: the finite squares of a narrower
        # one sum inside the range. A non-finite one is scaled by 2**0, still NaN
        wide = [t for t in (0, 1) if xs[t].itemsize > 4 and not 2.0**-500 <= sums[t] <= 2.0**500
                and np.any(xs[t] != means[t])]
        for t in wide:
            xs[t], means[t] = _rescaled(xs[t])
        if wide:
            sums, _ = _part_walk(_views(xs), len(x), means, pairs, ())
    var_x, var_y, product = sums
    # an infinity among x's entries makes x's mean NaN or an infinity of that sign, so a NaN
    # deviation, and a product of NaN; finite inputs' sums are finite by now
    if math.isnan(product):
        return math.nan
    return _rho(product, *(0.0 if _constant(var, len(v), v[0], lambda v=v: v) else var
                           for v, var in zip(xs, (var_x, var_y))))


def sign_disagreement(x: np.ndarray, y: np.ndarray) -> float:
    """Ratio of positions where two updates pull in opposite directions.

    Twice the count of opposite-sign positions over the total nonzero counts
    of both vectors; 0 when neither vector has a nonzero entry.
    """
    x, y = _check_pair(x, y)
    return _part_walk(_views([x, y]), len(x), (), (), [(0, 1)])[1][0]


def _check_names(task_vectors: Sequence[TaskVector], grouping: LayerGrouping) -> None:
    if not task_vectors:
        raise ValidationError("need at least one task vector")
    grouped = {name for _, members in grouping.groups for name in members}
    for tv in task_vectors:
        if set(tv.deltas) != grouped:
            raise ValidationError(
                f"task vector {tv.label!r} keys do not match the grouping's name set"
            )
        require_compatible(task_vectors[0].deltas, tv.deltas, f"task vector {tv.label!r}")


def task_order_sum(rows: Iterable, shape: int | tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Sum of ``rows`` in ``dtype``, added in the order given and holding none while the next
    is built. Every sum over tasks or pairs goes through here, ``np.sum(axis=0)`` adding
    pairwise, but one: ``merging.disjoint_merge`` adds its total and count in its own task-order
    loop, one contributor mask at a time."""
    total = np.zeros(shape, dtype=dtype)
    for row in rows:
        total += row
        del row
    return total


def _task_means(b: np.ndarray, update: Callable[[int, np.ndarray], np.ndarray]) -> tuple[float, np.generic, float]:
    """A task's mean over a layer group, its first entry and its mean magnitude, from its
    update over the whole group, built here and dropped; the magnitudes take its place."""
    x = update(0, b)
    return _mean(x), x[0], _mean(np.abs(x, out=x))


# (map_jobs, n, base, updates): see score_layers
_Layer = tuple[Callable, int, Callable[[int, int], np.ndarray],
               Sequence[Callable[[int, np.ndarray], np.ndarray]]]


def _score_layer(layer: _Layer, task_pairs: Sequence[tuple[int, int]]) -> tuple[float, list[float], list[float]]:
    """Importance, then |rho| and sign disagreement per task pair, of one layer group.

    Two rounds of jobs, each job holding at most one task's update of the whole group: the
    base's entries of the whole group are read once into a flat, each task's job builds its
    float32 update from it and takes its mean, its first entry and its mean magnitude
    (:func:`_task_means`), and the flat is dropped with the round. Then, where there are
    pairs, one walk over the parts of the sums' tree reads the base's entries over each part
    once, builds every task's update there and gives every task's sum of squares, every
    pair's product of deviations and every pair's sign counts (:func:`_part_walk`). Only a
    task whose sum of squares is tiny is built whole again, from the base read whole again,
    for :func:`_constant`'s exact check.
    """
    map_jobs, n, base, updates = layer
    if not n:
        return 0.0, [0.0] * len(task_pairs), [0.0] * len(task_pairs)
    # the flat is held by the round's partial alone, so it goes when the round ends
    means, firsts, magnitudes = zip(*map_jobs(partial(_task_means, base(0, n)), updates))
    rho, dis = [], []
    if task_pairs:
        squares = [(t, t) for t in range(len(updates))]

        def parts(start: int, stop: int) -> Iterator[np.ndarray]:
            b = base(start, stop)  # read once a part, for every task
            return (update(start, b) for update in updates)

        sums, dis = _part_walk(parts, n, means, squares + list(task_pairs), task_pairs, map_jobs)
        var = [0.0 if _constant(v, n, first, lambda update=update: update(0, base(0, n))) else v
               for update, first, v in zip(updates, firsts, sums)]
        rho = [_rho(product, var[i], var[j]) for (i, j), product in zip(task_pairs, sums[len(updates):])]
    importance = float(task_order_sum(magnitudes, ())) / len(updates)
    return importance, rho, dis


def score_layers(layer_ids: Sequence[str], n_tasks: int, layers: Iterable[_Layer]) -> ConflictReport:
    """Score each layer group's per-task updates, in ``layer_ids`` order.

    ``layers`` yields one ``(map_jobs, n, base, updates)`` per group of ``n`` entries:
    ``base(start, stop)`` reads the base's entries over that range of the group's flat into a
    new array, and ``updates`` holds one function per task, in task order, that builds as
    :func:`task_vectors.update_range` does: ``update(start, b)``, given ``b = base(start,
    stop)``, gives the task's float32 update over that range in a new array, which scoring
    may overwrite. The base is read whole for the per-task round, once over the parts of
    the walk, and whole again only for :func:`_constant`'s rare check; no flat of it
    outlives the round. ``map_jobs`` maps a function over a sequence as the builtin ``map``
    does, results in order; a thread pool's ``map`` runs the tasks and the parts of the
    sums' tree side by side. Every sum a job takes is its own and the parts' sums and sign
    counts are added in the tree's order, so the scores do not depend on ``map_jobs``. Each
    group is dropped before the next is taken, so memory grows with the largest group, not
    the model.
    """
    n_layers = len(layer_ids)
    task_pairs = tuple(combinations(range(n_tasks), 2))
    rho = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    dis = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    importance = np.zeros(n_layers, dtype=np.float64)
    layers = iter(layers)
    for l in range(n_layers):
        # next() inside the call: no loop variable holds the previous layer
        importance[l], rho[:, l], dis[:, l] = _score_layer(next(layers), task_pairs)

    conflict = task_order_sum(0.5 * rho + 0.5 * dis, n_layers) / max(len(task_pairs), 1)

    return ConflictReport(
        tuple(layer_ids), conflict, importance, task_pairs, rho_abs=rho, sign_disagreement=dis
    )


def layer_conflict(task_vectors: Sequence[TaskVector], grouping: LayerGrouping) -> ConflictReport:
    """Score every layer's inter-task conflict and importance, one layer at a time.

    With a single task there are no pairs and conflict is zero everywhere,
    deferring the allocation entirely to importance. A layer group with no
    elements scores 0 conflict and 0 importance. Each update is built as
    :func:`merging.plan` builds it, over an all-zero base, so it is stored at
    32-bit: a delta beyond float32's range raises :class:`ValidationError`.
    """
    _check_names(task_vectors, grouping)
    shapes = tensor_shapes(task_vectors[0].deltas)

    def layer(members: Sequence[str]) -> _Layer:
        offsets = member_offsets(shapes, members)
        updates = [partial(update_range, range_reader(tv.deltas, members), members, offsets)
                   for tv in task_vectors]
        return map, offsets[-1], lambda start, stop: np.broadcast_to(np.float32(0), stop - start), updates

    layers = (layer(members) for _, members in grouping.groups)
    return score_layers(grouping.layer_ids, len(task_vectors), layers)
