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
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .archive import tensor_shapes
from .errors import ValidationError
from .grouping import LayerGrouping, flatten_group, member_offsets
from .task_vectors import TaskVector


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


# the parts of numpy's pairwise tree that _sum_of_products reduces one at a time. Not
# merging._SLICE_ENTRIES, which tests set to 1, 3 or 7 entries: _node_sum splits a part of
# under 16 entries at 0, so parts that small would recurse without end
_NODE_ENTRIES = 1 << 16


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> float:
    """``np.sum(x * y)`` bit for bit, for flat float64 ``x`` and ``y``, without the ``x * y``
    temporary. numpy hands a contiguous float64 vector of ``n`` entries to one pairwise sum:
    the sum of its first ``n2 = n // 2 - n // 2 % 8`` entries plus that of the rest, each
    split the same way down to 128 entries. This takes the same tree, stops it at parts of
    at most ``_NODE_ENTRIES``, reduces each part with ``np.add.reduce`` (the same pairwise
    sum, added to +0.0, which changes only a -0.0 that numpy's own +0.0 start turns to +0.0
    too) from one reused buffer, and adds the parts as the tree does. BLAS-backed dot
    products would not fix the order across thread counts."""
    return _node_sum(x, y, np.empty(min(len(x), _NODE_ENTRIES)), 0, len(x))


def _node_sum(x: np.ndarray, y: np.ndarray, buf: np.ndarray, start: int, n: int) -> float:
    if n <= _NODE_ENTRIES:
        return float(np.add.reduce(np.multiply(x[start:start + n], y[start:start + n], out=buf[:n])))
    half = n // 2 - n // 2 % 8
    return _node_sum(x, y, buf, start, half) + _node_sum(x, y, buf, start + half, n - half)


def _deviations(x: np.ndarray, dx: np.ndarray) -> float:
    """Write ``x``'s float64 deviations from its mean into ``dx`` and return their sum of
    squares. From the last node down: where a float32 ``x`` lies in ``dx``'s first half, a
    node's deviations overwrite only entries already read, and numpy copies the node's own
    inputs first where they overlap its output."""
    mean = np.sum(x, dtype=np.float64) / len(x)
    for start in reversed(range(0, len(x), _NODE_ENTRIES)):
        node = slice(start, start + _NODE_ENTRIES)
        np.subtract(x[node], mean, out=dx[node], dtype=np.float64)
    return _sum_of_products(dx, dx)


def _center(x: np.ndarray, dx: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Float64 deviations from the mean, written into ``dx`` if given, and their sum of
    squares. A float32 ``x`` may lie in the first half of a float64 ``dx``, which then
    overwrites it. A nonzero sum outside [2**-500, 2**500] is taken again from ``x`` scaled
    exactly by a power of two to a peak in [0.5, 1): the scale cancels in a correlation,
    and a product of two such sums stays normal. Only an ``x`` wider than 4 bytes needs
    that: the finite squares of a narrower one sum inside the range, and a non-finite
    one would be scaled by 2**0.

    A vector whose entries are all equal has deviations of exactly 0: its
    computed mean may be off by rounding, so a sum of squares small enough to
    be that rounding is followed by an exact check."""
    x0 = float(x[0])  # before dx may overwrite x
    if dx is None:
        dx = np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        var = _deviations(x, dx)
    if x.itemsize > 4 and not 2.0**-500 <= var <= 2.0**500 and dx.any():
        x = x.astype(np.float64)
        x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
        x0 = float(x[0])
        var = _deviations(x, dx)
    # a constant vector's deviations are rounding, far under 2**-30 of its entries: only
    # a sum of squares that small is worth the exact check's pass. Entries whose deviations
    # all equal d agree to within 2**-52 |d|, so each lies within a factor of 2 of their
    # computed mean m (or m is 0), where x - m is exact (Sterbenz): each is m + d, so equal
    # deviations mean equal entries, and the check reads dx, not the overwritten x
    if math.sqrt(var / len(dx)) <= 2.0**-30 * abs(x0) and np.all(dx == dx[0]):
        return np.zeros_like(dx), 0.0
    return dx, var


def _pearson_centered(dx: np.ndarray, var_x: float, dy: np.ndarray, var_y: float) -> float:
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    # sqrt(v*v) == v, so x == y lands exactly on 1
    rho = _sum_of_products(dx, dy) / np.sqrt(var_x * var_y)
    return min(abs(float(rho)), 1.0)


_Signs = tuple[np.ndarray, np.ndarray, int]


def _signs(x: np.ndarray) -> _Signs:
    """Positive and negative masks, packed with padding bits 0, and nonzero count of one vector."""
    # counting the zeros' bool mask is several times faster than counting a float vector
    return np.packbits(x > 0), np.packbits(x < 0), x.size - int(np.count_nonzero(x == 0))


def _disagreement(sx: _Signs, sy: _Signs) -> float:
    (pos_x, neg_x, nonzero_x), (pos_y, neg_y, nonzero_y) = sx, sy
    # the two sets are disjoint, as pos_x and neg_x are, so one count of their union is
    # exact; it is unpacked and counted a part at a time, not as one byte per entry
    mask = pos_x & neg_y
    mask |= neg_x & pos_y
    step = _NODE_ENTRIES // 8
    opposite = sum(int(np.count_nonzero(np.unpackbits(mask[i:i + step]))) for i in range(0, len(mask), step))
    nonzero = nonzero_x + nonzero_y
    if nonzero == 0:
        return 0.0
    return 2.0 * opposite / nonzero


def pearson_abs(x: np.ndarray, y: np.ndarray) -> float:
    """Absolute Pearson correlation of two equally long flat vectors.

    Returns 0 when either vector has zero variance: a constant update
    carries no directional conflict signal.
    """
    x, y = _check_pair(x, y)
    if len(x) == 0:
        raise ValueError("vectors must hold at least one element")
    return _pearson_centered(*_center(x), *_center(y))


def sign_disagreement(x: np.ndarray, y: np.ndarray) -> float:
    """Ratio of positions where two updates pull in opposite directions.

    Twice the count of opposite-sign positions over the total nonzero counts
    of both vectors; 0 when neither vector has a nonzero entry.
    """
    x, y = _check_pair(x, y)
    return _disagreement(_signs(x), _signs(y))


def _check_names(task_vectors: Sequence[TaskVector], grouping: LayerGrouping) -> None:
    if not task_vectors:
        raise ValidationError("need at least one task vector")
    grouped = {name for _, members in grouping.groups for name in members}
    for tv in task_vectors:
        if set(tv.deltas) != grouped:
            raise ValidationError(
                f"task vector {tv.label!r} keys do not match the grouping's name set"
            )


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


_TaskScores = tuple[float, "tuple[np.ndarray, float] | None", "_Signs | None"]


def _task_scores(update: Callable[[np.ndarray], np.ndarray], n: int, paired: bool) -> _TaskScores:
    """One task's mean magnitude and, if it is ``paired`` with others, its deviations and
    packed signs. ``update(dx)`` returns the task's flat update of ``n`` entries, and may
    lay it, as float32, in the first half of ``dx``, the float64 array that becomes the
    deviations. The magnitudes are taken into the bytes of ``dx`` that the update leaves
    free, so a job holds ``dx`` and bool masks for the signs, not a raw update beside
    its deviations."""
    dx = np.empty(n)
    x = update(dx)
    if not n:
        return 0.0, None, None
    signs = _signs(x) if paired else None
    magnitude = dx.view(np.uint8)[dx.nbytes - x.nbytes:].view(x.dtype)
    importance = np.sum(np.abs(x, out=magnitude), dtype=np.float64) / n
    return importance, _center(x, dx) if paired else None, signs


def _pair_scores(x: _TaskScores, y: _TaskScores) -> tuple[float, float]:
    return _pearson_centered(*x[1], *y[1]), _disagreement(x[2], y[2])


_Layer = tuple[Callable, int, Sequence[Callable[[np.ndarray], np.ndarray]]]


def _score_layer(layer: _Layer, task_pairs: Sequence[tuple[int, int]]) -> tuple[float, list[float], list[float]]:
    """Importance, then |rho| and sign disagreement per task pair, of one layer group.

    Each task's job builds its flat update and keeps its mean magnitude, deviations and
    packed signs; each pair's job scores it from those.
    """
    map_jobs, n, updates = layer
    scores = list(map_jobs(lambda update: _task_scores(update, n, bool(task_pairs)), updates))
    importance = float(task_order_sum((mean for mean, _, _ in scores), ())) / len(scores)
    if not task_pairs or not n:
        return importance, [0.0] * len(task_pairs), [0.0] * len(task_pairs)
    rho, dis = zip(*map_jobs(lambda pair: _pair_scores(scores[pair[0]], scores[pair[1]]), task_pairs))
    return importance, list(rho), list(dis)


def score_layers(layer_ids: Sequence[str], n_tasks: int, layers: Iterable[_Layer]) -> ConflictReport:
    """Score each layer group's per-task updates, in ``layer_ids`` order.

    ``layers`` yields one ``(map_jobs, n, updates)`` per group of ``n`` entries.
    ``updates`` holds one function per task, in task order: given a float64 array of
    ``n`` entries, it returns the task's flat update, which it may lay as float32 in
    that array's first half. ``map_jobs`` maps a function over a sequence as the builtin
    ``map`` does, results in order; a thread pool's ``map`` runs the tasks, then the
    pairs, side by side. Every sum a job takes is its own, so the scores do not depend
    on ``map_jobs``. Each group is dropped before the next is taken, so memory grows
    with the largest group, not the model.
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
    elements scores 0 conflict and 0 importance.
    """
    _check_names(task_vectors, grouping)
    shapes = tensor_shapes(task_vectors[0].deltas)

    def layer(members: Sequence[str]) -> _Layer:
        n = member_offsets(shapes, members)[-1]
        return map, n, [lambda _, tv=tv: flatten_group(tv.deltas, members) for tv in task_vectors]

    layers = (layer(members) for _, members in grouping.groups)
    return score_layers(grouping.layer_ids, len(task_vectors), layers)
