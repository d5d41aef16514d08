"""Sparsify task vectors, resolve sign conflicts, and compose merged models.

Implements four methods behind one dispatch: adaptive layerwise sparsity
(mals), uniform sparsity, ties (uniform trim with sign election forced on),
and simple averaging. The first three share the same trim/elect/merge path;
uniform and ties are the adaptive path with the sparsity bounds collapsed
onto the target, which makes the advertised method equivalences structural.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .allocation import AllocationConfig, AllocationResult, allocate, coerce_field_types, config_key
from .archive import Archive, _within, archive_writer, tensor_shapes
from .conflict import ConflictReport, score_layers, task_order_sum
from .errors import ConvergenceError, ValidationError
from .grouping import DEFAULT_GROUPING_PATTERN, LayerGrouping, compile_grouping, group_layers, member_offsets
from .task_vectors import (TaskVector, TensorMap, flat_reader, range_reader, require_compatible, stored_sum,
                           update_range)

# CPython's own SHA-256, so that no job loads OpenSSL's libcrypto (3.5 MiB of its RSS) for a
# config digest of a few hundred bytes. A build without it, such as a FIPS one, pays that cost
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

METHODS = ("mals", "simple_average", "uniform_sparsity", "ties")

# entries of one member tensor that pass 2 merges or averages, and composes, as one unit of
# work: a worker's temporaries are a few times this, whatever the layer's size
_SLICE_ENTRIES = 1 << 16
# a layer group in a walk: its members' names, their offsets, how to run its jobs
_Group = tuple[tuple[str, ...], list[int], Callable]
# takes a composed slice: ``place(name, start, values)`` for entries ``start`` on of ``name``
_Place = Callable[[str, int, np.ndarray], None]


@dataclass(frozen=True)
class MergeConfig:
    method: str = "mals"
    lam: float = field(default=1.0, metadata={"key": "lambda"})
    sign_election: bool = False
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    grouping_pattern: str = DEFAULT_GROUPING_PATTERN

    def __post_init__(self) -> None:
        coerce_field_types(self)
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.lam > 0:
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        compile_grouping(self.grouping_pattern)


def _float_bits(dtype: np.dtype) -> np.dtype:
    """The unsigned dtype as wide as ``dtype``, a real float of 1, 2, 4 or 8 bytes; any
    other dtype raises ``ValueError`` naming it, one wider than 8 bytes by its width."""
    if dtype.itemsize not in (1, 2, 4, 8):
        raise ValueError(f"vector dtype {dtype} is {dtype.itemsize} bytes wide, not 1, 2, 4 or 8")
    if dtype.kind != "f":
        raise ValueError(f"vector dtype {dtype} is not a real float")
    return np.dtype(f"u{dtype.itemsize}")


def _select_bits(mask: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``v``'s bits where the unsigned ``mask`` of its width holds 1 and zero bits where it
    holds 0, into ``out``; ``mask`` is overwritten."""
    np.negative(mask, out=mask)  # 1 -> all ones, 0 -> 0
    return np.bitwise_and(mask, v.view(mask.dtype), out=out)


def masked_select(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``v`` where ``keep`` holds and 0 elsewhere, as numpy's ``where(keep, v, 0)``
    gives it bit for bit, without a branch per entry.

    ``v``'s bits are ANDed with all ones where ``keep`` holds and with zeros
    elsewhere, through an unsigned view of ``v``'s width: a kept entry keeps its
    exact bits, ``-0.0`` included, and a dropped one becomes all-zero bits,
    which is ``+0.0``. A half-true mask in random order, as a trim at ``s`` near
    0.5 gives, costs a branching select a mispredicted branch on every other entry.
    ``v``'s dtype must be a real float 1, 2, 4 or 8 bytes wide, as is every float up
    to float64; any other, such as complex128 or int32, raises ``ValueError`` naming it.
    """
    mask = keep.astype(_float_bits(v.dtype))
    return _select_bits(mask, v, out=mask).view(v.dtype)


def _kept(s: float, n: int) -> int:
    """How many of ``n`` entries a trim to sparsity ``s`` keeps: ceil((1 - s) * n), none at 1."""
    return 0 if s == 1.0 else math.ceil((1.0 - s) * n)


def _threshold(magnitude: np.ndarray, n_keep: int,
               again: Callable[[int, int], np.ndarray]) -> tuple[np.generic, int]:
    """The trim of a flat real-float ``v`` to its ``n_keep`` largest magnitudes, as
    ``(threshold, cutoff)`` for :func:`_trim_slice`: an entry is kept if its magnitude's bits,
    unsigned, exceed ``threshold``, or equal it at an index below ``cutoff``.

    ``magnitude`` is ``|v|`` in an array of its own, which is partitioned in place through its
    unsigned view: a finite magnitude's bits order as it does. The entries from the
    partition's pivot up hold every magnitude above ``threshold`` and as many ties as are
    kept; only if ties lie below the pivot too (the largest entry there is one) are the
    magnitudes taken again, a slice at a time in index order from ``again(start, stop)``
    (``|v|`` over entries ``[start, stop)``, in an array of its own), and scanned for the
    index after the last tie kept, lower indices first, up to the slice that holds it. The
    kept ties are counted a slice at a time too, so nothing else as long as ``v`` is built.
    """
    bits = magnitude.view(_float_bits(magnitude.dtype))
    if n_keep == 0:
        return bits.dtype.type(np.iinfo(bits.dtype).max), 0  # no magnitude's bits exceed it
    pivot = len(bits) - n_keep
    bits.partition(pivot)
    threshold = bits[pivot]
    if not pivot or bits[:pivot].max() < threshold:  # no tie is dropped
        return threshold, len(bits)

    def ties(x: np.ndarray) -> int:
        return int(np.count_nonzero(x == threshold))

    quota = sum(ties(bits[start:start + _SLICE_ENTRIES]) for start in range(pivot, len(bits), _SLICE_ENTRIES))
    for start in range(0, len(bits), _SLICE_ENTRIES):
        part = again(start, min(start + _SLICE_ENTRIES, len(bits))).view(bits.dtype)
        tied = ties(part)
        if tied >= quota:
            return threshold, start + int(np.flatnonzero(part == threshold)[quota - 1]) + 1
        quota -= tied
    raise AssertionError("again() holds fewer ties than the partition counted")


def _trim_slice(v: np.ndarray, threshold: np.generic, cutoff: int) -> np.ndarray:
    """The flat ``v``, a slice of a vector whose :func:`_threshold` is ``(threshold, cutoff +
    first)`` when ``v`` starts at entry ``first`` of it, with the entries that trim drops
    zeroed, in a new array. A kept entry keeps its bits, ``-0.0`` included, and a dropped
    one becomes ``+0.0``."""
    mask = np.abs(v).view(threshold.dtype)
    cut = min(max(cutoff, 0), len(mask))
    np.greater_equal(mask[:cut], threshold, out=mask[:cut])
    np.greater(mask[cut:], threshold, out=mask[cut:])
    return _select_bits(mask, v, out=mask).view(v.dtype)


def sparsify_top_fraction(v: np.ndarray, s: float) -> np.ndarray:
    """Zero all but the ceil((1 - s) * n) largest-magnitude entries.

    Magnitude ties keep the lower flat index, which pins the result across
    platforms and sort implementations. ``s = 1`` keeps nothing.

    Runs in O(n): a partial selection finds the smallest kept magnitude and
    every entry above it is kept, with as many entries equal to it as fit,
    from the lowest index up (:func:`_threshold`, :func:`_trim_slice`). Kept
    entries are copied as they are, so a kept ``-0.0`` stays ``-0.0``. ``v``,
    whose entries are finite, is left as it is.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"sparsity level must lie in [0, 1], got {s}")
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("input must be a flat vector")
    _float_bits(v.dtype)  # checked at every level, 1 included
    threshold, cutoff = _threshold(np.abs(v), _kept(s, v.size), lambda start, stop: np.abs(v[start:stop]))
    return _trim_slice(v, threshold, cutoff)


def _rows(sparsified: Sequence[np.ndarray]) -> list[np.ndarray]:
    if not sparsified:
        raise ValueError("need at least one vector")
    rows = [np.asarray(v) for v in sparsified]
    for row in rows:
        _float_bits(row.dtype)
        if row.ndim != 1:
            raise ValueError(f"vectors must be flat, got one of shape {row.shape}")
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ValueError(f"length mismatch across vectors: {sorted(lengths)}")
    return rows


def elect_signs(sparsified: Sequence[np.ndarray]) -> np.ndarray:
    """Per-position sign of the cross-task sum; an exact zero sum elects 0."""
    rows = _rows(sparsified)
    return np.sign(task_order_sum(rows, rows[0].shape)).astype(np.int8)


def _contributes(row: np.ndarray, signs: np.ndarray | None) -> np.ndarray:
    """Nonzero entries of ``row``, or those matching a nonzero elected sign (never a ±0)."""
    if signs is None:
        return row != 0
    return ((signs > 0) & (row > 0)) | ((signs < 0) & (row < 0))


def disjoint_merge(sparsified: Sequence[np.ndarray], signs: np.ndarray | None = None) -> np.ndarray:
    """Average the surviving task contributions at each position.

    With ``signs``, only nonzero entries matching the elected sign
    contribute, and positions with sign 0 merge to 0. Without, all nonzero
    entries contribute. Empty contributor sets merge to 0.
    """
    rows = _rows(sparsified)
    if signs is not None:
        signs = np.asarray(signs)
        if signs.ndim != 1:
            raise ValueError(f"signs must be flat, got shape {signs.shape}")
        if len(signs) != len(rows[0]):
            raise ValueError(f"signs length {len(signs)} does not match vectors {len(rows[0])}")
    total = np.zeros(rows[0].shape)
    count = np.zeros(rows[0].shape, np.min_scalar_type(len(rows)))
    for row in rows:  # in task order, one contributor mask alive at a time
        contributes = _contributes(row, signs)
        total += masked_select(row, contributes)
        count += contributes
        del contributes
    total /= np.maximum(count, 1, out=count)  # an integer count converts to float64 exactly
    return total.astype(np.result_type(*rows))


def compose_merged(base: TensorMap, tau: TaskVector, lam: float) -> dict[str, np.ndarray]:
    """Add the scaled merged task vector back onto the base checkpoint."""
    require_compatible(base, tau.deltas, f"task vector {tau.label!r}")
    return {key: stored_sum(f"merged tensor {key!r}", base[key], lam, tau.deltas[key]) for key in base}


def _average(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean, summed at 64-bit and stored in the first array's dtype."""
    return (task_order_sum(arrays, arrays[0].shape) / len(arrays)).astype(arrays[0].dtype)


def simple_average(task_vectors: Sequence[TaskVector]) -> TaskVector:
    """Uniform average of the task vectors, with no trimming or election."""
    if not task_vectors:
        raise ValidationError("need at least one task vector")
    first = task_vectors[0]
    for tv in task_vectors[1:]:
        require_compatible(first.deltas, tv.deltas, f"task vector {tv.label!r}")
    deltas = {key: _average([tv.deltas[key] for tv in task_vectors]) for key in first.deltas}
    return TaskVector(label="simple_average", deltas=deltas)


def _in_order(pool, ahead: int, fn: Callable, jobs: Iterable) -> Iterator:
    """``pool.map(fn, jobs)`` with at most ``ahead`` jobs submitted and not yet yielded, so a
    group holds that many futures, not one per slice: results in order, the first error in
    that order raised, and the jobs not yet run cancelled when one is raised or the map closed."""
    pending = deque()
    try:
        for job in jobs:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, job))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _layer_walk(base: TensorMap, grouping: LayerGrouping) -> Iterator[_Group]:
    """Each layer group's ``(members, offsets, map_jobs)``, in ``grouping`` order: its members'
    names, :func:`grouping.member_offsets` for them, and a ``map`` that runs its jobs, results
    in order: the builtin one under two slices, where a pool gains nothing, else one over a pool
    of one thread per CPU this process may use, two jobs a thread ahead (:func:`_in_order`). The
    pool starts at the first large group (only then is ``concurrent.futures``, which pulls in
    ``logging``, imported) and shuts down, once the jobs in flight are done, when the walk ends
    or is closed, as each caller closes it. numpy's ufuncs, its partition and ``preadv`` release
    the GIL."""
    pool = None
    try:
        base_shapes = tensor_shapes(base)
        for _, members in grouping.groups:
            offsets = member_offsets(base_shapes, members)
            large = offsets[-1] >= 2 * _SLICE_ENTRIES
            if large and pool is None:
                from concurrent.futures import ThreadPoolExecutor

                workers = _workers()
                pool = ThreadPoolExecutor(workers)
                pool_map = partial(_in_order, pool, 2 * workers)
            yield members, offsets, pool_map if large else map
    finally:
        if pool is not None:
            pool.shutdown()


def _require_finite(tensors: TensorMap, what: str) -> None:
    """Raise :class:`ValidationError` naming ``what`` and the first tensor of a non-real dtype
    or holding a NaN or an infinity; an :class:`Archive` checks each value as it reads it."""
    if not isinstance(tensors, Archive):
        for name, tensor in tensors.items():
            tensor = np.asarray(tensor)
            if tensor.dtype.kind not in "fiub":
                raise ValidationError(f"{what}: tensor {name!r} has dtype {tensor.dtype}, not a real number")
            if not _within(tensor, np.inf):
                raise ValidationError(f"{what}: non-finite value detected in tensor {name!r}")


def plan(
    base: TensorMap,
    tuned: Sequence[TensorMap],
    config: MergeConfig,
    labels: Sequence[str] | None = None,
) -> tuple[LayerGrouping, ConflictReport | None, AllocationResult | None]:
    """The first half of :func:`merge`: check compatibility, group layers and,
    unless ``simple_average``, score conflict (pass 1) and allocate sparsity.

    A non-converged allocation is returned as is; :func:`merge` refuses it.
    """
    if not tuned:
        raise ValidationError("need at least one tuned checkpoint")
    if labels is None:
        labels = [f"task-{i}" for i in range(len(tuned))]
    elif len(labels) != len(tuned):
        raise ValidationError(f"{len(labels)} labels provided for {len(tuned)} checkpoints")
    _require_finite(base, "base")
    for checkpoint, label in zip(tuned, labels):
        require_compatible(base, checkpoint, f"checkpoint {label!r}")
        _require_finite(checkpoint, f"checkpoint {label!r}")
    grouping = group_layers(base, config.grouping_pattern)
    if config.method == "simple_average":
        return grouping, None, None
    with closing(_layer_walk(base, grouping)) as walk:
        layers = ((map_jobs, at[-1], flat_reader(base, members, at),
                   [partial(update_range, range_reader(t, members), members, at) for t in tuned])
                  for members, at, map_jobs in walk)
        conflict = score_layers(grouping.layer_ids, len(tuned), layers)
    alloc_config = config.allocation
    if config.method in ("uniform_sparsity", "ties"):
        # identical trim level everywhere: collapse the box onto the target
        alloc_config = replace(
            alloc_config, s_min=alloc_config.s_target, s_max=alloc_config.s_target
        )
    return grouping, conflict, allocate(conflict, alloc_config)


def _slices(members: Iterable[str], offsets: Sequence[int]) -> Iterator[tuple[str, int, int, int]]:
    """``(name, at, start, stop)`` of each slice of ``_SLICE_ENTRIES`` entries, in walk order:
    entries ``[start, stop)`` of member ``name``, which starts at ``at`` in the group's flat."""
    return ((name, at, start, min(start + _SLICE_ENTRIES, end - at))
            for name, at, end in zip(members, offsets, offsets[1:])
            for start in range(0, end - at, _SLICE_ENTRIES))


def _slice_walk(base_read: Callable[[str, int, int], np.ndarray], group: _Group, lam: float,
                fill: Callable[[int, np.ndarray], np.ndarray], place: _Place) -> None:
    """Each member's float32 merged tensor, in :func:`_slices`: a slice reads the base's
    entries once through ``base_read``, as ``b``, ``fill(first, b)`` returns their merged update
    in a float32 array of its own, the slice's length, which starts at ``first`` in the group's
    flat, ``b + lam * update`` is stored in that array, and ``place(name, start, update)`` takes
    it on the thread that composed it, so the walk owns no buffer. Fills work by position, so
    the bytes depend on neither the slice size nor how the group's ``map_jobs`` (results in
    walk order) spreads the slices; the error raised is the first a serial walk meets."""
    members, offsets, map_jobs = group

    def run(job: tuple[str, int, int, int]) -> None:
        name, at, start, stop = job
        b = base_read(name, start, stop)
        update = fill(at + start, b)
        place(name, start, stored_sum(f"merged tensor {name!r}", b, lam, update, out=update))

    for _ in map_jobs(run, _slices(members, offsets)):
        pass


def _merge_layer(base: TensorMap, tuned: Sequence[TensorMap], group: _Group, level: float,
                 config: MergeConfig, place: _Place) -> None:
    """Pass 2 on one layer group: its base is read once into a flat, and one job per task
    builds its update over all of it and finds, from its magnitudes in the update's place,
    the :func:`_threshold` of its trim to ``level`` (a tied threshold rebuilds the update a
    slice at a time, up to the cutoff's slice); the flat goes with that round. Then each
    slice reads the base's entries over it, rebuilds every task's update there, trims it
    (:func:`_trim_slice`), elects and merges, and the walk adds ``lam`` times that onto the
    same base entries."""
    members, offsets, map_jobs = group
    flat = flat_reader(base, members, offsets)(0, offsets[-1])  # for the threshold round alone
    reads = [range_reader(t, members) for t in tuned]
    n_keep = _kept(level, len(flat))

    def find_threshold(read: Callable) -> tuple[np.generic, int]:
        row = update_range(read, members, offsets, 0, flat)

        def again(start: int, stop: int) -> np.ndarray:
            part = update_range(read, members, offsets, start, flat[start:stop])
            return np.abs(part, out=part)

        return _threshold(np.abs(row, out=row), n_keep, again)

    thresholds = list(map_jobs(find_threshold, reads))
    del flat  # the walk reads the base a slice at a time
    election = config.sign_election or config.method == "ties"

    def merge_slice(first: int, b: np.ndarray) -> np.ndarray:
        rows = [_trim_slice(update_range(read, members, offsets, first, b), threshold, cutoff - first)
                for read, (threshold, cutoff) in zip(reads, thresholds)]
        return disjoint_merge(rows, elect_signs(rows) if election else None)

    _slice_walk(range_reader(base, members), group, config.lam, merge_slice, place)


def _average_layer(base: TensorMap, tuned: Sequence[TensorMap], group: _Group, lam: float,
                   place: _Place) -> None:
    """Pass 2 of ``simple_average`` on one layer group: each slice builds each checkpoint's
    update over it (:func:`update_range`) in task order into one float32 buffer, adds them into a
    float64 total and divides that by T into the buffer, which the walk composes into."""
    members, offsets, _ = group
    tuned_reads = [range_reader(tensors, members) for tensors in tuned]

    def average(first: int, b: np.ndarray) -> np.ndarray:
        update = np.empty(len(b), np.float32)
        total = task_order_sum((update_range(read, members, offsets, first, b, out=update)
                                for read in tuned_reads), len(b))
        return np.divide(total, len(tuned_reads), out=update)

    _slice_walk(range_reader(base, members), group, lam, average, place)


def _workers() -> int:
    """Threads for a large layer group's jobs: the CPUs this process may run on, the
    machine's where that call is missing."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _merge_walk(
    base: TensorMap, tuned: Sequence[TensorMap], config: MergeConfig, labels: Sequence[str] | None,
    place: Callable[[Sequence[str]], _Place],
) -> tuple[Iterator[None], ConflictReport | None, AllocationResult | None]:
    """:func:`plan`, refusing a non-converged allocation with :class:`ConvergenceError`, and
    pass 2 as a generator that its caller closes: for each layer group in turn it averages the
    updates, or trims, elects and merges them, adds ``lam`` times the result onto the base,
    hands each slice to the ``_Place`` that ``place(members)`` gives for the group, and yields."""
    grouping, conflict, allocation = plan(base, tuned, config, labels)
    if allocation is not None and not allocation.converged:
        raise ConvergenceError(
            f"budget projection did not converge within {config.allocation.max_iterations} "
            f"iterations (mean sparsity {allocation.mean_sparsity}, "
            f"target {config.allocation.s_target})"
        )

    def walk() -> Iterator[None]:
        with closing(_layer_walk(base, grouping)) as groups:
            for l, group in enumerate(groups):
                if allocation is None:
                    _average_layer(base, tuned, group, config.lam, place(group[0]))
                else:
                    _merge_layer(base, tuned, group, float(allocation.s_final[l]), config, place(group[0]))
                yield

    return walk(), conflict, allocation


def merge(
    base: TensorMap,
    tuned: Sequence[TensorMap],
    config: MergeConfig,
    labels: Sequence[str] | None = None,
) -> tuple[Iterator[tuple[str, np.ndarray]], ConflictReport | None, AllocationResult | None]:
    """Merge fine-tuned checkpoints into one model via the configured method.

    Returns ``(merged, conflict, allocation)``. Pass 1 and allocation run here,
    scoring conflict on one layer group's ``tuned - base`` updates at a time
    (not for ``simple_average``); a non-converged allocation is refused here.
    ``merged`` iterates the ``(name, tensor)`` pairs, running :func:`merge_to_archive`'s
    pass 2 on each layer group as it reaches it: average the updates, or trim, elect and
    merge them, and add ``lam`` times the result onto the base, into the group's float32
    outputs (the previous group's are dropped first). Pass-2 errors, such as an
    overflowing merged tensor, are raised during iteration. ``dict(merged)`` holds the
    whole model; :func:`merge_to_archive` writes it to a file without holding a merged layer.

    Neither pass keeps a task's update of a layer group: a job in flight holds one, and
    the rest is built a part or a slice at a time. Pass 1 builds each update whole for its
    mean and magnitude, then every task's update over each part of its sums' tree; pass 2
    builds each update whole for its trim threshold, then every task's update over each
    slice, which it trims, elects and merges. Each pass holds the group's base in a flat
    for its per-task round alone, and its walk reads the base a part or a slice at a time,
    once for every task. So a trimmed merge reads each tuned entry and each base entry
    twice a pass, and pass 2 reads a task's group once more, up to the slice that holds its
    cutoff, where its threshold has surplus ties; ``simple_average`` reads each entry once.

    A layer group of at least two slices (131,072 entries) runs its jobs on one thread
    per CPU this process may use: pass 1's per-task updates and the parts of its sums'
    tree, pass 2's per-task thresholds and its slices of averaging or of trim, election,
    merge and compose. The bytes do not depend on the count. Pass 1's threads end with this
    call; pass 2's live until ``merged`` is exhausted, closed or raises.
    """
    shapes = tensor_shapes(base)
    layer: dict[str, np.ndarray] = {}  # the float32 outputs of the layer group being composed

    def place(members: Sequence[str]) -> _Place:
        layer.clear()
        layer.update((name, np.empty(shapes[name], np.float32)) for name in members)
        return put

    def put(name: str, start: int, values: np.ndarray) -> None:
        layer[name].reshape(-1)[start:start + len(values)] = values

    walk, conflict, allocation = _merge_walk(base, tuned, config, labels, place)

    def merged() -> Iterator[tuple[str, np.ndarray]]:
        with closing(walk):
            for _ in walk:
                yield from layer.items()

    return merged(), conflict, allocation


def merge_to_archive(
    base: TensorMap,
    tuned: Sequence[TensorMap],
    config: MergeConfig,
    path: str | Path,
    labels: Sequence[str] | None = None,
    metadata: Mapping[str, str] | None = None,
) -> tuple[ConflictReport | None, AllocationResult | None]:
    """:func:`merge`, writing the merged model as an F32 archive at ``path`` with
    ``metadata``; returns ``(conflict, allocation)``.

    The writer opens first, so a bad ``path`` or ``metadata`` fails before pass 1 reads
    anything. On :func:`merge`'s pass-2 walk each composed slice is written at its offset in
    the file by the thread that composed it, so no merged layer is held: at most a layer's
    base and one task's update of it per job in flight for a trimmed merge, whatever the
    task count, and slices for ``simple_average``.
    The file is renamed into place once all is written; on any error ``path`` is untouched.
    """
    with archive_writer(tensor_shapes(base), path, metadata) as write_range:
        walk, conflict, allocation = _merge_walk(base, tuned, config, labels, lambda members: write_range)
        # however the walk ends, it is closed, its pool done, before the writer closes or removes the file
        with closing(walk):
            for _ in walk:
                pass
    return conflict, allocation


def config_fields(config: MergeConfig) -> dict[str, object]:
    """``config`` under its config-file keys: ``lambda`` for ``lam``, the allocation keys inline."""
    keyed = {config_key(f): getattr(config, f.name) for f in fields(config)}
    allocation = keyed.pop("allocation")
    return {**keyed, **{config_key(f): getattr(allocation, f.name) for f in fields(allocation)}}


def config_metadata(config: MergeConfig) -> dict[str, str]:
    """Archive metadata identifying the merge: method, lambda, config digest."""
    digest = _sha256(json.dumps(config_fields(config), sort_keys=True).encode()).hexdigest()
    return {"method": config.method, "lambda": repr(config.lam), "config_digest": digest[:16]}
