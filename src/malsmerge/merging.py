"""Sparsify task vectors, resolve sign conflicts, and compose merged models.

Implements four methods behind one dispatch: adaptive layerwise sparsity
(mals), uniform sparsity, ties (uniform trim with sign election forced on),
and simple averaging. The first three share the same trim/elect/merge path;
uniform and ties are the adaptive path with the sparsity bounds collapsed
onto the target, which makes the advertised method equivalences structural.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .allocation import AllocationConfig, AllocationResult, allocate, coerce_field_types, config_key
from .archive import Archive, tensor_shapes
from .conflict import ConflictReport, score_layers, task_order_sum
from .errors import ConvergenceError, ValidationError
from .grouping import DEFAULT_GROUPING_PATTERN, LayerGrouping, compile_grouping, group_layers, unflatten_group
from .task_vectors import TaskVector, TensorMap, layer_deltas, require_compatible, stored_sum

METHODS = ("mals", "simple_average", "uniform_sparsity", "ties")

# entries of one member tensor that simple_average reads, averages and composes as one
# unit of work: a worker's temporaries are a few times this, whatever the layer's size
_SLICE_ENTRIES = 1 << 16


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
    bits = _float_bits(v.dtype)
    mask = keep.astype(bits)
    np.negative(mask, out=mask)  # 1 -> all ones, 0 -> 0
    np.bitwise_and(mask, v.view(bits), out=mask)
    return mask.view(v.dtype)


def sparsify_top_fraction(v: np.ndarray, s: float) -> np.ndarray:
    """Zero all but the ceil((1 - s) * n) largest-magnitude entries.

    Magnitude ties keep the lower flat index, which pins the result across
    platforms and sort implementations. ``s = 1`` keeps nothing.

    Runs in O(n): a partial selection finds the smallest kept magnitude and
    every entry at or above it is kept; only if that keeps too many are the
    surplus entries equal to it dropped, from the highest index down. Kept
    entries are copied as they are, so a kept ``-0.0`` stays ``-0.0``.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"sparsity level must lie in [0, 1], got {s}")
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("input must be a flat vector")
    _float_bits(v.dtype)  # checked at every level, 1 included
    n_keep = 0 if s == 1.0 else math.ceil((1.0 - s) * v.size)
    if n_keep == 0:
        return np.zeros_like(v)
    magnitude = np.abs(v)
    threshold = np.partition(magnitude, v.size - n_keep)[v.size - n_keep]
    keep = magnitude >= threshold
    surplus = int(np.count_nonzero(keep)) - n_keep
    if surplus > 0:
        keep[np.flatnonzero(magnitude == threshold)[-surplus:]] = False
    return masked_select(v, keep)


def _rows(sparsified: Sequence[np.ndarray]) -> list[np.ndarray]:
    if not sparsified:
        raise ValueError("need at least one vector")
    rows = [np.asarray(v) for v in sparsified]
    for row in rows:
        _float_bits(row.dtype)
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
    for checkpoint, label in zip(tuned, labels):
        require_compatible(base, checkpoint, f"checkpoint {label!r}")
    grouping = group_layers(base, config.grouping_pattern)
    if config.method == "simple_average":
        return grouping, None, None
    layer_flats = (layer_deltas(base, tuned, members) for _, members in grouping.groups)
    conflict = score_layers(grouping.layer_ids, len(tuned), layer_flats)
    alloc_config = config.allocation
    if config.method in ("uniform_sparsity", "ties"):
        # identical trim level everywhere: collapse the box onto the target
        alloc_config = replace(
            alloc_config, s_min=alloc_config.s_target, s_max=alloc_config.s_target
        )
    return grouping, conflict, allocate(conflict, alloc_config)


def _merge_layer(
    base: TensorMap, tuned: Sequence[TensorMap], members: Sequence[str], level: float,
    config: MergeConfig,
) -> dict[str, np.ndarray]:
    """Pass 2 on one layer group: trim its updates to ``level``, elect and merge them,
    and add ``lam`` times that onto the base."""
    layer_base = {name: base[name] for name in members}  # read once, for deltas and compose
    updates = layer_deltas(layer_base, tuned, members)  # one raw update alive at a time
    # map, not a comprehension, whose loop variable would hold the last raw update
    flats = list(map(sparsify_top_fraction, updates, [level] * len(tuned)))
    election = config.sign_election or config.method == "ties"
    merged_flat = disjoint_merge(flats, elect_signs(flats) if election else None)
    del flats  # freed before the layer is composed
    shapes = {name: tensor.shape for name, tensor in layer_base.items()}
    composed = unflatten_group(merged_flat, shapes, members)
    for name, delta in composed.items():
        # into the merged update's own buffer: one array per layer, no second
        # allocation per tensor, so the pages the layer freed are reused; each
        # base tensor is popped, so freed once composed
        stored_sum(f"merged tensor {name!r}", layer_base.pop(name), config.lam, delta, out=delta)
    return composed


def _flat_reads(tensors: TensorMap, members: Sequence[str]) -> Callable[[str, int, int], np.ndarray]:
    """``read(name, start, stop)``: entries ``[start, stop)`` of member ``name``, flat. An
    :class:`Archive` reads just that range; any other mapping's members are raveled once
    here, each keeping its dtype, and sliced."""
    if isinstance(tensors, Archive):
        return tensors.read_range
    flats = {name: np.ravel(tensors[name]) for name in members}
    return lambda name, start, stop: flats[name][start:stop]


def _average_layer(
    base: TensorMap, tuned: Sequence[TensorMap], members: Sequence[str],
    shapes: dict[str, tuple[int, ...]], lam: float, map_slices: Callable,
) -> dict[str, np.ndarray]:
    """Pass 2 of ``simple_average`` on one layer group, walked in fixed slices of its members.

    Each slice reads the base's range once and each checkpoint's in task order, adds their
    32-bit updates into a float64 total, divides it by T, rounds it to float32 and adds
    ``lam`` times that onto the base straight into the member's output. Every step works
    position by position, so the bytes do not depend on the slice size or on how the
    slices are spread over workers. ``map_slices`` runs them and yields in walk order, so
    the error raised is the first one a serial walk in (member, offset) order meets.
    """
    base_read, *tuned_reads = (_flat_reads(tensors, members) for tensors in (base, *tuned))
    merged = {name: np.empty(shapes[name], np.float32) for name in members}

    def average(job: tuple[str, int]) -> None:
        name, start = job
        stop = min(start + _SLICE_ENTRIES, merged[name].size)
        b = base_read(name, start, stop)
        total = np.zeros(stop - start)
        update = np.empty(stop - start, np.float32)
        for read in tuned_reads:
            total += stored_sum(f"update of tensor {name!r}", read(name, start, stop), -1, b, out=update)
        out = merged[name].reshape(-1)[start:stop]
        out[...] = np.divide(total, len(tuned_reads), out=total)
        stored_sum(f"merged tensor {name!r}", b, lam, out, out=out)

    walk = [(name, start) for name in members for start in range(0, merged[name].size, _SLICE_ENTRIES)]
    for _ in map_slices(average, walk):
        pass
    return merged


def _workers() -> int:
    """Threads for ``simple_average``'s slices: the CPUs this process may run on, the
    machine's where that call is missing."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    ``merged`` iterates the ``(name, tensor)`` pairs, running pass 2 on each
    layer group as it reaches it: average the updates, or trim, elect and merge
    them, and add ``lam`` times the result onto the base. Pass-2 errors, such as
    an overflowing merged tensor, are raised during iteration. ``dict(merged)``
    holds the whole model; ``stream_archive`` writes it holding one layer.

    ``simple_average`` walks each layer in fixed slices on one thread per CPU this
    process may use; the bytes do not depend on the count. The threads live until
    ``merged`` is exhausted, closed or raises.
    """
    grouping, conflict, allocation = plan(base, tuned, config, labels)
    if allocation is not None and not allocation.converged:
        raise ConvergenceError(
            f"budget projection did not converge within {config.allocation.max_iterations} "
            f"iterations (mean sparsity {allocation.mean_sparsity}, "
            f"target {config.allocation.s_target})"
        )

    def merged() -> Iterator[tuple[str, np.ndarray]]:
        # nothing here holds a layer once its last pair is taken
        if allocation is not None:
            for l, (_, members) in enumerate(grouping.groups):
                yield from _merge_layer(base, tuned, members, float(allocation.s_final[l]), config).items()
            return
        from concurrent.futures import ThreadPoolExecutor  # not at the top: it pulls in logging

        shapes = tensor_shapes(base)
        # shut down, once the slices in flight are done, however the walk ends
        with ThreadPoolExecutor(_workers()) as pool:
            for _, members in grouping.groups:
                yield from _average_layer(base, tuned, members, shapes, config.lam, pool.map).items()

    return merged(), conflict, allocation


def config_fields(config: MergeConfig) -> dict[str, object]:
    """``config`` under its config-file keys: ``lambda`` for ``lam``, the allocation keys inline."""
    keyed = {config_key(f): getattr(config, f.name) for f in fields(config)}
    allocation = keyed.pop("allocation")
    return {**keyed, **{config_key(f): getattr(allocation, f.name) for f in fields(allocation)}}


def config_metadata(config: MergeConfig) -> dict[str, str]:
    """Archive metadata identifying the merge: method, lambda, config digest."""
    digest = hashlib.sha256(json.dumps(config_fields(config), sort_keys=True).encode()).hexdigest()
    return {"method": config.method, "lambda": repr(config.lam), "config_digest": digest[:16]}
