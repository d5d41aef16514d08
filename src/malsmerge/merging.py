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
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .allocation import AllocationConfig, AllocationResult, allocate
from .conflict import ConflictReport, checkpoint_conflict
from .errors import ConvergenceError, ValidationError
from .grouping import DEFAULT_GROUPING_PATTERN, group_layers, unflatten_group
from .task_vectors import TaskVector, TensorMap, layer_deltas, require_compatible

METHODS = ("mals", "simple_average", "uniform_sparsity", "ties")


@dataclass(frozen=True)
class MergeConfig:
    method: str = "mals"
    lam: float = 1.0
    sign_election: bool = False
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    grouping_pattern: str = DEFAULT_GROUPING_PATTERN

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lambda must be finite and positive, got {self.lam}")


@dataclass
class MergeOutput:
    merged: dict[str, np.ndarray]
    tau_merged: TaskVector
    method: str
    allocation: AllocationResult | None = None
    conflict: ConflictReport | None = None


def sparsify_top_fraction(v: np.ndarray, s: float) -> np.ndarray:
    """Zero all but the ceil((1 - s) * n) largest-magnitude entries.

    Magnitude ties keep the lower flat index, which pins the result across
    platforms and sort implementations. ``s = 1`` keeps nothing.

    Runs in O(n): a partial selection finds the smallest kept magnitude,
    every entry above it is kept, and the remaining slots go to the entries
    equal to it in ascending index order. Kept entries are copied as they
    are, so a kept ``-0.0`` stays ``-0.0``.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"sparsity level must lie in [0, 1], got {s}")
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("input must be a flat vector")
    n_keep = 0 if s == 1.0 else math.ceil((1.0 - s) * v.size)
    if n_keep == 0:
        return np.zeros_like(v)
    magnitude = np.abs(v)
    threshold = np.partition(magnitude, v.size - n_keep)[v.size - n_keep]
    keep = magnitude > threshold
    n_ties = n_keep - int(np.count_nonzero(keep))
    keep[np.flatnonzero(magnitude == threshold)[:n_ties]] = True
    return np.where(keep, v, v.dtype.type(0))


def _stack(sparsified: Sequence[np.ndarray]) -> np.ndarray:
    if not sparsified:
        raise ValueError("need at least one vector")
    lengths = {len(v) for v in sparsified}
    if len(lengths) > 1:
        raise ValueError(f"length mismatch across vectors: {sorted(lengths)}")
    return np.stack([np.asarray(v) for v in sparsified])


def elect_signs(sparsified: Sequence[np.ndarray]) -> np.ndarray:
    """Per-position sign of the cross-task sum; an exact zero sum elects 0."""
    stack = _stack(sparsified)
    return np.sign(np.sum(stack, axis=0, dtype=np.float64)).astype(np.int8)


def disjoint_merge(sparsified: Sequence[np.ndarray], signs: np.ndarray | None = None) -> np.ndarray:
    """Average the surviving task contributions at each position.

    With ``signs``, only nonzero entries matching the elected sign
    contribute, and positions with sign 0 merge to 0. Without, all nonzero
    entries contribute. Empty contributor sets merge to 0.
    """
    stack = _stack(sparsified)
    if signs is not None:
        signs = np.asarray(signs)
        if len(signs) != stack.shape[1]:
            raise ValueError(f"signs length {len(signs)} does not match vectors {stack.shape[1]}")
        contributes = ((signs > 0) & (stack > 0)) | ((signs < 0) & (stack < 0))
    else:
        contributes = stack != 0
    total = np.sum(np.where(contributes, stack, 0.0), axis=0, dtype=np.float64)
    count = np.count_nonzero(contributes, axis=0)
    merged = total / np.maximum(count, 1)
    return merged.astype(stack.dtype)


def compose_merged(base: TensorMap, tau: TaskVector, lam: float) -> dict[str, np.ndarray]:
    """Add the scaled merged task vector back onto the base checkpoint."""
    require_compatible(base, tau.deltas, f"task vector {tau.label!r}")
    return {
        key: (base[key].astype(np.float64) + lam * tau.deltas[key].astype(np.float64)).astype(
            np.float32
        )
        for key in base
    }


def _average(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean, summed at 64-bit and stored in the first array's dtype."""
    total = np.zeros(arrays[0].shape, dtype=np.float64)
    for arr in arrays:
        total += arr
    return (total / len(arrays)).astype(arrays[0].dtype)


def simple_average(task_vectors: Sequence[TaskVector]) -> TaskVector:
    """Uniform average of the task vectors, with no trimming or election."""
    if not task_vectors:
        raise ValidationError("need at least one task vector")
    first = task_vectors[0]
    for tv in task_vectors[1:]:
        require_compatible(first.deltas, tv.deltas, f"task vector {tv.label!r}")
    deltas = {key: _average([tv.deltas[key] for tv in task_vectors]) for key in first.deltas}
    return TaskVector(label="simple_average", deltas=deltas)


def merge(
    base: TensorMap,
    tuned: Sequence[TensorMap],
    config: MergeConfig,
    labels: Sequence[str] | None = None,
) -> MergeOutput:
    """Merge fine-tuned checkpoints into one model via the configured method.

    Two passes over the layer groups, each holding one layer's ``tuned - base``
    updates at a time: the first scores conflict (not for ``simple_average``),
    the second averages the updates or trims, elects and merges them.
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

    allocation = conflict = None
    if config.method != "simple_average":
        conflict = checkpoint_conflict(base, tuned, grouping)
        alloc_config = config.allocation
        if config.method in ("uniform_sparsity", "ties"):
            # identical trim level everywhere: collapse the box onto the target
            alloc_config = replace(
                alloc_config, s_min=alloc_config.s_target, s_max=alloc_config.s_target
            )
        allocation = allocate(conflict, alloc_config)
        if not allocation.converged:
            raise ConvergenceError(
                f"budget projection did not converge within {alloc_config.max_iterations} "
                f"iterations (mean sparsity {allocation.mean_sparsity}, "
                f"target {alloc_config.s_target})"
            )

    election = config.sign_election or config.method == "ties"
    shapes = {key: base[key].shape for key in base}
    deltas: dict[str, np.ndarray] = {}
    for l, (_, members) in enumerate(grouping.groups):
        flats = layer_deltas(base, tuned, members)
        if allocation is None:
            merged_flat = _average(flats)
        else:
            flats = [sparsify_top_fraction(flat, float(allocation.s_final[l])) for flat in flats]
            merged_flat = disjoint_merge(flats, elect_signs(flats) if election else None)
        del flats  # freed before the next layer's updates are built
        deltas.update(unflatten_group(merged_flat, shapes, members))
    tau = TaskVector(label=config.method, deltas=deltas)
    return MergeOutput(
        merged=compose_merged(base, tau, config.lam),
        tau_merged=tau,
        method=config.method,
        allocation=allocation,
        conflict=conflict,
    )


def config_metadata(config: MergeConfig) -> dict[str, str]:
    """Archive metadata identifying the merge: method, lambda, config digest."""
    fields = {
        "method": config.method,
        "lambda": config.lam,
        "sign_election": config.sign_election,
        "grouping_pattern": config.grouping_pattern,
        **asdict(config.allocation),
    }
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "method": config.method,
        "lambda": repr(config.lam),
        "config_digest": digest[:16],
    }
