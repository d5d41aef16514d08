"""Per-task weight deltas relative to a shared base checkpoint."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .grouping import flatten_group

TensorMap = Mapping[str, np.ndarray]


@dataclass
class TaskVector:
    """Named per-tensor difference between a fine-tuned checkpoint and its base."""

    label: str
    deltas: dict[str, np.ndarray]


@dataclass(frozen=True)
class CompatibilityEntry:
    label: str
    ok: bool
    first_mismatch: str | None = None
    reason: str | None = None


@dataclass(frozen=True)
class CompatibilityReport:
    entries: tuple[CompatibilityEntry, ...] = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def _first_mismatch(base: TensorMap, tuned: TensorMap) -> tuple[str, str] | None:
    """Return (key, reason) for the first incompatibility in sorted key order."""
    base_keys, tuned_keys = set(base), set(tuned)
    if base_keys != tuned_keys:
        missing = sorted(base_keys - tuned_keys)
        extra = sorted(tuned_keys - base_keys)
        parts = []
        if missing:
            parts.append(f"checkpoint lacks {missing}")
        if extra:
            parts.append(f"base lacks {extra}")
        return min(missing + extra), "; ".join(parts)
    for key in sorted(base_keys):
        if base[key].shape != tuned[key].shape:
            return key, f"shape {tuned[key].shape} does not match base shape {base[key].shape}"
    return None


def require_compatible(reference: TensorMap, other: TensorMap, what: str) -> None:
    """Raise :class:`ValidationError` unless ``other`` has ``reference``'s keys and shapes.

    The message names ``what`` and the first offending key in sorted order.
    """
    mismatch = _first_mismatch(reference, other)
    if mismatch is not None:
        key, reason = mismatch
        raise ValidationError(f"{what} incompatible at {key!r}: {reason}")


def _delta(base: np.ndarray, tuned: np.ndarray) -> np.ndarray:
    """``tuned - base``, subtracted at 64-bit to keep cancellation noise out, stored at 32-bit."""
    return (tuned.astype(np.float64) - base.astype(np.float64)).astype(np.float32)


def compute_task_vector(base: TensorMap, tuned: TensorMap, label: str) -> TaskVector:
    """Subtract the base from a fine-tuned checkpoint, tensor by tensor."""
    require_compatible(base, tuned, f"checkpoint {label!r}")
    return TaskVector(label=label, deltas={key: _delta(base[key], tuned[key]) for key in base})


def layer_deltas(
    base: TensorMap, tuned: Sequence[TensorMap], members: Sequence[str]
) -> list[np.ndarray]:
    """Each checkpoint's update on one layer group, flattened as :func:`flatten_group` does.

    Equals flattening :func:`compute_task_vector`'s deltas, without building
    them for the rest of the model. Callers check compatibility first.
    """
    return [
        flatten_group({name: _delta(base[name], t[name]) for name in members}, members)
        for t in tuned
    ]


def validate_compatibility(base: TensorMap, tuned_list: Sequence[TensorMap],
                           labels: Sequence[str] | None = None) -> CompatibilityReport:
    """Check each tuned checkpoint against the base's keys and shapes.

    Failures become report entries naming the first offending key; only an
    empty ``tuned_list`` raises.
    """
    if not tuned_list:
        raise ValidationError("tuned_list must contain at least one checkpoint")
    if labels is None:
        labels = [f"task-{i}" for i in range(len(tuned_list))]
    elif len(labels) != len(tuned_list):
        raise ValidationError(
            f"{len(labels)} labels provided for {len(tuned_list)} checkpoints"
        )
    entries = []
    for label, tuned in zip(labels, tuned_list):
        mismatch = _first_mismatch(base, tuned)
        if mismatch is None:
            entries.append(CompatibilityEntry(label=label, ok=True))
        else:
            key, reason = mismatch
            entries.append(CompatibilityEntry(label=label, ok=False, first_mismatch=key, reason=reason))
    return CompatibilityReport(entries=tuple(entries))
