"""Per-task weight deltas relative to a shared base checkpoint."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .archive import Archive, tensor_shapes
from .errors import ValidationError

TensorMap = Mapping[str, np.ndarray]
RangeRead = Callable[..., np.ndarray]  # read(name, start, stop, out=None), as range_reader gives it


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
    base_shapes, tuned_shapes = tensor_shapes(base), tensor_shapes(tuned)
    base_keys, tuned_keys = set(base_shapes), set(tuned_shapes)
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
        if base_shapes[key] != tuned_shapes[key]:
            return key, f"shape {tuned_shapes[key]} does not match base shape {base_shapes[key]}"
    return None


def require_compatible(reference: TensorMap, other: TensorMap, what: str) -> None:
    """Raise :class:`ValidationError` unless ``other`` has ``reference``'s keys and shapes.

    The message names ``what`` and the first offending key in sorted order.
    """
    mismatch = _first_mismatch(reference, other)
    if mismatch is not None:
        key, reason = mismatch
        raise ValidationError(f"{what} incompatible at {key!r}: {reason}")


def stored_sum(
    what: str, x: np.ndarray, scale: float, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``x + scale * y`` stored at 32-bit, into ``out`` if given, else a new array.

    The sum is the 64-bit one rounded once to 32-bit, which keeps cancellation
    noise out. Float32 ``x`` and ``y`` at ``scale`` 1 or -1 are added at 32-bit,
    which gives those bits: a sum rounded to 53 bits and then to 24 is rounded
    once (53 >= 2 * 24 + 2). Any other scale or dtype, such as ``1 + 1e-9`` and
    ``1`` in float64, is added at 64-bit and stored by the ufunc's cast into
    ``out``, with no 64-bit copy of ``x`` or of the sum. An overflow raises
    :class:`ValidationError` naming ``what``, such as ``merged tensor 'x'``.
    """
    if out is None:
        out = np.empty_like(x, dtype=np.float32)
    try:
        with np.errstate(over="raise"):
            if x.dtype == y.dtype == np.float32 and abs(scale) == 1:
                return (np.add if scale > 0 else np.subtract)(x, y, out=out)
            return np.add(x, np.multiply(y, scale, dtype=np.float64), out=out, dtype=np.float64)
    except FloatingPointError:
        raise ValidationError(f"{what} overflows 32-bit precision") from None


def range_reader(tensors: TensorMap, names: Iterable[str]) -> RangeRead:
    """``read(name, start, stop, out=None)``: entries ``[start, stop)`` of tensor ``name``, one
    of ``names``, flat. An :class:`Archive` reads just that range, into the float32 ``out`` if
    given (:meth:`Archive.read_range`); any other mapping's tensors are raveled once here, each
    keeping its dtype, and sliced, ``out`` unused."""
    if isinstance(tensors, Archive):
        return tensors.read_range
    flats = {name: np.ravel(tensors[name]) for name in names}
    return lambda name, start, stop, out=None: flats[name][start:stop]


def _pieces(offsets: Sequence[int], start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """``(i, lo, hi)`` for each member ``i`` that entries ``[start, stop)`` of a layer group's flat
    cover, in order: entries ``[lo, hi)`` of the flat, found by bisection of ``offsets``."""
    for i in range(bisect.bisect_right(offsets, start) - 1, bisect.bisect_left(offsets, stop)):
        lo, hi = max(start, offsets[i]), min(stop, offsets[i + 1])
        if lo < hi:
            yield i, lo, hi


def flat_reader(tensors: TensorMap, members: Sequence[str],
                offsets: Sequence[int]) -> Callable[[int, int], np.ndarray]:
    """``flat(start, stop)``: entries ``[start, stop)`` of the layer group's flat that ``members``
    of ``tensors`` make, end to end at ``offsets``, in a new array of the dtype that
    ``np.concatenate`` gives them. An :class:`Archive`'s pieces are read into their places, as
    float32; any other mapping's are copied there from :func:`range_reader`'s slices."""
    read = range_reader(tensors, members)
    archive = isinstance(tensors, Archive)
    dtype = np.float32 if archive else np.result_type(*(np.asarray(tensors[name]).dtype for name in members))

    def flat(start: int, stop: int) -> np.ndarray:
        out = np.empty(stop - start, dtype)
        for i, lo, hi in _pieces(offsets, start, stop):
            piece = out[lo - start:hi - start]
            values = read(members[i], lo - offsets[i], hi - offsets[i], out=piece)
            if not archive:
                piece[...] = values
        return out

    return flat


def update_range(read: RangeRead, members: Sequence[str], offsets: Sequence[int], start: int, b: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """A checkpoint's float32 update ``tuned - base`` (:func:`stored_sum`) over entries ``[start,
    start + len(b))`` of a layer group's flat, whose ``members`` lie end to end at ``offsets``
    (:func:`grouping.member_offsets`), into ``out`` if given, else a new array. ``b`` holds the
    base's entries there; each member piece in the range is read through ``read`` into its place
    in ``out`` where the reader can (an archive's), and the base subtracted there, so no raw
    piece is held beside ``out``. Callers check compatibility first."""
    out = np.empty(len(b), np.float32) if out is None else out
    for i, lo, hi in _pieces(offsets, start, start + len(b)):
        what, piece = f"update of tensor {members[i]!r}", slice(lo - start, hi - start)
        raw = read(members[i], lo - offsets[i], hi - offsets[i], out=out[piece])
        stored_sum(what, raw, -1, b[piece], out=out[piece])
    return out


def compute_task_vector(base: TensorMap, tuned: TensorMap, label: str) -> TaskVector:
    """Subtract the base from a fine-tuned checkpoint, tensor by tensor."""
    require_compatible(base, tuned, f"checkpoint {label!r}")
    deltas = {key: stored_sum(f"update of tensor {key!r}", tuned[key], -1, base[key]) for key in base}
    return TaskVector(label=label, deltas=deltas)


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
