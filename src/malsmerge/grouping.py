"""Partition tensor names into layer groups and flatten groups to vectors."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError

# Captures the digit run after a "layers." path segment; everything else
# (embeddings, heads, norms) pools into one shared "ungrouped" allocation.
DEFAULT_GROUPING_PATTERN = r"(?:^|\.)layers\.(\d+)(?:\.|$)"

UNGROUPED = "ungrouped"


@dataclass(frozen=True)
class LayerGrouping:
    """Ordered partition of tensor names into layer groups.

    Group ids are ``layer.<capture>``: all-decimal captures first, by number
    and then by text (``03`` before ``3``), then the other captures by text,
    and ``ungrouped`` last.
    Member lists are lexicographically sorted.
    """

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def layer_ids(self) -> list[str]:
        return [gid for gid, _ in self.groups]

    def __len__(self) -> int:
        return len(self.groups)


def _group_sort_key(capture: str) -> tuple[int, int, str, str]:
    if capture.isdecimal():  # isdigit() also passes "²", which has no decimal value
        # the number's order without int(), which refuses more than 4,300 digits
        digits = "".join(str(unicodedata.decimal(c)) for c in capture).lstrip("0")
        return (0, len(digits), digits, capture)
    return (1, 0, "", capture)


def compile_grouping(pattern: str) -> re.Pattern[str]:
    """Compile a grouping pattern, or raise unless it is valid with one capture group."""
    try:
        rx = re.compile(pattern)
    except re.error as exc:
        raise ValidationError(f"invalid grouping pattern: {exc}") from exc
    if rx.groups != 1:
        raise ValidationError(
            f"grouping pattern must contain exactly one capture group, found {rx.groups}"
        )
    return rx


def group_layers(
    tensors: Mapping[str, np.ndarray] | Sequence[str],
    pattern: str = DEFAULT_GROUPING_PATTERN,
) -> LayerGrouping:
    """Partition tensor names by the pattern's single capture group.

    A name whose match captures text ``X`` joins group ``layer.X``; all
    non-matching names join ``ungrouped``.
    """
    rx = compile_grouping(pattern)
    by_capture: dict[str, list[str]] = {}
    leftover: list[str] = []
    for name in tensors:
        m = rx.search(name)
        if m is not None and m.group(1) is not None:
            by_capture.setdefault(m.group(1), []).append(name)
        else:
            leftover.append(name)

    groups: list[tuple[str, tuple[str, ...]]] = [
        (f"layer.{capture}", tuple(sorted(by_capture[capture])))
        for capture in sorted(by_capture, key=_group_sort_key)
    ]
    if leftover:
        groups.append((UNGROUPED, tuple(sorted(leftover))))
    return LayerGrouping(groups=tuple(groups))


def flatten_group(tensors: Mapping[str, np.ndarray], members: Sequence[str]) -> np.ndarray:
    """Concatenate member tensors row-major, in lexicographic name order."""
    missing = [name for name in members if name not in tensors]
    if missing:
        raise ValidationError(f"names missing from tensor map: {sorted(missing)}")
    ordered = sorted(members)
    if not ordered:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate([np.ravel(tensors[name]) for name in ordered])


def member_offsets(shapes: Mapping[str, tuple[int, ...]], members: Sequence[str]) -> list[int]:
    """Where each of ``members`` starts in its layer group's flat, in ``members`` order,
    then the flat's length: the one rule that lays a group's members end to end."""
    return np.cumsum([0, *(np.prod(shapes[name], dtype=np.int64) for name in members)]).tolist()


def unflatten_group(
    flat: np.ndarray,
    shapes: Mapping[str, tuple[int, ...]],
    members: Sequence[str],
) -> dict[str, np.ndarray]:
    """Reverse :func:`flatten_group`, slicing ``flat`` back into named tensors."""
    missing = [name for name in members if name not in shapes]
    if missing:
        raise ValidationError(f"names missing from shape map: {sorted(missing)}")
    ordered = sorted(members)
    offsets = member_offsets(shapes, ordered)
    if offsets[-1] != len(flat):
        raise ValidationError(
            f"flat vector holds {len(flat)} values, member shapes demand {offsets[-1]}"
        )
    return {name: np.asarray(flat[start:stop]).reshape(shapes[name])
            for name, start, stop in zip(ordered, offsets, offsets[1:])}
