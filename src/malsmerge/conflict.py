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
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .grouping import LayerGrouping, flatten_group
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


def _deviations(x: np.ndarray) -> tuple[np.ndarray, float]:
    # np.sum keeps the reduction order fixed regardless of thread count,
    # unlike BLAS-backed dot products.
    dx = np.subtract(x, np.sum(x, dtype=np.float64) / len(x), dtype=np.float64)
    return dx, float(np.sum(dx * dx))


def _center(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Float64 deviations from the mean and their sum of squares. A nonzero sum
    outside [2**-500, 2**500], which no float32 input reaches, is taken again
    from ``x`` scaled exactly by a power of two to a peak in [0.5, 1): the scale
    cancels in a correlation, and a product of two such sums stays normal.

    A vector whose entries are all equal has deviations of exactly 0: its
    computed mean may be off by rounding, so a sum of squares small enough to
    be that rounding is followed by an exact check."""
    with np.errstate(over="ignore", invalid="ignore"):
        dx, var = _deviations(x)
    if not 2.0**-500 <= var <= 2.0**500 and dx.any():
        x = x.astype(np.float64)
        x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
        dx, var = _deviations(x)
    # a constant vector's deviations are rounding, far under 2**-30 of its entries: only
    # a sum of squares that small is worth the exact check's pass
    if math.sqrt(var / len(x)) <= 2.0**-30 * abs(float(x[0])) and np.all(x == x[0]):
        return np.zeros_like(dx), 0.0
    return dx, var


def _pearson_centered(dx: np.ndarray, var_x: float, dy: np.ndarray, var_y: float) -> float:
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    # sqrt(v*v) == v, so x == y lands exactly on 1
    rho = np.sum(dx * dy) / np.sqrt(var_x * var_y)
    return min(abs(float(rho)), 1.0)


_Signs = tuple[np.ndarray, np.ndarray, int]


def _signs(x: np.ndarray) -> _Signs:
    """Positive and negative masks, packed with padding bits 0, and nonzero count of one vector."""
    return np.packbits(x > 0), np.packbits(x < 0), int(np.count_nonzero(x))


def _disagreement(sx: _Signs, sy: _Signs) -> float:
    (pos_x, neg_x, nonzero_x), (pos_y, neg_y, nonzero_y) = sx, sy
    # the two sets are disjoint, as pos_x and neg_x are, so one count of their union is exact
    opposite = int(np.count_nonzero(np.unpackbits((pos_x & neg_y) | (neg_x & pos_y))))
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
    is built. Every sum over tasks or pairs goes through here: ``np.sum(axis=0)`` adds pairwise."""
    total = np.zeros(shape, dtype=dtype)
    for row in rows:
        total += row
        del row
    return total


def _score_layer(
    flats: Iterable[np.ndarray], task_pairs: Sequence[tuple[int, int]]
) -> tuple[float, list[float], list[float]]:
    """Importance, then |rho| and sign disagreement per task pair, of one layer group.

    Each task's flat update gives its mean magnitude, its deviations and its packed
    signs, and is dropped before the next is taken; every pair is scored from those.
    """
    means, centered, signs = [], [], []
    for flat in flats:
        means.append(np.sum(np.abs(flat), dtype=np.float64) / len(flat) if len(flat) else 0.0)
        if task_pairs and len(flat):
            centered.append(_center(flat))
            signs.append(_signs(flat))
        del flat
    importance = float(task_order_sum(means, ())) / len(means)
    if not centered:
        return importance, [0.0] * len(task_pairs), [0.0] * len(task_pairs)
    rho = [_pearson_centered(*centered[i], *centered[j]) for i, j in task_pairs]
    dis = [_disagreement(signs[i], signs[j]) for i, j in task_pairs]
    return importance, rho, dis


def score_layers(
    layer_ids: Sequence[str], n_tasks: int, layer_flats: Iterable[Sequence[np.ndarray]]
) -> ConflictReport:
    """Score each layer's flat per-task updates, in ``layer_ids`` order.

    ``layer_flats`` yields one layer at a time; each is dropped before the
    next is built, so memory grows with the largest layer, not the model.
    """
    n_layers = len(layer_ids)
    task_pairs = tuple(combinations(range(n_tasks), 2))
    rho = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    dis = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    importance = np.zeros(n_layers, dtype=np.float64)
    layer_flats = iter(layer_flats)
    for l in range(n_layers):
        # next() inside the call: no loop variable holds the previous layer
        importance[l], rho[:, l], dis[:, l] = _score_layer(next(layer_flats), task_pairs)

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
    layer_flats = (
        [flatten_group(tv.deltas, members) for tv in task_vectors] for _, members in grouping.groups
    )
    return score_layers(grouping.layer_ids, len(task_vectors), layer_flats)
