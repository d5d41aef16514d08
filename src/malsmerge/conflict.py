"""Per-layer inter-task conflict and importance statistics.

Conflict per layer is the mean over task pairs of half the absolute Pearson
correlation plus half the sign-disagreement ratio of the flattened layer
updates; importance is the mean absolute update magnitude averaged over
tasks. All accumulation happens at 64-bit: layer groups can exceed 1e7
elements and 32-bit sums lose the signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .grouping import LayerGrouping, flatten_group
from .task_vectors import TaskVector, TensorMap, layer_deltas


@dataclass(frozen=True)
class PairConflict:
    """Per-layer conflict detail for one (i, j) task pair, i < j."""

    task_pair: tuple[int, int]
    per_layer_rho_abs: np.ndarray
    per_layer_sign_disagreement: np.ndarray


@dataclass(frozen=True)
class ConflictReport:
    layer_ids: tuple[str, ...]
    conflict: np.ndarray
    importance: np.ndarray
    pairs: tuple[PairConflict, ...]


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be flat vectors")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x, y


def _center(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Float64 deviations from the mean and their sum of squares."""
    # np.sum keeps the reduction order fixed regardless of thread count,
    # unlike BLAS-backed dot products.
    dx = x.astype(np.float64) - np.sum(x, dtype=np.float64) / len(x)
    return dx, float(np.sum(dx * dx))


def _pearson_centered(dx: np.ndarray, var_x: float, dy: np.ndarray, var_y: float) -> float:
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    prod = var_x * var_y
    if 0.0 < prod < np.inf:
        den = np.sqrt(prod)  # sqrt(v*v) == v, so x == y lands exactly on 1
    else:
        den = np.sqrt(var_x) * np.sqrt(var_y)  # product under/overflowed
    rho = np.sum(dx * dy) / den
    return min(abs(float(rho)), 1.0)


_Signs = tuple[np.ndarray, np.ndarray, int]


def _signs(x: np.ndarray) -> _Signs:
    """Positive mask, negative mask and nonzero count of one vector."""
    return x > 0, x < 0, int(np.count_nonzero(x))


def _disagreement(sx: _Signs, sy: _Signs) -> float:
    (pos_x, neg_x, nonzero_x), (pos_y, neg_y, nonzero_y) = sx, sy
    opposite = int(np.count_nonzero(pos_x & neg_y) + np.count_nonzero(neg_x & pos_y))
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


def _importance(flats: Sequence[np.ndarray]) -> float:
    total = 0.0
    for flat in flats:
        total += float(np.sum(np.abs(flat), dtype=np.float64) / len(flat)) if len(flat) else 0.0
    return total / len(flats)


def layer_importance(task_vectors: Sequence[TaskVector], grouping: LayerGrouping) -> np.ndarray:
    """Mean absolute task-vector magnitude per layer, averaged over tasks."""
    _check_names(task_vectors, grouping)
    return np.array(
        [
            _importance([flatten_group(tv.deltas, members) for tv in task_vectors])
            for _, members in grouping.groups
        ],
        dtype=np.float64,
    )


def _score_layer(
    flats: Sequence[np.ndarray], task_pairs: Sequence[tuple[int, int]]
) -> tuple[float, list[float], list[float]]:
    """Importance, then |rho| and sign disagreement per task pair, of one layer group.

    Each task's flat update is centred and sign-masked once; every pair is
    scored from those values.
    """
    importance = _importance(flats)
    if not task_pairs or not len(flats[0]):
        return importance, [0.0] * len(task_pairs), [0.0] * len(task_pairs)
    centered = [_center(flat) for flat in flats]
    signs = [_signs(flat) for flat in flats]
    rho = [_pearson_centered(*centered[i], *centered[j]) for i, j in task_pairs]
    dis = [_disagreement(signs[i], signs[j]) for i, j in task_pairs]
    return importance, rho, dis


def _score_layers(
    layer_ids: Sequence[str], n_tasks: int, layer_flats: Iterable[Sequence[np.ndarray]]
) -> ConflictReport:
    """Score each layer's flat per-task updates, in ``layer_ids`` order.

    ``layer_flats`` yields one layer at a time; each is dropped before the
    next is built, so memory grows with the largest layer, not the model.
    """
    n_layers = len(layer_ids)
    task_pairs = list(combinations(range(n_tasks), 2))
    rho = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    dis = np.zeros((len(task_pairs), n_layers), dtype=np.float64)
    importance = np.zeros(n_layers, dtype=np.float64)
    layer_flats = iter(layer_flats)
    for l in range(n_layers):
        # next() inside the call: no loop variable holds the previous layer
        importance[l], rho[:, l], dis[:, l] = _score_layer(next(layer_flats), task_pairs)

    pairs = tuple(
        PairConflict(task_pair=pair, per_layer_rho_abs=rho[k], per_layer_sign_disagreement=dis[k])
        for k, pair in enumerate(task_pairs)
    )
    conflict = np.zeros(n_layers, dtype=np.float64)
    if pairs:
        for pair in pairs:  # fixed pair order keeps the reduction bit-stable
            conflict += 0.5 * pair.per_layer_rho_abs + 0.5 * pair.per_layer_sign_disagreement
        conflict /= len(pairs)

    return ConflictReport(tuple(layer_ids), conflict=conflict, importance=importance, pairs=pairs)


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
    return _score_layers(grouping.layer_ids, len(task_vectors), layer_flats)


def checkpoint_conflict(
    base: TensorMap, tuned: Sequence[TensorMap], grouping: LayerGrouping
) -> ConflictReport:
    """:func:`layer_conflict` of ``tuned - base``, built per layer; keys and shapes must match."""
    layer_flats = (layer_deltas(base, tuned, members) for _, members in grouping.groups)
    return _score_layers(grouping.layer_ids, len(tuned), layer_flats)
