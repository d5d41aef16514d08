"""Deterministic synthetic checkpoint sets with controllable layer conflict.

Each layer's task deltas mix an independent Gaussian component with a shared
pattern whose sign alternates across tasks; the per-layer mixing weight is
the requested conflict level, so measured conflict increases monotonically
with it. All values are snapped to a dyadic grid (multiples of 2**-12) so
that float32 archives round-trip bit-exactly and delta recovery and
recomposition are exact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import write_archive
from .errors import ValidationError
from .grouping import unflatten_group

_GRID = 4096.0  # 2**12
_DELTA_SCALE = 0.02


def _snap(values: np.ndarray) -> np.ndarray:
    """The float64 ``values`` rounded to the grid, as float32; ``values`` is overwritten."""
    values *= _GRID
    np.rint(values, out=values)  # np.round at 0 decimals, without an array of its own
    values /= _GRID
    return values.astype(np.float32)


def _layer_shapes(layer: int, elems: int) -> dict[str, tuple[int]]:
    attn, mlp = f"model.layers.{layer}.attn.weight", f"model.layers.{layer}.mlp.weight"
    if elems < 2:
        return {attn: (elems,)}
    return {attn: (elems - elems // 2,), mlp: (elems // 2,)}


def synthesize_checkpoints(
    seed: int,
    num_layers: int,
    elems_per_layer: int,
    num_tasks: int,
    conflict_profile: Sequence[float],
) -> tuple[dict[str, np.ndarray], list[dict[str, np.ndarray]]]:
    """Generate a base checkpoint and ``num_tasks`` tuned variants.

    ``conflict_profile`` holds one target in [0, 1] per layer; layers with a
    higher target realize a higher measured conflict score. Identical seeds
    yield identical checkpoints.
    """
    if num_layers < 1 or elems_per_layer < 1 or num_tasks < 1:
        raise ValidationError("layer, element, and task counts must all be >= 1")
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    profile = [float(p) for p in conflict_profile]
    if len(profile) != num_layers:
        raise ValidationError(
            f"conflict profile has {len(profile)} entries for {num_layers} layers"
        )
    if any(not 0.0 <= p <= 1.0 for p in profile):
        raise ValidationError("conflict targets must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    base: dict[str, np.ndarray] = {}
    tuned: list[dict[str, np.ndarray]] = [{} for _ in range(num_tasks)]
    scaled = np.empty(elems_per_layer)  # each task's share of the shared pattern
    for layer, mix in enumerate(profile):
        shapes = _layer_shapes(layer, elems_per_layer)
        base_flat = _snap(rng.normal(0.0, 1.0, elems_per_layer))
        shared = rng.normal(0.0, 1.0, elems_per_layer)
        for task in range(num_tasks):
            own = rng.normal(0.0, 1.0, elems_per_layer)
            flip = 1.0 if task % 2 == 0 else -1.0
            # _DELTA_SCALE * (sqrt(1 - mix) * own + sqrt(mix) * flip * shared), in own's buffer
            own *= np.sqrt(1.0 - mix)
            own += np.multiply(shared, np.sqrt(mix) * flip, out=scaled)
            own *= _DELTA_SCALE
            delta = _snap(own)
            # grid values stay exact under float32 addition
            tuned_flat = base_flat + delta
            tuned[task].update(unflatten_group(tuned_flat, shapes, shapes))
        base.update(unflatten_group(base_flat, shapes, shapes))
    return base, tuned


def write_synthetic_set(
    out_dir: str | Path,
    seed: int,
    num_layers: int,
    elems_per_layer: int,
    num_tasks: int,
    conflict_profile: Sequence[float],
) -> dict[str, object]:
    """Generate and write a synthetic set; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base, tuned = synthesize_checkpoints(
        seed, num_layers, elems_per_layer, num_tasks, conflict_profile
    )
    base_path = out / "base.safetensors"
    write_archive(base, base_path)
    task_paths = []
    for i, checkpoint in enumerate(tuned):
        path = out / f"task_{i:02d}.safetensors"
        write_archive(checkpoint, path)
        task_paths.append(path)
    return {"base": base_path, "tasks": task_paths}
