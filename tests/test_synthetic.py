from __future__ import annotations

import hashlib

import numpy as np
import pytest

from malsmerge import (
    MergeConfig,
    ValidationError,
    group_layers,
    merge,
    synthesize_checkpoints,
    write_synthetic_set,
)
from malsmerge.merging import plan


def test_same_seed_same_checkpoints():
    a_base, a_tuned = synthesize_checkpoints(99, 3, 50, 2, [0.8, 0.4, 0.1])
    b_base, b_tuned = synthesize_checkpoints(99, 3, 50, 2, [0.8, 0.4, 0.1])
    for name in a_base:
        np.testing.assert_array_equal(a_base[name], b_base[name])
    for a, b in zip(a_tuned, b_tuned):
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


def test_different_seed_differs():
    a_base, _ = synthesize_checkpoints(1, 2, 40, 2, [0.5, 0.5])
    b_base, _ = synthesize_checkpoints(2, 2, 40, 2, [0.5, 0.5])
    assert any(not np.array_equal(a_base[n], b_base[n]) for n in a_base)


def test_same_seed_byte_identical_files(tmp_path):
    first = write_synthetic_set(tmp_path / "a", 7, 2, 30, 2, [0.9, 0.1])
    second = write_synthetic_set(tmp_path / "b", 7, 2, 30, 2, [0.9, 0.1])
    assert first["base"].read_bytes() == second["base"].read_bytes()
    for p1, p2 in zip(first["tasks"], second["tasks"]):
        assert p1.read_bytes() == p2.read_bytes()


def test_small_set_bytes_match_the_pins(tmp_path):
    # sha256 of each file, pinned so that a change to synthesis shows here
    # rather than as a mismatch of every merge pin built on synthetic inputs
    paths = write_synthetic_set(tmp_path, 7, 3, 33, 3, [1.0, 0.4, 0.0])
    files = [paths["base"], *paths["tasks"]]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert got == {
        "base.safetensors": "046ffb9d24587cd7c573eb916efb6eb9e43a185ede71ae2e1babd5c8d2e5c2fa",
        "task_00.safetensors": "26f0a4ea5953854490181a59f639aab5a93b0965ecff387798f15e19b0831c00",
        "task_01.safetensors": "e0b9ed88fc05a80018d539453000d4a6bae7be757bb7e8e383cb843b3fd5750e",
        "task_02.safetensors": "f31e8b583bd0e9898324267bd6b0159585cde4d4806bba4a8b967504392cd266",
    }


def test_conflict_profile_orders_measured_conflict():
    base, tuned = synthesize_checkpoints(5, 2, 4000, 3, [0.9, 0.1])
    _, report, _ = plan(base, tuned, MergeConfig())
    assert report.conflict[0] > report.conflict[1]


def test_layer_grouping_matches_profile_length():
    base, _ = synthesize_checkpoints(3, 4, 10, 2, [0.1, 0.2, 0.3, 0.4])
    grouping = group_layers(base)
    assert grouping.layer_ids == ["layer.0", "layer.1", "layer.2", "layer.3"]


def test_single_task_set_still_merges(tmp_path):
    base, tuned = synthesize_checkpoints(11, 2, 20, 1, [0.5, 0.5])
    merged, conflict, _ = merge(base, tuned, MergeConfig(method="mals"))
    assert conflict is not None
    np.testing.assert_array_equal(conflict.conflict, [0.0, 0.0])
    assert set(dict(merged)) == set(base)


def test_single_element_layer():
    base, tuned = synthesize_checkpoints(13, 1, 1, 2, [0.5])
    assert set(base) == {"model.layers.0.attn.weight"}
    assert base["model.layers.0.attn.weight"].shape == (1,)
    assert len(tuned) == 2


def test_invalid_counts_rejected():
    with pytest.raises(ValidationError, match=">= 1"):
        synthesize_checkpoints(0, 0, 10, 2, [])


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        synthesize_checkpoints(-1, 1, 10, 2, [0.5])


def test_profile_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="profile"):
        synthesize_checkpoints(0, 2, 10, 2, [0.5])


def test_profile_range_checked():
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        synthesize_checkpoints(0, 1, 10, 2, [1.5])


def test_values_snap_to_dyadic_grid():
    base, tuned = synthesize_checkpoints(17, 1, 100, 2, [0.3])
    for arr in list(base.values()) + [v for t in tuned for v in t.values()]:
        scaled = arr.astype(np.float64) * 4096.0
        np.testing.assert_array_equal(scaled, np.round(scaled))
