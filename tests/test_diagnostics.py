from __future__ import annotations

import csv
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from malsmerge import (
    AllocationConfig,
    ConflictReport,
    LayerDiagnostics,
    MergeConfig,
    ValidationError,
    allocate,
    synthesize_checkpoints,
    write_archive,
)
from malsmerge.merging import plan

GOLDEN = Path(__file__).parent / "golden"


def _diag(seed=0, layers=5, method="mals"):
    rng = np.random.default_rng(seed)
    report = ConflictReport(
        layer_ids=tuple(f"layer.{i}" for i in range(layers)),
        conflict=rng.random(layers),
        importance=rng.random(layers),
        task_pairs=(),
        rho_abs=np.zeros((0, layers)),
        sign_disagreement=np.zeros((0, layers)),
    )
    allocation = allocate(report, AllocationConfig())
    return LayerDiagnostics.from_results(report, allocation, method), allocation


def test_row_count_and_globals():
    diag, allocation = _diag(layers=7)
    assert len(diag.rows) == 7
    assert diag.method == "mals"
    assert diag.iterations == allocation.iterations
    assert diag.converged == allocation.converged


def test_mismatched_layers_rejected():
    _, four_layers = _diag(layers=4)
    report = ConflictReport(
        layer_ids=("layer.0",), conflict=np.zeros(1), importance=np.zeros(1),
        task_pairs=(), rho_abs=np.zeros((0, 1)), sign_disagreement=np.zeros((0, 1)),
    )
    with pytest.raises(ValidationError, match="cover different layers"):
        LayerDiagnostics.from_results(report, four_layers, "mals")


def test_unknown_report_format_rejected(tmp_path):
    diag, _ = _diag()
    with pytest.raises(ValidationError, match="report format must be one of"):
        diag.write(tmp_path / "r.xml", "xml")
    assert list(tmp_path.iterdir()) == []


def test_mean_sparsity_matches_allocator():
    diag, allocation = _diag(seed=3)
    assert abs(diag.mean_sparsity - float(np.mean(allocation.s_final))) < 1e-12


def test_json_and_csv_hold_identical_values():
    diag, _ = _diag(seed=5)
    parsed = json.loads(diag.to_json())
    rows = list(csv.DictReader(diag.to_csv().splitlines()))
    assert len(rows) == len(parsed["layers"])
    for json_row, csv_row in zip(parsed["layers"], rows):
        assert csv_row["layer_id"] == json_row["layer_id"]
        for field in ("c", "m", "c_hat", "m_hat", "r", "w", "s_initial", "s_final"):
            assert float(csv_row[field]) == json_row[field]
        assert float(csv_row["mean_sparsity"]) == parsed["mean_sparsity"]
        assert (csv_row["converged"] == "true") == parsed["converged"]
        assert int(csv_row["iterations"]) == parsed["iterations"]
        assert csv_row["method"] == parsed["method"]


def test_csv_uses_fixed_header_and_dot_decimals():
    diag, _ = _diag()
    lines = diag.to_csv().splitlines()
    assert lines[0] == (
        "layer_id,c,m,c_hat,m_hat,r,w,s_initial,s_final,"
        "method,iterations,converged,mean_sparsity"
    )
    assert "," == lines[1][len("layer.0")]
    for line in lines[1:]:
        assert ";" not in line


def test_readme_documents_the_csv_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    diag, _ = _diag()
    assert f"`{diag.to_csv().splitlines()[0]}`" in readme


def test_write_json_and_csv(tmp_path):
    diag, _ = _diag()
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    diag.write(json_path, "json")
    diag.write(csv_path, "csv")
    assert json.loads(json_path.read_text())["layers"]
    assert csv_path.read_text().startswith("layer_id,")


@pytest.mark.parametrize(
    "name, seed, layers, tasks, profile",
    [
        ("three_tasks", 3, 3, 3, [0.8, 0.2, 0.5]),
        ("one_layer", 5, 1, 3, [0.6]),
        ("one_task", 7, 3, 1, [0.8, 0.2, 0.5]),  # no task pairs
    ],
    ids=["three_tasks", "one_layer", "one_task"],
)
def test_report_text_matches_pinned(name, seed, layers, tasks, profile):
    base, tuned = synthesize_checkpoints(seed, layers, 64, tasks, profile)
    _, conflict, allocation = plan(base, tuned, MergeConfig())
    diag = LayerDiagnostics.from_results(conflict, allocation, "mals")
    assert diag.to_json() == (GOLDEN / f"report_{name}.json").read_text(encoding="utf-8")
    assert diag.to_csv() == (GOLDEN / f"report_{name}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_written_files_take_the_umask_mode(tmp_path, umask, mode):
    diag, _ = _diag()
    previous = os.umask(umask)
    try:
        write_archive({"w": np.ones(3, dtype=np.float32)}, tmp_path / "m.st")
        diag.write(tmp_path / "report.json", "json")
    finally:
        os.umask(previous)
    for name in ("m.st", "report.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
