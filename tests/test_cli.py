from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from malsmerge import (
    AllocationConfig,
    MergeConfig,
    read_archive,
    write_archive,
    write_synthetic_set,
)
from malsmerge.cli import _CONFIG_KEYS, load_run_config, run


@pytest.fixture()
def synth_dir(tmp_path):
    write_synthetic_set(tmp_path, seed=21, num_layers=3, elems_per_layer=64,
                        num_tasks=3, conflict_profile=[0.8, 0.5, 0.2])
    return tmp_path


def _config(tmp_path, synth_dir, **overrides):
    cfg = {
        "base_path": str(synth_dir / "base.safetensors"),
        "tuned_paths": [
            {"path": str(synth_dir / f"task_{i:02d}.safetensors"), "label": f"task{i}"}
            for i in range(3)
        ],
        "output_path": str(tmp_path / "merged.safetensors"),
        "report_path": str(tmp_path / "report.json"),
        "method": "mals",
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_merge_happy_path(tmp_path, synth_dir, capsys):
    code = run(["merge", "--config", str(_config(tmp_path, synth_dir))])
    assert code == 0
    merged = read_archive(tmp_path / "merged.safetensors")
    assert set(merged) == set(read_archive(synth_dir / "base.safetensors"))
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["layers"]) == 3
    assert report["converged"] is True
    assert "merged 3 checkpoints" in capsys.readouterr().out


def test_merge_writes_method_metadata(tmp_path, synth_dir):
    run(["merge", "--config", str(_config(tmp_path, synth_dir))])
    from malsmerge import archive_info

    _, metadata = archive_info(tmp_path / "merged.safetensors")
    assert metadata["method"] == "mals"
    assert "config_digest" in metadata


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_is_usage_error():
    assert run(["merge"]) == 1


@pytest.mark.parametrize(
    "key, value", [("lambda_scale", 2.0), ("seed", 0)], ids=["lambda_scale", "seed"]
)
def test_unknown_config_key_is_validation_error(tmp_path, synth_dir, capsys, key, value):
    code = run(["merge", "--config", str(_config(tmp_path, synth_dir, **{key: value}))])
    assert code == 2
    assert key in capsys.readouterr().err


def test_shape_mismatch_names_tensor_and_exits_2(tmp_path, synth_dir, capsys):
    bad = read_archive(synth_dir / "task_00.safetensors")
    bad["model.layers.0.attn.weight"] = np.zeros((2, 2), dtype=np.float32)
    write_archive(bad, synth_dir / "task_00.safetensors")
    code = run(["merge", "--config", str(_config(tmp_path, synth_dir))])
    assert code == 2
    assert "model.layers.0.attn.weight" in capsys.readouterr().err


def test_analyze_shape_mismatch_names_checkpoint_and_exits_2(tmp_path, synth_dir, capsys):
    bad = read_archive(synth_dir / "task_01.safetensors")
    bad["model.layers.0.attn.weight"] = np.zeros((2, 2), dtype=np.float32)
    write_archive(bad, synth_dir / "task_01.safetensors")
    base = str(synth_dir / "base.safetensors")
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    out = tmp_path / "a.json"
    assert run(["analyze", "--base", base, "--tuned", *tuned, "--out", str(out)]) == 2
    assert "checkpoint 'task_01' incompatible at 'model.layers.0.attn.weight'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_absent_config_keys_take_the_dataclass_defaults(tmp_path, synth_dir):
    cfg = json.loads(_config(tmp_path, synth_dir).read_text())
    del cfg["method"]
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(cfg))
    assert load_run_config(path).merge_config == MergeConfig()
    cfg.update({"alpha": 2, "max_iterations": 7, "lambda": 1, "sign_election": True})
    path.write_text(json.dumps(cfg))
    merge_config = load_run_config(path).merge_config
    assert merge_config.allocation == AllocationConfig(alpha=2.0, max_iterations=7)
    assert type(merge_config.allocation.alpha) is float and type(merge_config.lam) is float
    assert merge_config.sign_election is True


@pytest.mark.parametrize(
    "key, target",
    [
        ("output_path", "base.safetensors"),
        ("output_path", "task_01.safetensors"),
        ("output_path", "elsewhere/../base.safetensors"),
        ("report_path", "base.safetensors"),
        ("report_path", "task_02.safetensors"),
        ("report_path", "merged.safetensors"),
    ],
    ids=["output_path-base", "output_path-task", "output_path-base-respelled",
         "report_path-base", "report_path-task", "report_path-output"],
)
def test_output_colliding_with_input_rejected(tmp_path, synth_dir, key, target):
    (synth_dir / "elsewhere").mkdir()
    paths = {"output_path": str(synth_dir / "merged.safetensors"), key: str(synth_dir / target)}
    cfg = _config(tmp_path, synth_dir, **paths)
    inputs = sorted(synth_dir.glob("*.safetensors"))
    before = [path.read_bytes() for path in inputs]
    assert run(["merge", "--config", str(cfg)]) == 2
    assert [path.read_bytes() for path in inputs] == before
    assert not (synth_dir / "merged.safetensors").exists()


def test_nonconvergence_exits_3(tmp_path, synth_dir, capsys):
    cfg = _config(
        tmp_path, synth_dir,
        epsilon=1e-15, max_iterations=1, s_min=0.0, s_max=1.0, s_target=0.37,
    )
    code = run(["merge", "--config", str(cfg)])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_simple_average_skips_report_with_warning(tmp_path, synth_dir, capsys):
    cfg = _config(tmp_path, synth_dir, method="simple_average")
    assert run(["merge", "--config", str(cfg)]) == 0
    assert not (tmp_path / "report.json").exists()
    assert "skipping report" in capsys.readouterr().err


def test_analyze_json_csv_parity(tmp_path, synth_dir):
    base = str(synth_dir / "base.safetensors")
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    json_out = tmp_path / "a.json"
    csv_out = tmp_path / "a.csv"
    assert run(["analyze", "--base", base, "--tuned", *tuned, "--out", str(json_out)]) == 0
    assert run([
        "analyze", "--base", base, "--tuned", *tuned, "--format", "csv", "--out", str(csv_out),
    ]) == 0
    parsed = json.loads(json_out.read_text())
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert len(rows) == len(parsed["layers"]) == 3
    for json_row, csv_row in zip(parsed["layers"], rows):
        for field in ("c", "m", "c_hat", "m_hat", "r", "w", "s_initial", "s_final"):
            assert float(csv_row[field]) == json_row[field]


def test_analyze_rows_match_merge_report(tmp_path, synth_dir):
    base = str(synth_dir / "base.safetensors")
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    analyze_out = tmp_path / "analyze.json"
    assert run(["analyze", "--base", base, "--tuned", *tuned, "--out", str(analyze_out)]) == 0
    assert run(["merge", "--config", str(_config(tmp_path, synth_dir))]) == 0
    analyze_rows = json.loads(analyze_out.read_text())["layers"]
    merge_rows = json.loads((tmp_path / "report.json").read_text())["layers"]
    assert analyze_rows == merge_rows


def test_analyze_identical_checkpoints_score_half(tmp_path, synth_dir):
    base = str(synth_dir / "base.safetensors")
    tuned = str(synth_dir / "task_00.safetensors")
    out = tmp_path / "a.json"
    assert run(["analyze", "--base", base, "--tuned", tuned, tuned, "--out", str(out)]) == 0
    for row in json.loads(out.read_text())["layers"]:
        assert row["c"] == pytest.approx(0.5, abs=1e-9)


def test_analyze_single_task_zero_conflict(tmp_path, synth_dir):
    base = str(synth_dir / "base.safetensors")
    tuned = str(synth_dir / "task_00.safetensors")
    out = tmp_path / "a.json"
    assert run(["analyze", "--base", base, "--tuned", tuned, "--out", str(out)]) == 0
    for row in json.loads(out.read_text())["layers"]:
        assert row["c"] == 0.0


def test_diff_writes_task_vector(tmp_path, synth_dir):
    out = tmp_path / "tau.safetensors"
    code = run([
        "diff",
        "--base", str(synth_dir / "base.safetensors"),
        "--tuned", str(synth_dir / "task_01.safetensors"),
        "--out", str(out),
    ])
    assert code == 0
    base = read_archive(synth_dir / "base.safetensors")
    tuned = read_archive(synth_dir / "task_01.safetensors")
    tau = read_archive(out)
    for name in base:
        np.testing.assert_array_equal(
            tau[name], (tuned[name].astype(np.float64) - base[name]).astype(np.float32)
        )


def test_info_lists_tensors(synth_dir, capsys):
    assert run(["info", "--archive", str(synth_dir / "base.safetensors")]) == 0
    out = capsys.readouterr().out
    assert "model.layers.0.attn.weight" in out
    assert "F32" in out
    assert "6 tensors" in out


def test_info_missing_file_exits_2(tmp_path, capsys):
    assert run(["info", "--archive", str(tmp_path / "nope.st")]) == 2


def test_synth_cli_round_trip(tmp_path):
    code = run([
        "synth", "--seed", "3", "--layers", "2", "--elems", "16", "--tasks", "2",
        "--conflict", "0.7,0.2", "--out-dir", str(tmp_path / "synth"),
    ])
    assert code == 0
    tensors = read_archive(tmp_path / "synth" / "base.safetensors")
    assert len(tensors) == 4


def test_synth_bad_profile_exits_2(tmp_path, capsys):
    code = run([
        "synth", "--seed", "3", "--layers", "2", "--elems", "16", "--tasks", "2",
        "--conflict", "0.7,oops", "--out-dir", str(tmp_path / "synth"),
    ])
    assert code == 2


def test_synth_profile_length_mismatch_exits_2(tmp_path):
    code = run([
        "synth", "--seed", "3", "--layers", "3", "--elems", "16", "--tasks", "2",
        "--conflict", "0.7,0.2", "--out-dir", str(tmp_path / "synth"),
    ])
    assert code == 2


def test_cli_outputs_deterministic_across_runs(tmp_path, synth_dir):
    cfg = _config(tmp_path, synth_dir)
    assert run(["merge", "--config", str(cfg)]) == 0
    first = (tmp_path / "merged.safetensors").read_bytes()
    first_report = (tmp_path / "report.json").read_bytes()
    assert run(["merge", "--config", str(cfg)]) == 0
    assert (tmp_path / "merged.safetensors").read_bytes() == first
    assert (tmp_path / "report.json").read_bytes() == first_report


def test_readme_config_example_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    intro = readme.index("`merge.json` holds exactly these keys")
    block = re.search(r"```json\n(.*?)```", readme[intro:], re.DOTALL).group(1)
    path = tmp_path / "merge.json"
    path.write_text(block, encoding="utf-8")
    load_run_config(path)
    assert set(json.loads(block)) == _CONFIG_KEYS
