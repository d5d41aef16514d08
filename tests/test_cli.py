from __future__ import annotations

import csv
import json
import re
import shlex
import struct
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from malsmerge import (
    DEFAULT_GROUPING_PATTERN,
    AllocationConfig,
    MergeConfig,
    read_archive,
    synthesize_checkpoints,
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


def test_usage_error_prints_usage_and_the_subcommand_error(tmp_path, capsys):
    argv = ["synth", "--seed", "x", "--layers", "1", "--elems", "1", "--tasks", "1",
            "--conflict", "0", "--out-dir", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: malsmerge synth")
    assert "malsmerge synth: error: argument --seed: invalid int value: 'x'" in err


@pytest.mark.parametrize(
    "key, value", [("lambda_scale", 2.0), ("seed", 0)], ids=["lambda_scale", "seed"]
)
def test_unknown_config_key_is_validation_error(tmp_path, synth_dir, capsys, key, value):
    code = run(["merge", "--config", str(_config(tmp_path, synth_dir, **{key: value}))])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, raw",
    [
        ("epsilon", "Infinity"),
        ("alpha", "Infinity"),
        ("beta", "1e309"),
        ("alpha", "NaN"),
        ("beta", "1" + "0" * 400),
        ("lambda", "-" + "9" * 400),
    ],
    ids=["epsilon-inf", "alpha-inf", "beta-1e309", "alpha-nan", "beta-huge-int", "lambda-huge-int"],
)
def test_non_finite_config_value_names_key(tmp_path, synth_dir, capsys, key, raw):
    cfg = _config(tmp_path, synth_dir)
    cfg.write_text(cfg.read_text().replace('"method": "mals"', f'"method": "mals", "{key}": {raw}'))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["merge", "--config", str(cfg)]) == 2
    assert caught == []
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: {**c, "alpha": "1"}, "'alpha'"),
        (lambda c: {**c, "alpha": True}, "'alpha'"),
        (lambda c: {**c, "max_iterations": 1.5}, "'max_iterations'"),
        (lambda c: {**c, "sign_election": 1}, "'sign_election'"),
        (lambda c: {**c, "lambda": None}, "'lambda'"),
        (lambda c: {**c, "tuned_paths": []}, "tuned_paths must not be empty"),
        (lambda c: {**c, "tuned_paths": ["a.safetensors"]}, "tuned_paths[0] must be an object"),
        (lambda c: {**c, "tuned_paths": [{"path": "a.safetensors", "weight": 1}]}, "'weight'"),
        (lambda c: {**c, "tuned_paths": [{"label": "a"}]}, "tuned_paths[0] is missing 'path'"),
        (lambda c: {**c, "report_format": "xml"}, "report_format"),
        (lambda c: {k: v for k, v in c.items() if k != "output_path"}, "'output_path'"),
        (lambda c: [c], "cfg.json"),
        (lambda c: json.dumps(c)[:-1], "cfg.json"),
        (lambda c: json.dumps(c)[:-1] + ', "alpha": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "cfg.json"),
        (lambda c: json.dumps(c)[:-1] + ', "alpha": 1' + "0" * 5000 + "}", "cfg.json"),
    ],
    ids=["alpha-str", "alpha-bool", "max_iterations-float", "sign_election-int",
         "lambda-null", "tuned_paths-empty", "tuned_paths-str-entry", "tuned_paths-unknown-key",
         "tuned_paths-no-path", "report_format-xml", "output_path-missing", "top-level-list",
         "unparsable", "deep-nesting", "huge-int"],
)
def test_config_type_and_shape_errors_name_the_key(tmp_path, synth_dir, capsys, edit, named):
    cfg = _config(tmp_path, synth_dir)
    edited = edit(json.loads(cfg.read_text()))
    cfg.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert run(["merge", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()


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


@pytest.mark.parametrize("command", ["merge", "analyze", "diff", "merge-compose"])
def test_update_overflowing_32_bits_names_tensor_and_exits_2(tmp_path, synth_dir, capsys, command):
    name = "model.layers.1.mlp.weight"
    base_path, tuned_path = synth_dir / "base.safetensors", synth_dir / "task_00.safetensors"
    values, what = {base_path: -3e38, tuned_path: 3e38}, "update of"
    if command == "merge-compose":
        # every update is 3e37 and fits; the base plus lambda times it does not
        values = {path: 3.3e38 for path in synth_dir.glob("task_*.safetensors")}
        values[base_path], what = 3e38, "merged"
    for path, value in values.items():
        tensors = read_archive(path)
        tensors[name] = tensors[name].copy()
        tensors[name][0] = value
        write_archive(tensors, path)
    out = str(tmp_path / "out")
    argv = {
        "merge": ["merge", "--config", str(_config(tmp_path, synth_dir))],
        "analyze": ["analyze", "--base", str(base_path), "--tuned", str(tuned_path), "--out", out],
        "diff": ["diff", "--base", str(base_path), "--tuned", str(tuned_path), "--out", out],
        "merge-compose": ["merge", "--config", str(_config(tmp_path, synth_dir, **{"lambda": 3.0}))],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{what} tensor {name!r} overflows 32-bit precision" in err
    assert "RuntimeWarning" not in err


def test_huge_alpha_and_beta_merge_without_overflow_warning(tmp_path, capsys):
    assert run([
        "synth", "--seed", "2", "--layers", "2", "--elems", "500", "--tasks", "2",
        "--conflict", "0.9,0.1", "--out-dir", str(tmp_path / "synth"),
    ]) == 0
    cfg = {
        "base_path": str(tmp_path / "synth" / "base.safetensors"),
        "tuned_paths": [{"path": str(tmp_path / "synth" / f"task_{i:02d}.safetensors")} for i in range(2)],
        "output_path": str(tmp_path / "merged.safetensors"),
        "alpha": 1.5e308,
        "beta": 1.5e308,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["merge", "--config", str(tmp_path / "cfg.json")]) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_config_keys_are_the_run_keys_and_every_config_field():
    run_keys = {"base_path", "tuned_paths", "output_path", "report_path", "report_format"}
    names = {f.name for f in fields(MergeConfig)} | {f.name for f in fields(AllocationConfig)}
    assert _CONFIG_KEYS == run_keys | (names - {"allocation", "lam"}) | {"lambda"}
    assert len(_CONFIG_KEYS) == 16


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
        ("output_path", "cfg.json"),
        ("report_path", "cfg.json"),
        ("output_path", "elsewhere/../cfg.json"),
    ],
    ids=["output_path-base", "output_path-task", "output_path-base-respelled",
         "report_path-base", "report_path-task", "report_path-output",
         "output_path-config", "report_path-config", "output_path-config-respelled"],
)
def test_output_colliding_with_input_rejected(tmp_path, synth_dir, key, target):
    (synth_dir / "elsewhere").mkdir()
    paths = {"output_path": str(synth_dir / "merged.safetensors"), key: str(synth_dir / target)}
    cfg = _config(tmp_path, synth_dir, **paths)
    assert cfg == synth_dir / "cfg.json"
    inputs = [*sorted(synth_dir.glob("*.safetensors")), cfg]
    before = [path.read_bytes() for path in inputs]
    assert run(["merge", "--config", str(cfg)]) == 2
    assert [path.read_bytes() for path in inputs] == before
    assert not (synth_dir / "merged.safetensors").exists()


@pytest.mark.parametrize(
    "command, out",
    [
        ("diff", "base.safetensors"),
        ("diff", "task_00.safetensors"),
        ("analyze", "base.safetensors"),
        ("analyze", "task_01.safetensors"),
        ("analyze", "elsewhere/../base.safetensors"),
    ],
    ids=["diff-base", "diff-tuned", "analyze-base", "analyze-tuned", "analyze-base-respelled"],
)
def test_command_output_colliding_with_input_rejected(synth_dir, capsys, command, out):
    (synth_dir / "elsewhere").mkdir()
    base = str(synth_dir / "base.safetensors")
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    argv = [command, "--base", base, "--tuned", *(tuned[:1] if command == "diff" else tuned)]
    files = sorted(synth_dir.rglob("*"))
    before = [path.read_bytes() for path in files if path.is_file()]
    assert run([*argv, "--out", str(synth_dir / out)]) == 2
    assert "collides with" in capsys.readouterr().err
    assert sorted(synth_dir.rglob("*")) == files
    assert [path.read_bytes() for path in files if path.is_file()] == before


@pytest.mark.parametrize(
    "command, key",
    [("merge", "output_path"), ("merge", "report_path"), ("analyze", "--out"), ("diff", "--out")],
    ids=["merge-output_path", "merge-report_path", "analyze", "diff"],
)
def test_output_in_missing_directory_rejected(tmp_path, synth_dir, capsys, command, key):
    target = str(tmp_path / "nodir" / "out.json")
    if command == "merge":
        argv = ["merge", "--config", str(_config(tmp_path, synth_dir, **{key: target}))]
    else:
        base = str(synth_dir / "base.safetensors")
        tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
        argv = [command, "--base", base, "--tuned", *(tuned[:1] if command == "diff" else tuned)]
        argv += ["--out", target]
    files = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {key} {target!r}: directory" in err and "does not exist" in err
    assert ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("key", ["output_path", "report_path"])
def test_output_naming_a_directory_rejected(tmp_path, synth_dir, capsys, key):
    target = tmp_path / "outdir"
    target.mkdir()
    assert run(["merge", "--config", str(_config(tmp_path, synth_dir, **{key: str(target)}))]) == 2
    assert f"error: {key} {str(target)!r} is a directory" in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()
    assert list(target.iterdir()) == []


def test_boolean_shape_in_base_names_the_archive(tmp_path, synth_dir, capsys):
    header = b'{"w":{"dtype":"F32","shape":[true,2],"data_offsets":[0,8]}}'
    bad = tmp_path / "bool.safetensors"
    bad.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    out = tmp_path / "a.json"
    assert run(["analyze", "--base", str(bad), "--tuned", *tuned, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed header: bad shape")
    assert not out.exists()


@pytest.mark.parametrize("command", ["info", "merge", "analyze", "diff"])
@pytest.mark.parametrize(
    "header",
    [b"[" * 100_000 + b"]" * 100_000, b'{"w":{"dtype":"F32","shape":[1' + b"0" * 5000 + b"]}}"],
    ids=["deep-nesting", "huge-int"],
)
def test_unparsable_header_names_the_archive(tmp_path, synth_dir, capsys, command, header):
    bad = synth_dir / "base.safetensors"
    bad.write_bytes(struct.pack("<Q", len(header)) + header)
    task = str(synth_dir / "task_00.safetensors")
    out = str(tmp_path / "out.st")
    argv = {
        "info": ["info", "--archive", str(bad)],
        "merge": ["merge", "--config", str(_config(tmp_path, synth_dir))],
        "analyze": ["analyze", "--base", str(bad), "--tuned", task, "--out", out],
        "diff": ["diff", "--base", str(bad), "--tuned", task, "--out", out],
    }[command]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed header: ")


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
    for pattern, n_layers in ((DEFAULT_GROUPING_PATTERN, 3), (r"\.(attn|mlp)\.", 2)):
        argv = ["analyze", "--base", base, "--tuned", *tuned, "--pattern", pattern]
        assert run([*argv, "--out", str(analyze_out)]) == 0
        cfg = _config(tmp_path, synth_dir, grouping_pattern=pattern)
        assert run(["merge", "--config", str(cfg)]) == 0
        analyze_rows = json.loads(analyze_out.read_text())["layers"]
        merge_rows = json.loads((tmp_path / "report.json").read_text())["layers"]
        assert len(analyze_rows) == n_layers
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


def test_archive_error_names_the_file(tmp_path, synth_dir, capsys):
    bad = synth_dir / "task_01.safetensors"
    bad.write_bytes(bad.read_bytes()[:-4])
    base = str(synth_dir / "base.safetensors")
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    out = tmp_path / "a.json"
    assert run(["analyze", "--base", base, "--tuned", *tuned, "--out", str(out)]) == 2
    assert f"error: {bad}: truncated payload" in capsys.readouterr().err
    assert run(["info", "--archive", str(bad)]) == 2
    assert f"error: {bad}: truncated payload" in capsys.readouterr().err
    assert not out.exists()


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


def _readme_block(intro: str, language: str) -> str:
    """The first ``language`` code block in README.md after the text ``intro``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index(intro)
    return re.search(rf"```{language}\n(.*?)```", readme[start:], re.DOTALL).group(1)


def test_readme_config_example_lists_every_key(tmp_path):
    block = _readme_block("`merge.json` holds exactly these keys", "json")
    path = tmp_path / "merge.json"
    path.write_text(block, encoding="utf-8")
    load_run_config(path)
    assert set(json.loads(block)) == _CONFIG_KEYS


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    (tmp_path / "merge.json").write_text(
        _readme_block("`merge.json` holds exactly these keys", "json"), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    script = _readme_block("## CLI", "bash").replace("\\\n", " ")
    commands = [line for line in script.splitlines() if line.strip() and not line.startswith("#")]
    assert commands and all(line.startswith("malsmerge ") for line in commands)
    for line in commands:
        assert run(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "merged.safetensors").exists() and (tmp_path / "report.csv").exists()


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    base, tuned = synthesize_checkpoints(5, 3, 64, 2, [0.8, 0.5, 0.2])
    for stem, tensors in zip(("base", "math", "chat"), [base, *tuned]):
        write_archive(tensors, tmp_path / f"{stem}.safetensors")
    monkeypatch.chdir(tmp_path)
    exec(_readme_block("## Library", "python"), {"__name__": "readme_library"})
    assert set(read_archive(tmp_path / "merged.safetensors")) == set(base)
    assert capsys.readouterr().out  # the example prints the allocation and conflict
