from __future__ import annotations

import csv
import errno
import importlib.util
import json
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from malsmerge import (
    DEFAULT_GROUPING_PATTERN,
    AllocationConfig,
    MergeConfig,
    ValidationError,
    config_metadata,
    read_archive,
    synthesize_checkpoints,
    write_archive,
    write_synthetic_set,
)
from malsmerge import archive, merging
from malsmerge.cli import _CONFIG_KEYS, RunConfig, load_run_config, run


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
    metadata = read_archive(tmp_path / "merged.safetensors").metadata
    assert metadata["method"] == "mals"
    assert "config_digest" in metadata


def test_info_prints_the_metadata_of_a_merged_archive(tmp_path, synth_dir, capsys):
    assert run(["merge", "--config", str(_config(tmp_path, synth_dir))]) == 0
    capsys.readouterr()
    assert run(["info", "--archive", str(tmp_path / "merged.safetensors")]) == 0
    digest = config_metadata(MergeConfig())["config_digest"]
    expected = f'metadata: {{"config_digest": "{digest}", "lambda": "1.0", "method": "mals"}}'
    assert expected in capsys.readouterr().out.splitlines()


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
        (lambda c: {k: v for k, v in c.items() if k != "base_path"},
         "config is missing required key 'base_path'"),
        (lambda c: {k: v for k, v in c.items() if k != "tuned_paths"},
         "config is missing required key 'tuned_paths'"),
        (lambda c: {**c, "base_path": 1},
         "config key 'base_path' has wrong type: expected str, got int"),
        (lambda c: {**c, "output_path": 1},
         "config key 'output_path' has wrong type: expected str, got int"),
        (lambda c: {**c, "report_path": 1},
         "config key 'report_path' has wrong type: expected str, got int"),
        (lambda c: {**c, "report_format": 1},
         "config key 'report_format' has wrong type: expected str, got int"),
        (lambda c: {**c, "tuned_paths": "a.safetensors"},
         "config key 'tuned_paths' has wrong type: expected list, got str"),
        (lambda c: [c], "cfg.json"),
        (lambda c: json.dumps(c)[:-1], "cfg.json"),
        (lambda c: json.dumps(c)[:-1] + ', "alpha": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "cfg.json"),
        (lambda c: json.dumps(c)[:-1] + ', "alpha": 1' + "0" * 5000 + "}", "cfg.json"),
    ],
    ids=["alpha-str", "alpha-bool", "max_iterations-float", "sign_election-int",
         "lambda-null", "tuned_paths-empty", "tuned_paths-str-entry", "tuned_paths-unknown-key",
         "tuned_paths-no-path", "report_format-xml", "output_path-missing", "base_path-missing",
         "tuned_paths-missing", "base_path-int", "output_path-int", "report_path-int",
         "report_format-int", "tuned_paths-str", "top-level-list", "unparsable", "deep-nesting",
         "huge-int"],
)
def test_config_type_and_shape_errors_name_the_key(tmp_path, synth_dir, capsys, edit, named):
    cfg = _config(tmp_path, synth_dir)
    edited = edit(json.loads(cfg.read_text()))
    cfg.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert run(["merge", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()


def test_config_faults_are_reported_in_the_documented_order(tmp_path, synth_dir, capsys):
    faults = {
        "colour": ("red", "unknown config keys: ['colour']"),
        "alpha": ("1", "config key 'alpha' has wrong type"),
        "tuned_paths": ([], "tuned_paths must not be empty"),
        "report_format": ("xml", "report_format must be one of"),
        "report_path": (str(synth_dir / "base.safetensors"), "report_path '"),
    }
    while faults:
        cfg = _config(tmp_path, synth_dir, **{key: value for key, (value, _) in faults.items()})
        assert run(["merge", "--config", str(cfg)]) == 2
        first = next(iter(faults))
        assert faults.pop(first)[1] in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()


@pytest.mark.parametrize(
    "key, value",
    [("base_path", 1), ("output_path", None), ("report_path", 2.5), ("report_format", 1),
     ("report_format", "xml")],
    ids=["base_path-int", "output_path-null", "report_path-float", "report_format-int",
         "report_format-xml"],
)
def test_run_config_checks_its_keys_as_the_file_loader_does(tmp_path, synth_dir, key, value):
    with pytest.raises(ValidationError) as from_file:
        load_run_config(_config(tmp_path, synth_dir, **{key: value}))
    run_keys = {"base_path": "b", "tuned_paths": (("t", "t"),), "output_path": "o", key: value}
    with pytest.raises(ValidationError) as direct:
        RunConfig(**run_keys, merge_config=MergeConfig())
    assert str(direct.value) == str(from_file.value)


@pytest.mark.parametrize(
    "tuned_paths", ["x", (), (("a", 1),), (("a",),)], ids=["str", "empty", "int-label", "no-label"]
)
def test_run_config_built_in_code_checks_tuned_paths(tuned_paths):
    with pytest.raises(ValidationError, match="tuned_paths must be a non-empty tuple"):
        RunConfig(base_path="b", tuned_paths=tuned_paths, output_path="o")


@pytest.mark.parametrize("command", ["merge", "analyze"])
@pytest.mark.parametrize(
    "pattern, message",
    [("(", "invalid grouping pattern"), ("layers", "exactly one capture group, found 0")],
    ids=["unparsable", "no-capture-group"],
)
def test_bad_grouping_pattern_is_named_before_any_archive_is_read(
    tmp_path, synth_dir, capsys, command, pattern, message
):
    base = synth_dir / "base.safetensors"
    base.write_bytes(base.read_bytes()[:2])
    if command == "merge":
        argv = ["merge", "--config", str(_config(tmp_path, synth_dir, grouping_pattern=pattern))]
    else:
        argv = [*_argv(tmp_path, synth_dir, command), "--pattern", pattern]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "8-byte length field" not in err


def test_shape_mismatch_names_tensor_and_exits_2(tmp_path, synth_dir, capsys):
    bad = dict(read_archive(synth_dir / "task_00.safetensors"))
    bad["model.layers.0.attn.weight"] = np.zeros((2, 2), dtype=np.float32)
    write_archive(bad, synth_dir / "task_00.safetensors")
    code = run(["merge", "--config", str(_config(tmp_path, synth_dir))])
    assert code == 2
    assert "model.layers.0.attn.weight" in capsys.readouterr().err


def test_analyze_shape_mismatch_names_checkpoint_and_exits_2(tmp_path, synth_dir, capsys):
    bad = dict(read_archive(synth_dir / "task_01.safetensors"))
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
        tensors = dict(read_archive(path))
        tensors[name][0] = value
        write_archive(tensors, path)
    out = str(tmp_path / "out")
    # merge-compose fails in layer 1, once layer 0 is in the temp file
    output = tmp_path / "merged.safetensors" if command.startswith("merge") else Path(out)
    output.write_bytes(b"old output")
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
    assert output.read_bytes() == b"old output"
    assert not list(tmp_path.rglob("*.tmp"))


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


def _argv(tmp_path, synth_dir, command, base=None, out=None):
    """``command`` over the synthetic set, with its base archive or output path replaced."""
    base = base or str(synth_dir / "base.safetensors")
    if command == "merge":
        overrides = {"base_path": base} if out is None else {"base_path": base, "output_path": out}
        return ["merge", "--config", str(_config(tmp_path, synth_dir, **overrides))]
    tuned = [str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3)]
    tuned = tuned[:1] if command == "diff" else tuned
    return [command, "--base", base, "--tuned", *tuned, "--out", out or str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["merge", "analyze", "diff"])
def test_shape_numpy_cannot_build_names_the_archive(tmp_path, synth_dir, capsys, command):
    header = json.dumps({"w": {"dtype": "F32", "shape": [0, 2**63], "data_offsets": [0, 0]}})
    bad = tmp_path / "huge.safetensors"
    bad.write_bytes(struct.pack("<Q", len(header)) + header.encode())
    argv = _argv(tmp_path, synth_dir, command, base=str(bad))
    files = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed header: bad shape for 'w'\n"
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command, role", [("diff", "out"), ("analyze", "base"), ("merge", "base")])
def test_symlink_loop_is_refused_naming_the_path(tmp_path, synth_dir, capsys, command, role):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    argv = _argv(tmp_path, synth_dir, command, **{role: str(loop)})
    files = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resolve path {str(loop)!r}: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == files


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


def test_epsilon_below_the_floor_exits_2(tmp_path, synth_dir, capsys):
    assert run(["merge", "--config", str(_config(tmp_path, synth_dir, epsilon=1e-16))]) == 2
    assert "epsilon must be at least 1e-15" in capsys.readouterr().err
    assert not (tmp_path / "merged.safetensors").exists()


def test_nonconvergence_exits_3(tmp_path, synth_dir, capsys):
    # the initial levels here are about 0.64, 0.25 and 0.20: one correction towards 0.89
    # clips two of them at s_max and leaves the mean about 0.003 short, which a second
    # iteration would place
    cfg = _config(tmp_path, synth_dir, max_iterations=1, s_target=0.89)
    code = run(["merge", "--config", str(cfg)])
    assert code == 3
    assert "converge" in capsys.readouterr().err


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_signal_in_pass_2_exits_130_with_one_line_and_no_temp_file(tmp_path, synth_dir, signum):
    # the merge runs through the command's entry point in a child, where pass 2's first fill
    # says that it has started and then waits: the signal lands in mid pass 2, with the
    # output's temp file open, and the child exits 130 with one line, the temp file removed
    code = """if True:
        import sys, time
        from malsmerge import cli, merging

        slice_walk = merging._slice_walk

        def waiting_walk(base_read, group, lam, fill, place):
            def waiting_fill(first, b):
                print("filling", flush=True)
                time.sleep(60)
                return fill(first, b)

            slice_walk(base_read, group, lam, waiting_fill, place)

        merging._slice_walk = waiting_walk
        sys.argv[1:] = ["merge", "--config", sys.argv[1]]
        cli.entrypoint()
    """
    child = subprocess.Popen([sys.executable, "-c", code, str(_config(tmp_path, synth_dir))],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "filling\n"
        child.send_signal(signum)
        _, stderr = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, stderr) == (130, "error: interrupted\n")
    assert not list(tmp_path.glob("*.tmp"))
    assert not (tmp_path / "merged.safetensors").exists()


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


def test_analyze_groups_a_capture_beyond_the_int_digit_limit(tmp_path):
    huge = "1" * 5000  # more digits than int() converts
    tensors = {f"m.layers.{huge}.w": np.ones(4, np.float32), "m.layers.2.w": np.ones(4, np.float32)}
    write_archive(tensors, tmp_path / "base.st")
    write_archive({k: 2 * v for k, v in tensors.items()}, tmp_path / "t.st")
    out = tmp_path / "a.json"
    argv = ["analyze", "--base", str(tmp_path / "base.st"), "--tuned", str(tmp_path / "t.st")]
    assert run([*argv, "--out", str(out)]) == 0
    ids = [row["layer_id"] for row in json.loads(out.read_text())["layers"]]
    assert ids == ["layer.2", f"layer.{huge}"]


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


def _diff_bytes_equal_write_archive_of_the_updates(tmp_path):
    # off the synthetic grid, with a 0-d and an empty tensor among them
    rng = np.random.default_rng(11)
    base = {"b.w": rng.standard_normal((5, 7)).astype(np.float32), "a.scalar": np.float32(1.5).reshape(()),
            "c.empty": np.zeros((0, 4), np.float32)}
    tuned = {name: (tensor + rng.standard_normal(tensor.shape)).astype(np.float32)
             for name, tensor in base.items()}
    write_archive(base, tmp_path / "base.st")
    write_archive(tuned, tmp_path / "tuned.st")
    write_archive({name: tuned[name] - base[name] for name in base}, tmp_path / "expected.st")
    out = tmp_path / "tau.st"
    argv = ["diff", "--base", str(tmp_path / "base.st"), "--tuned", str(tmp_path / "tuned.st")]
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "expected.st").read_bytes()


def test_diff_bytes_equal_write_archive_of_the_updates(tmp_path):
    _diff_bytes_equal_write_archive_of_the_updates(tmp_path)


@pytest.mark.parametrize("slice_entries", [1, 3, 7])
def test_diff_bytes_do_not_depend_on_the_slice_size(tmp_path, monkeypatch, slice_entries):
    # the whole model's flat is cut into slices of every size across its tensors' ends
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", slice_entries)
    _diff_bytes_equal_write_archive_of_the_updates(tmp_path)


def test_diff_memory_stays_within_a_few_slices(tmp_path, monkeypatch):
    # each tensor's update is built and written a slice at a time: the traced peak of a diff
    # of a 64-slice tensor stays within 8 slices, where base, tuned and update tensors held
    # whole take 3 x 64
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4096)
    w = np.random.default_rng(3).standard_normal((64, 4096)).astype(np.float32)
    write_archive({"w": w, "b": w[:3]}, tmp_path / "base.st")
    write_archive({"w": w + 1, "b": 2 * w[:3]}, tmp_path / "tuned.st")
    del w
    argv = ["diff", "--base", str(tmp_path / "base.st"), "--tuned", str(tmp_path / "tuned.st"),
            "--out", str(tmp_path / "tau.st")]
    assert run(argv) == 0  # once untraced, so that first-use caches are not counted
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 4 * 4096, peak / (4 * 4096)


@pytest.mark.parametrize("change", ["missing", "reshaped", "extra"])
def test_incompatible_diff_exits_2_before_its_output_file_is_made(tmp_path, synth_dir, capsys,
                                                                   monkeypatch, change):
    name, tuned_path = "model.layers.1.mlp.weight", synth_dir / "task_00.safetensors"
    tensors = dict(read_archive(tuned_path))
    if change == "missing":
        del tensors[name]
    elif change == "reshaped":
        tensors[name] = tensors[name][:-1]
    else:
        tensors[name + ".extra"] = np.zeros(2, np.float32)
    write_archive(tensors, tuned_path)
    out = tmp_path / "out"
    out.write_bytes(b"old output")
    files = sorted(tmp_path.rglob("*"))
    opened = []
    monkeypatch.setattr(archive, "atomic_file", opened.append)  # no temp file may be started
    argv = ["diff", "--base", str(synth_dir / "base.safetensors"), "--tuned", str(tuned_path)]
    assert run([*argv, "--out", str(out)]) == 2
    key = name + ".extra" if change == "extra" else name
    assert capsys.readouterr().err.startswith(f"error: checkpoint 'task_00' incompatible at {key!r}: ")
    assert opened == []
    assert sorted(tmp_path.rglob("*")) == files
    assert out.read_bytes() == b"old output"


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


@pytest.mark.parametrize("command", ["merge", "merge-average", "analyze", "diff"])
def test_non_finite_input_read_last_exits_2_and_writes_nothing(tmp_path, synth_dir, capsys, command):
    # payloads sit in name order, so the file's last 4 bytes are the last tensor's last
    # value: tensors are read on lookup, and this one is the last any command reads
    bad, name = synth_dir / "task_02.safetensors", "model.layers.2.mlp.weight"
    bad.write_bytes(bad.read_bytes()[:-4] + struct.pack("<f", float("nan")))
    if command.startswith("merge"):
        method = "simple_average" if command == "merge-average" else "mals"
        argv = ["merge", "--config", str(_config(tmp_path, synth_dir, method=method))]
    else:
        argv = _argv(tmp_path, synth_dir, command)  # analyze's tuned archives end with it
        if command == "diff":
            argv[argv.index("--tuned") + 1] = str(bad)
    output = tmp_path / ("merged.safetensors" if command.startswith("merge") else "out")
    output.write_bytes(b"old output")
    files = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: non-finite value detected in tensor {name!r}\n"
    assert sorted(tmp_path.rglob("*")) == files  # no new output, report or temp file
    assert output.read_bytes() == b"old output"


def _payload_offset(path, name: str) -> int:
    """The file offset of tensor ``name``'s payload, read from the archive's header."""
    blob = Path(path).read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    return 8 + header_len + json.loads(blob[8 : 8 + header_len])[name]["data_offsets"][0]


def _check_io_error_named(tmp_path, capsys, cfg, code, message):
    """A merge that meets the I/O error exits 2 with ``message``, and leaves the files as they were."""
    files = {path: path.read_bytes() for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert run(["merge", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)} {message}\n"
    # no temp file, and the earlier output and report untouched
    assert {path: path.read_bytes() for path in sorted(tmp_path.rglob("*")) if path.is_file()} == files


def test_read_error_names_the_input_and_tensor(tmp_path, synth_dir, capsys, monkeypatch):
    cfg = _config(tmp_path, synth_dir)
    assert run(["merge", "--config", str(cfg)]) == 0
    bad, name = synth_dir / "task_01.safetensors", "model.layers.1.mlp.weight"
    # every input has the same layout: the file, not the offset, singles the tensor out
    offset, stat, preadv = _payload_offset(bad, name), os.stat(bad), os.preadv

    def failing(fd, buffers, at):
        if at == offset and os.path.samestat(os.fstat(fd), stat):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return preadv(fd, buffers, at)

    monkeypatch.setattr(os, "preadv", failing)
    _check_io_error_named(tmp_path, capsys, cfg, errno.EIO, f"reading tensor {name!r}: {str(bad)!r}")


def test_write_error_names_the_output_and_tensor(tmp_path, synth_dir, capsys, monkeypatch):
    cfg = _config(tmp_path, synth_dir)
    assert run(["merge", "--config", str(cfg)]) == 0
    output, name = tmp_path / "merged.safetensors", "model.layers.1.mlp.weight"
    offset, pwritev = _payload_offset(output, name), os.pwritev  # the rerun lays it out alike

    def failing(fd, buffers, at):
        if at == offset:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwritev(fd, buffers, at)

    monkeypatch.setattr(os, "pwritev", failing)
    message = f"writing tensor {name!r}: {str(output)!r}"
    _check_io_error_named(tmp_path, capsys, cfg, errno.ENOSPC, message)


def test_report_write_error_names_the_report(tmp_path, synth_dir, capsys, monkeypatch):
    out = tmp_path / "a.json"
    out.write_bytes(b"old report")
    files = sorted(tmp_path.rglob("*"))

    def failing(fd, buffers, at):  # the report is analyze's only write
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "pwritev", failing)
    assert run(_argv(tmp_path, synth_dir, "analyze", out=str(out))) == 2
    message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)} writing the report: {str(out)!r}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == files  # the temp file is removed
    assert out.read_bytes() == b"old report"


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
    block = _readme_block("## Library", "python")
    # the public API alone: every import is from the package's top level
    assert re.findall(r"^(?:from|import) \S+", block, re.MULTILINE) == ["from malsmerge"]
    exec(block, {"__name__": "readme_library"})
    assert set(read_archive(tmp_path / "merged.safetensors")) == set(base)
    streamed = (tmp_path / "merged.safetensors").read_bytes()
    assert streamed == (tmp_path / "merged-whole.safetensors").read_bytes()
    assert capsys.readouterr().out  # the example prints the allocation and conflict


def test_no_command_loads_openssl(tmp_path, synth_dir):
    # OpenSSL's libcrypto is 3.5 MiB of every job's RSS, and nothing here needs it: a fresh
    # interpreter shows what each command imports, since pytest's own may already hold it.
    # synth draws from numpy.random, whose import brings in secrets, and _hashlib with it
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256: config_metadata falls back to hashlib's")
    (tmp_path / "csv").mkdir()
    merged = str(tmp_path / "merged.safetensors")
    commands = [
        ["merge", "--config", str(_config(tmp_path, synth_dir))],
        ["merge", "--config", str(_config(tmp_path / "csv", synth_dir, report_format="csv",
                                          report_path=str(tmp_path / "csv" / "report.csv")))],
        ["analyze", "--base", str(synth_dir / "base.safetensors"), "--out", str(tmp_path / "a.json"),
         "--tuned", *(str(synth_dir / f"task_{i:02d}.safetensors") for i in range(3))],
        ["diff", "--base", str(synth_dir / "base.safetensors"), "--tuned", merged,
         "--out", str(tmp_path / "tau.safetensors")],
        ["info", "--archive", merged],
        ["synth", "--seed", "0", "--layers", "1", "--elems", "8", "--tasks", "2", "--conflict", "0.5",
         "--out-dir", str(tmp_path / "synth")],
    ]
    code = """if True:
        import contextlib, io, json, os, sys, traceback

        class Recorder:  # a finder that finds nothing: it notes the stack of each OpenSSL import
            stacks = []

            def find_spec(self, name, path=None, target=None):
                if name in ("_hashlib", "ssl"):
                    self.stacks.append([frame.filename for frame in traceback.extract_stack()])

        sys.meta_path.insert(0, Recorder())
        import numpy
        with_numpy = len(Recorder.stacks)
        from malsmerge import cli
        *commands, synth = json.loads(sys.argv[1])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                assert cli.run(argv) == 0, argv
            loaded = sorted(name for name in ("_hashlib", "ssl") if name in sys.modules)
            assert cli.run(synth) == 0
        random = os.path.join("", "numpy", "random", "")
        print(json.dumps({"with_numpy": with_numpy, "loaded": loaded,
                          "synth": [any(random in f for f in stack) for stack in Recorder.stacks]}))
    """
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    if result["with_numpy"]:
        pytest.skip("this numpy imports numpy.random, and so _hashlib, with itself (numpy 1.x)")
    assert result["loaded"] == []
    assert all(result["synth"]), result  # synth's libcrypto, if any, comes with numpy.random
