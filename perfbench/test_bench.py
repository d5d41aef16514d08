"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench

SRC = bench.ROOT / "src"
sys.path.insert(0, str(SRC))

from malsmerge import cli  # noqa: E402

import traced_job  # noqa: E402


def tiny(name: str, pinned: dict | None = None) -> bench.Workload:
    """The workload at 3 layers x 3000 params, pinned to ``pinned`` (default: nothing)."""
    return dataclasses.replace(bench.WORKLOADS[name], layers=3, elems=3000, pinned=pinned or {})


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["perfbench/bench.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_runs_clean_and_emits_every_metric(tmp_path, name, trace):
    result = bench.run_benchmark(tiny(name), 0, 0, trace, SRC, tmp_path)
    assert result["correct"], result["details"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= bench.MIN_JOBS
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the inputs' temp directory is gone


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_job_writes_the_cli_bytes(tmp_path, monkeypatch, name, seed):
    workload = tiny(name)
    env = bench.child_env(SRC)
    bench.prepare(workload, seed, tmp_path, env)
    traced = bench.run_job(0, workload, tmp_path, env, traced=True)
    assert traced.problems == []
    assert 0 <= bench._uncovered_s(traced) < traced.wall_s

    monkeypatch.chdir(tmp_path)
    assert cli.run(bench.job_argv(workload)) == 0
    assert {out: bench._sha256(tmp_path / out) for out in workload.outputs} == traced.digests


def test_pinned_digest_mismatch_fails_every_job(tmp_path):
    workload = tiny("analyze-8task", pinned={"report.json": "0" * 64})
    result = bench.run_benchmark(workload, bench.DEFAULT_SEED, 0, False, SRC, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_trim_count_check_flags_a_wrong_kept_count():
    flat = np.arange(1, 11, dtype=np.float32)
    failures: list[str] = []
    counts = traced_job._trim_counts([flat], [flat], None, 0.5, "layer.0", failures)
    assert failures == ["layer.0 task 0: kept 10 entries, expected 5"]
    assert counts == {"seen": 10, "kept": 10, "surviving": 10}


def test_report_check_flags_a_missed_budget(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"layers": [{"s_final": 0.5}, {"s_final": 0.6}]}))
    assert bench._check_report(report)
    report.write_text(json.dumps({"layers": [{"s_final": 0.4}, {"s_final": 0.6}]}))
    assert bench._check_report(report) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile([1.0] * 19) is None
    assert bench.tail_percentile(list(range(20)))[0] == 50.0
    assert bench.tail_percentile(list(range(100))) == (90.0, 89)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "mals-elect", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
