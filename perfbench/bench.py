"""Seeded benchmark of malsmerge CLI jobs: job time, throughput and peak RSS.

Run from the root of a checkout:

    python3 perfbench/bench.py --workload mals-elect --seed 0 --seconds 20 --trace 0

A run synthesizes the workload's input archives from ``--seed`` in a process
of its own (``setup_inputs.py``, repeated ``SETUP_REPEATS`` times for the
``setup_s`` median), then runs CLI jobs one after another, each in a fresh
child process, until ``--seconds`` have passed and at least ``MIN_JOBS`` have
run: a closed loop with one caller. The program gets only the archives and
the job's config.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced CLI jobs with traced decompositions of the same job
(``traced_job.py``) and reports the per-layer metrics from their spans. Every
job's outputs are checked; a failed check counts the job as failed. Spans and
the run's environment are written to ``.perfbench/`` in the checkout. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_JOBS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# AllocationConfig defaults; `malsmerge analyze` always uses them, and the
# merge configs below set them explicitly.
S_TARGET = 0.5
EPSILON = 1e-6
# report values carry 12 significant digits, so their mean may sit this far
# from the unrounded mean the projection checked against epsilon
REPORT_ROUNDING = 1e-11

END_TO_END = {
    "wall_s": "s",
    "mparams_per_s": "Mparam/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.startup_s": "s",
    "archive.read_s": "s",
    "archive.read_mib_s": "MiB/s",
    "archive.write_s": "s",
    "archive.write_mib_s": "MiB/s",
    "archive.read_rss_mib": "MiB",
    "task_vectors.validate_s": "s",
    "task_vectors.compute_s": "s",
    "task_vectors.rss_mib": "MiB",
    "grouping.group_s": "s",
    "grouping.flatten_s": "s",
    "grouping.unflatten_s": "s",
    "conflict.layer_conflict_s": "s",
    "conflict.pairs": "count",
    "conflict.pair_melems_s": "Melem/s",
    "conflict.rss_mib": "MiB",
    "allocation.allocate_s": "s",
    "allocation.iterations": "count",
    "merging.trim_s": "s",
    "merging.trim_melems_s": "Melem/s",
    "merging.trim_layer_ms.p50": "ms",
    "merging.trim_layer_ms.tail": "ms",
    "merging.elect_s": "s",
    "merging.disjoint_merge_s": "s",
    "merging.rss_mib": "MiB",
    "merging.compose_s": "s",
    "merging.simple_average_s": "s",
    "merging.kept_frac": "frac",
    "merging.elect_survival_frac": "frac",
    "diagnostics.report_s": "s",
    "trace.overhead_frac": "frac",
    "trace.uncovered_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One seeded input set and the CLI job run on it."""

    name: str
    layers: int
    elems: int  # parameters per layer
    tasks: int
    dtype: str  # storage dtype of the input archives, "F32" or "F16"
    command: str  # "merge" or "analyze"
    merge_options: dict = field(default_factory=dict)
    report: bool = True
    # sha256 of each output file at DEFAULT_SEED
    pinned: dict = field(default_factory=dict)

    @property
    def params(self) -> int:
        return self.layers * self.elems

    @property
    def outputs(self) -> list[str]:
        names = ["merged.safetensors"] if self.command == "merge" else []
        return names + (["report.json"] if self.report else [])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mals-elect",
            layers=24,
            elems=400_000,
            tasks=4,
            dtype="F32",
            command="merge",
            merge_options={"method": "mals", "sign_election": True},
            pinned={
                "merged.safetensors": "f628040cfc92e89dcd04d4dc6e98f30622dda4e2c3db4ff7e858e582bf0ccac4",
                "report.json": "c8609bf743c175850a06c153870e34e8b0ab83d7e458c9e05bf4c5331490a7a1",
            },
        ),
        Workload(
            name="analyze-8task",
            layers=64,
            elems=100_000,
            tasks=8,
            dtype="F32",
            command="analyze",
            pinned={
                "report.json": "972542780921a9bb89a2e5ae5631476034a2699114ee9bed7b54ecb1d3f09741",
            },
        ),
        Workload(
            name="avg-f16",
            layers=16,
            elems=2_000_000,
            tasks=3,
            dtype="F16",
            command="merge",
            merge_options={"method": "simple_average"},
            report=False,
            pinned={
                "merged.safetensors": "cce0db87e0640b19694b2ed3e2f9b88047780736a061b50899f14a6adc87a94f",
            },
        ),
    )
}


@dataclass
class Job:
    """One job: a CLI run, or a traced decomposition when ``traced``."""

    id: int
    traced: bool
    start: float
    end: float
    peak_rss_mib: float
    exit_code: int
    digests: dict[str, str]
    problems: list[str]
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans of one run, kept in memory: id, job id, name, start, end, parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, job: int | None = None,
            parent: int | None = None, **counts: object) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "job": job, "name": name, "start": start,
                           "end": end, "parent": parent, **counts})
        return span_id

    def add_job(self, job: Job) -> None:
        """Add a job's span and, for a traced job, its child spans beneath it."""
        job_span = self.add("job.traced" if job.traced else "job.cli", job.start, job.end,
                            job=job.id, exit_code=job.exit_code, peak_rss_mib=job.peak_rss_mib)
        ids: list[int] = []
        for span in job.spans:
            counts = {k: v for k, v in span.items() if k not in ("name", "start", "end", "parent")}
            parent = job_span if span["parent"] is None else ids[span["parent"]]
            ids.append(self.add(span["name"], span["start"], span["end"], job.id, parent, **counts))


def child_env(src_dir: Path) -> dict[str, str]:
    """Environment for every child: the checkout's sources and pinned thread counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def environment(seed: int, env: dict[str, str]) -> dict[str, object]:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def prepare(workload: Workload, seed: int, work: Path, env: dict[str, str]) -> list[float]:
    """Write the inputs (timed ``SETUP_REPEATS`` times) and the job config into ``work``."""
    spec = json.dumps({"layers": workload.layers, "elems": workload.elems,
                       "tasks": workload.tasks, "dtype": workload.dtype})
    argv = [sys.executable, str(BENCH_DIR / "setup_inputs.py"), spec, str(seed), "inputs"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"input synthesis failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    # flush the inputs now so that their writeback does not land inside a job
    for path in (work / "inputs").iterdir():
        with open(path, "rb") as f:
            os.fsync(f.fileno())
    if workload.command == "merge":
        config = {
            "base_path": "inputs/base.safetensors",
            "tuned_paths": [
                {"path": f"inputs/task_{i:02d}.safetensors", "label": f"task_{i:02d}"}
                for i in range(workload.tasks)
            ],
            "output_path": "merged.safetensors",
            "s_target": S_TARGET,
            "epsilon": EPSILON,
            **workload.merge_options,
        }
        if workload.report:
            config.update(report_path="report.json", report_format="json")
        (work / "merge.json").write_text(json.dumps(config, indent=2))
    return times


def job_argv(workload: Workload) -> list[str]:
    """Arguments of the ``malsmerge`` CLI job, relative to the run's work directory."""
    if workload.command == "merge":
        return ["merge", "--config", "merge.json"]
    tuned = [f"inputs/task_{i:02d}.safetensors" for i in range(workload.tasks)]
    return ["analyze", "--base", "inputs/base.safetensors", "--tuned", *tuned,
            "--format", "json", "--out", "report.json"]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_report(path: Path) -> list[str]:
    rows = json.loads(path.read_text())["layers"]
    mean = statistics.fmean(row["s_final"] for row in rows)
    if abs(mean - S_TARGET) > EPSILON + REPORT_ROUNDING:
        return [f"mean s_final {mean!r} is not within {EPSILON} of {S_TARGET}"]
    return []


def run_job(job_id: int, workload: Workload, work: Path, env: dict[str, str],
            traced: bool) -> Job:
    """Run one job in a fresh child process; hash, check and then remove its outputs."""
    result = work / "trace.json"
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced_job.py"), result.name]
    else:
        argv = [sys.executable, "-m", "malsmerge.cli"]
    argv += job_argv(workload)
    with open(work / "job.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            # the job's own rusage; RUSAGE_CHILDREN would keep the maximum over all children
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems: list[str] = []
    digests: dict[str, str] = {}
    spans: list[dict] = []
    if proc.returncode != 0:
        log_tail = (work / "job.log").read_text(errors="replace")[-2000:]
        problems.append(f"exit code {proc.returncode}: {log_tail}")
    for name in workload.outputs:
        path = work / name
        if not path.exists():
            problems.append(f"{name} was not written")
            continue
        digests[name] = _sha256(path)
        if name == "report.json":
            problems += _check_report(path)
        path.unlink()
    if traced and result.exists():
        trace = json.loads(result.read_text())
        spans = trace["spans"]
        problems += trace["failures"]
        result.unlink()
        first_read = next((s["start"] for s in spans if s["name"] == "archive.read"), end)
        spans.append({"name": "cli.startup", "start": start, "end": first_read, "parent": None})
    elif traced and proc.returncode == 0:
        problems.append("traced job wrote no spans")
    return Job(job_id, traced, start, end, usage.ru_maxrss / 1024.0, proc.returncode,
               digests, problems, spans)


def check_digests(jobs: list[Job], workload: Workload, seed: int) -> None:
    """Every job must write the first CLI job's bytes; at DEFAULT_SEED, the pinned bytes."""
    if seed == DEFAULT_SEED and workload.pinned:
        reference = workload.pinned
    else:
        reference = next((j.digests for j in jobs if not j.traced and j.exit_code == 0), None)
    if reference is None:
        return  # every CLI job already failed on its exit code
    for job in jobs:
        if job.digests and job.digests != reference:
            kind = "traced" if job.traced else "CLI"
            job.problems.append(f"{kind} outputs {job.digests} differ from {reference}")


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile from a fixed ladder (nearest rank) with ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _uncovered_s(job: Job) -> float:
    """Part of a traced job's wall time that no top-level span covers."""
    tops = sorted((s["start"], s["end"]) for s in job.spans if s["parent"] is None)
    covered, cursor = 0.0, job.start
    for start, end in tops:
        start, end = max(start, cursor), min(end, job.end)
        if end > start:
            covered += end - start
            cursor = end
    return job.wall_s - covered


def layer_metrics(job: Job) -> dict[str, float]:
    """Per-layer metrics of one traced job; a stage the job does not run reads 0."""
    spans = job.spans

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum((s["end"] - s["start"] for s in named(name)), 0.0)

    def count(name: str, key: str) -> float:
        return sum((s[key] for s in named(name)), 0)

    def rss_after(name: str) -> float:
        found = named(name)
        return found[-1]["rss_mib"] if found else 0.0

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    read_s, write_s = total("archive.read"), total("archive.write")
    conflict_s, trim_s = total("conflict.layer_conflict"), total("merging.trim")
    checks = named("trace.check")
    kept = sum(s["kept"] for s in checks)
    return {
        "cli.startup_s": total("cli.startup"),
        "archive.read_s": read_s,
        "archive.read_mib_s": rate(count("archive.read", "bytes") / 2**20, read_s),
        "archive.write_s": write_s,
        "archive.write_mib_s": rate(count("archive.write", "bytes") / 2**20, write_s),
        "archive.read_rss_mib": rss_after("archive.read"),
        "task_vectors.validate_s": total("task_vectors.validate"),
        "task_vectors.compute_s": total("task_vectors.compute"),
        "task_vectors.rss_mib": rss_after("task_vectors.compute"),
        "grouping.group_s": total("grouping.group"),
        "grouping.flatten_s": total("grouping.flatten"),
        "grouping.unflatten_s": total("grouping.unflatten"),
        "conflict.layer_conflict_s": conflict_s,
        "conflict.pairs": count("conflict.layer_conflict", "pairs"),
        "conflict.pair_melems_s": rate(count("conflict.layer_conflict", "pair_elems") / 1e6,
                                       conflict_s),
        "conflict.rss_mib": rss_after("conflict.layer_conflict"),
        "allocation.allocate_s": total("allocation.allocate"),
        "allocation.iterations": count("allocation.allocate", "iterations"),
        "merging.trim_s": trim_s,
        "merging.trim_melems_s": rate(count("merging.trim", "elems") / 1e6, trim_s),
        "merging.elect_s": total("merging.elect"),
        "merging.disjoint_merge_s": total("merging.disjoint_merge"),
        "merging.rss_mib": rss_after("merging.compose"),
        "merging.compose_s": total("merging.compose"),
        "merging.simple_average_s": total("merging.simple_average"),
        "merging.kept_frac": rate(kept, sum(s["seen"] for s in checks)),
        "merging.elect_survival_frac": rate(sum(s["surviving"] for s in checks), kept),
        "diagnostics.report_s": total("diagnostics.report"),
        "trace.uncovered_s": _uncovered_s(job),
    }


def trim_layer_ms(jobs: list[Job]) -> list[float]:
    """Trim time of each layer group (all tasks), pooled over the traced jobs."""
    out = []
    for job in jobs:
        for i, span in enumerate(job.spans):
            if span["name"] == "merging.layer":
                out.append(1e3 * sum(s["end"] - s["start"] for s in job.spans
                                     if s["name"] == "merging.trim" and s["parent"] == i))
    return out


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  src_dir: Path, work_root: Path) -> dict:
    """One run: set up, run jobs for ``seconds``, check outputs, compute metrics."""
    env = child_env(src_dir)
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    log = SpanLog()
    jobs: list[Job] = []
    try:
        t = time.monotonic()
        setup_times = prepare(workload, seed, work, env)
        log.add("setup", t, time.monotonic(), repeats=SETUP_REPEATS, setup_s=setup_times)
        loop_start = time.monotonic()
        while len(jobs) < MIN_JOBS or time.monotonic() - loop_start < seconds:
            jobs.append(run_job(len(jobs), workload, work, env, traced=trace and len(jobs) % 2 == 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_digests(jobs, workload, seed)

    cli_jobs = [j for j in jobs if not j.traced]
    traced_jobs = [j for j in jobs if j.traced]
    wall_s = statistics.median(j.wall_s for j in cli_jobs)
    if trace:
        per_job = [layer_metrics(j) for j in traced_jobs]
        metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
        trims = trim_layer_ms(traced_jobs)
        trim_tail = tail_percentile(trims)
        metrics["merging.trim_layer_ms.p50"] = statistics.median(trims) if trims else 0.0
        metrics["merging.trim_layer_ms.tail"] = trim_tail[1] if trim_tail else 0.0
        traced_wall = statistics.median(j.wall_s for j in traced_jobs)
        metrics["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall_s,
            "mparams_per_s": workload.tasks * workload.params / wall_s / 1e6,
            "peak_rss_mib": statistics.median(j.peak_rss_mib for j in cli_jobs),
            "setup_s": statistics.median(setup_times),
        }
        trims, trim_tail = [], None
        units = END_TO_END

    for job in jobs:
        log.add_job(job)
    failed = sum(1 for j in jobs if j.problems)
    wall_tail = tail_percentile([j.wall_s for j in cli_jobs])
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": {
            "workload": workload.name,
            "environment": environment(seed, env),
            "failed_frac": failed / len(jobs),
            "cli_jobs": len(cli_jobs),
            "traced_jobs": len(traced_jobs),
            "wall_s_tail": wall_tail,
            "trim_layer_samples": len(trims),
            "trim_layer_ms_tail": trim_tail,
            "problems": {j.id: j.problems for j in jobs if j.problems},
            "digests": [j.digests for j in jobs],
        },
        "spans": log.spans,
    }


def _describe_tail(tail: tuple[float, float] | None, n: int) -> str:
    if tail is None:
        return f"n={n}, no tail percentile (needs >= 20 samples)"
    return f"n={n}, p{tail[0]:g} = {tail[1]:.6g}"


def print_result(result: dict) -> None:
    details = result["details"]
    print(f"# workload {details['workload']}  environment {json.dumps(details['environment'])}")
    print(f"# jobs: {details['cli_jobs']} CLI, {details['traced_jobs']} traced; "
          f"failed_frac {details['failed_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    print(f"# wall_s per CLI job: {_describe_tail(details['wall_s_tail'], details['cli_jobs'])}")
    if details["traced_jobs"]:
        print(f"# merging.trim_layer_ms: "
              f"{_describe_tail(details['trim_layer_ms_tail'], details['trim_layer_samples'])}")
    for job_id, problems in details["problems"].items():
        for problem in problems:
            print(f"# job {job_id} FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def _stop(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src_dir = ROOT / "src"
    if not (src_dir / "malsmerge" / "__init__.py").is_file():
        print(f"bench: no malsmerge sources under {src_dir}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    workload = WORKLOADS[args.workload]
    result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace),
                           src_dir, ROOT / ".perfbench")
    spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    spans_path.write_text(json.dumps({"details": result["details"], "spans": result["spans"]}))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
