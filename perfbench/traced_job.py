"""Traced decomposition of one ``malsmerge merge`` or ``malsmerge analyze`` job.

Performs the same job as the CLI, with the same arguments, by calling each
module's public functions in the order ``cli._cmd_merge`` and
``merging.merge`` (or ``cli._cmd_analyze``) call them, and times every call
from outside. It must write the same bytes as the CLI job; the benchmark
checks that.

Usage: python3 traced_job.py RESULT_JSON merge --config CONFIG
       python3 traced_job.py RESULT_JSON analyze --base B --tuned T ... --out R

RESULT_JSON receives ``spans`` and ``failures``. A span holds its name,
``start`` and ``end`` in CLOCK_MONOTONIC seconds (comparable across
processes), the index of its parent span or null, ``rss_mib`` (the process's
RSS high-water mark when the span ended) and any counts recorded at that
boundary. ``failures`` lists trim checks that did not hold: per task and
layer, trimming must keep ``ceil((1 - s_l) * n_l)`` entries.
"""

from __future__ import annotations

import json
import math
import os
import resource
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from malsmerge.allocation import AllocationConfig, allocate
from malsmerge.archive import read_archive, write_archive
from malsmerge.cli import build_parser, load_run_config
from malsmerge.conflict import layer_conflict
from malsmerge.diagnostics import LayerDiagnostics
from malsmerge.errors import ConvergenceError, ValidationError
from malsmerge.grouping import flatten_group, group_layers, unflatten_group
from malsmerge.merging import (
    compose_merged,
    config_metadata,
    disjoint_merge,
    elect_signs,
    simple_average,
    sparsify_top_fraction,
)
from malsmerge.task_vectors import TaskVector, compute_task_vector, validate_compatibility


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _payload_bytes(path: str | Path) -> int:
    """Bytes of tensor payload in an archive: file size minus both header parts."""
    with open(path, "rb") as f:
        (header_len,) = struct.unpack("<Q", f.read(8))
    return os.path.getsize(path) - 8 - header_len


class Tracer:
    """Spans kept in memory; a span's parent is an index into ``spans``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts: object) -> Iterator[dict]:
        record = {"name": name, "parent": self._open[-1] if self._open else None, **counts}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            record["rss_mib"] = _peak_rss_mib()
            self._open.pop()


def _trim_counts(flats, trimmed, signs, level: float, layer_id: str, failures: list[str]) -> dict:
    """Entries seen, kept and surviving election in one layer; checks kept counts.

    Trimming keeps ``ceil((1 - s) * n)`` entries by magnitude, so the nonzero
    entries it keeps number that, or every nonzero entry if there are fewer.
    """
    seen = kept = surviving = 0
    for task, (flat, out) in enumerate(zip(flats, trimmed)):
        expected = math.ceil((1.0 - level) * flat.size)
        nonzero = int(np.count_nonzero(out))
        if nonzero != min(expected, int(np.count_nonzero(flat))):
            failures.append(f"{layer_id} task {task}: kept {nonzero} entries, expected {expected}")
        seen += flat.size
        kept += nonzero
        if signs is None:
            surviving += nonzero
        else:
            surviving += int(np.count_nonzero(((signs > 0) & (out > 0)) | ((signs < 0) & (out < 0))))
    return {"seen": seen, "kept": kept, "surviving": surviving}


def _conflict_counts(task_vectors, grouping) -> dict:
    """Task pairs times layer groups, and task pairs times elements, that conflict scores."""
    n_pairs = len(task_vectors) * (len(task_vectors) - 1) // 2
    deltas = task_vectors[0].deltas
    elems = sum(deltas[name].size for _, members in grouping.groups for name in members)
    return {"pairs": n_pairs * len(grouping), "pair_elems": n_pairs * elems}


def _merge(tracer: Tracer, base, tuned, config, labels, failures: list[str]):
    """``merging.merge`` call by call; returns the merged map, tau, allocation and conflict."""
    with tracer.span("task_vectors.validate"):
        report = validate_compatibility(base, tuned, labels)
    if not report.all_ok:
        bad = next(entry for entry in report.entries if not entry.ok)
        raise ValidationError(f"checkpoint {bad.label!r} incompatible at {bad.first_mismatch!r}")
    task_vectors = []
    for checkpoint, label in zip(tuned, labels):
        with tracer.span("task_vectors.compute"):
            task_vectors.append(compute_task_vector(base, checkpoint, label))

    if config.method == "simple_average":
        with tracer.span("merging.simple_average"):
            tau = simple_average(task_vectors)
        with tracer.span("merging.compose"):
            merged = compose_merged(base, tau, config.lam)
        return merged, tau, None, None

    with tracer.span("grouping.group"):
        grouping = group_layers(base, config.grouping_pattern)
    with tracer.span("conflict.layer_conflict", **_conflict_counts(task_vectors, grouping)):
        conflict = layer_conflict(task_vectors, grouping)

    alloc_config = config.allocation
    if config.method in ("uniform_sparsity", "ties"):
        alloc_config = replace(
            alloc_config, s_min=alloc_config.s_target, s_max=alloc_config.s_target
        )
    with tracer.span("allocation.allocate") as record:
        allocation = allocate(conflict, alloc_config)
    record["iterations"] = allocation.iterations
    if not allocation.converged:
        raise ConvergenceError("budget projection did not converge")

    election = config.sign_election or config.method == "ties"
    shapes = {key: base[key].shape for key in base}
    deltas: dict[str, np.ndarray] = {}
    with tracer.span("merging.layers"):
        for level, (layer_id, members) in zip(allocation.s_final, grouping.groups):
            with tracer.span("merging.layer", layer=layer_id):
                flats = []
                for tv in task_vectors:
                    with tracer.span("grouping.flatten"):
                        flats.append(flatten_group(tv.deltas, members))
                trimmed = []
                for flat in flats:
                    with tracer.span("merging.trim", elems=flat.size):
                        trimmed.append(sparsify_top_fraction(flat, float(level)))
                signs = None
                if election:
                    with tracer.span("merging.elect"):
                        signs = elect_signs(trimmed)
                with tracer.span("merging.disjoint_merge"):
                    merged_flat = disjoint_merge(trimmed, signs)
                with tracer.span("grouping.unflatten"):
                    deltas.update(unflatten_group(merged_flat, shapes, members))
                with tracer.span("trace.check") as record:
                    record.update(
                        _trim_counts(flats, trimmed, signs, float(level), layer_id, failures)
                    )
    tau = TaskVector(label=config.method, deltas=deltas)
    with tracer.span("merging.compose"):
        merged = compose_merged(base, tau, config.lam)
    return merged, tau, allocation, conflict


def merge_job(tracer: Tracer, config_path: str, failures: list[str]) -> None:
    """``cli._cmd_merge`` call by call."""
    cfg = load_run_config(config_path)
    with tracer.span("archive.read", bytes=_payload_bytes(cfg.base_path)):
        base = read_archive(cfg.base_path)
    tuned = []
    for path, _ in cfg.tuned_paths:
        with tracer.span("archive.read", bytes=_payload_bytes(path)):
            tuned.append(read_archive(path))
    labels = [label for _, label in cfg.tuned_paths]
    # _tau stays referenced until return, as MergeOutput.tau_merged does in the CLI
    merged, _tau, allocation, conflict = _merge(
        tracer, base, tuned, cfg.merge_config, labels, failures
    )
    with tracer.span("archive.write") as record:
        write_archive(merged, cfg.output_path, metadata=config_metadata(cfg.merge_config))
    record["bytes"] = _payload_bytes(cfg.output_path)
    if cfg.report_path is not None and allocation is not None:
        with tracer.span("diagnostics.report"):
            diag = LayerDiagnostics.from_results(conflict, allocation, cfg.merge_config.method)
            diag.write(cfg.report_path, cfg.report_format)


def analyze_job(tracer: Tracer, args) -> None:
    """``cli._cmd_analyze`` call by call."""
    with tracer.span("archive.read", bytes=_payload_bytes(args.base)):
        base = read_archive(args.base)
    with tracer.span("grouping.group"):
        grouping = group_layers(base, args.pattern)
    task_vectors = []
    for path in args.tuned:
        with tracer.span("archive.read", bytes=_payload_bytes(path)):
            tuned = read_archive(path)
        with tracer.span("task_vectors.compute"):
            task_vectors.append(compute_task_vector(base, tuned, Path(path).stem))
        del tuned
    with tracer.span("conflict.layer_conflict", **_conflict_counts(task_vectors, grouping)):
        conflict = layer_conflict(task_vectors, grouping)
    with tracer.span("allocation.allocate") as record:
        allocation = allocate(conflict, AllocationConfig())
    record["iterations"] = allocation.iterations
    with tracer.span("diagnostics.report"):
        diag = LayerDiagnostics.from_results(conflict, allocation, "analyze")
        diag.write(args.out, args.format)


def main(argv: list[str]) -> int:
    result_path = argv[0]
    args = build_parser().parse_args(argv[1:])
    tracer = Tracer()
    failures: list[str] = []
    if args.command == "merge":
        merge_job(tracer, args.config, failures)
    elif args.command == "analyze":
        analyze_job(tracer, args)
    else:
        raise SystemExit(f"traced_job: unsupported command {args.command!r}")
    Path(result_path).write_text(json.dumps({"spans": tracer.spans, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
