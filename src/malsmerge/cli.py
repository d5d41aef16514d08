"""Command-line front end: merge, analyze, diff, info, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
shape/key mismatch, malformed archive), 3 numerical failure (allocation
non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .allocation import AllocationConfig, config_key
from .archive import archive_info, read_archive, write_archive
from .diagnostics import REPORT_FORMATS, LayerDiagnostics
from .errors import ArchiveError, ConvergenceError, ValidationError
from .grouping import DEFAULT_GROUPING_PATTERN
from .merging import MergeConfig, config_fields, config_metadata, merge, plan
from .synthetic import write_synthetic_set
from .task_vectors import compute_task_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_RUN_KEYS = ("base_path", "tuned_paths", "output_path", "report_path", "report_format")
_CONFIG_KEYS = {*_RUN_KEYS, *config_fields(MergeConfig())}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a merge config file."""

    base_path: str
    tuned_paths: tuple[tuple[str, str], ...]
    output_path: str
    merge_config: MergeConfig
    report_path: str | None = None
    report_format: str = "json"


def _expect(value: object, kind: type, key: str) -> object:
    if not isinstance(value, kind):
        raise ValidationError(
            f"config key {key!r} has wrong type: expected {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _parse_tuned_paths(raw: object) -> tuple[tuple[str, str], ...]:
    entries = _expect(raw, list, "tuned_paths")
    if not entries:
        raise ValidationError("tuned_paths must not be empty")
    parsed = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"tuned_paths[{i}] must be an object with 'path' and 'label'")
        unknown = set(entry) - {"path", "label"}
        if unknown:
            raise ValidationError(f"unknown keys in tuned_paths[{i}]: {sorted(unknown)}")
        if "path" not in entry:
            raise ValidationError(f"tuned_paths[{i}] is missing 'path'")
        path = _expect(entry["path"], str, f"tuned_paths[{i}].path")
        label = entry.get("label", Path(path).stem)
        _expect(label, str, f"tuned_paths[{i}].label")
        parsed.append((path, label))
    return tuple(parsed)


def _fields_in(raw: dict, config_class: type) -> dict:
    """The fields of a config dataclass that ``raw`` holds, by field name."""
    return {f.name: raw[config_key(f)] for f in fields(config_class) if config_key(f) in raw}


def _refuse_overwriting_inputs(inputs: list[str], outputs: dict[str, str | None]) -> None:
    """Reject an output path that is a directory or lies in a missing one, or
    that resolves to an input or an earlier output."""
    taken = list(inputs)
    for key, target in outputs.items():
        if target is None:
            continue
        parent = Path(target).parent
        if not parent.is_dir():
            raise ValidationError(f"{key} {target!r}: directory {str(parent)!r} does not exist")
        if Path(target).is_dir():
            raise ValidationError(f"{key} {target!r} is a directory")
        for path in taken:
            if Path(path).resolve() == Path(target).resolve():
                raise ValidationError(f"{key} {target!r} collides with {path!r}")
        taken.append(target)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a merge config file; unknown keys are errors."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not JSON, too deep, huge int
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("base_path", "tuned_paths", "output_path"):
        if key not in raw:
            raise ValidationError(f"config is missing required key {key!r}")

    base_path = _expect(raw["base_path"], str, "base_path")
    tuned_paths = _parse_tuned_paths(raw["tuned_paths"])
    output_path = _expect(raw["output_path"], str, "output_path")
    report_path = raw.get("report_path")
    if report_path is not None:
        _expect(report_path, str, "report_path")
    _refuse_overwriting_inputs(
        [str(path), base_path, *(p for p, _ in tuned_paths)],
        {"output_path": output_path, "report_path": report_path},
    )

    # absent keys take the dataclass defaults; the dataclasses check each key's type
    allocation = AllocationConfig(**_fields_in(raw, AllocationConfig))
    merge_config = MergeConfig(**_fields_in(raw, MergeConfig), allocation=allocation)

    report_format = _expect(raw.get("report_format", "json"), str, "report_format")
    if report_format not in REPORT_FORMATS:
        raise ValidationError(f"report_format must be one of {REPORT_FORMATS}")
    return RunConfig(
        base_path=base_path,
        tuned_paths=tuned_paths,
        output_path=output_path,
        merge_config=merge_config,
        report_path=report_path,
        report_format=report_format,
    )


def _cmd_merge(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    base = read_archive(cfg.base_path)
    tuned = [read_archive(path) for path, _ in cfg.tuned_paths]
    labels = [label for _, label in cfg.tuned_paths]
    method = cfg.merge_config.method
    output = merge(base, tuned, cfg.merge_config, labels=labels)
    write_archive(output.merged, cfg.output_path, metadata=config_metadata(cfg.merge_config))
    print(f"merged {len(tuned)} checkpoints via {method} -> {cfg.output_path}")
    if cfg.report_path is not None:
        if output.allocation is None or output.conflict is None:
            print(
                "warning: simple_average produces no per-layer diagnostics; skipping report",
                file=sys.stderr,
            )
        else:
            diag = LayerDiagnostics.from_results(output.conflict, output.allocation, method)
            diag.write(cfg.report_path, cfg.report_format)
            print(f"report written to {cfg.report_path}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    _refuse_overwriting_inputs([args.base, *args.tuned], {"--out": args.out})
    base = read_archive(args.base)
    tuned = [read_archive(path) for path in args.tuned]
    labels = [Path(path).stem for path in args.tuned]
    # merge's own pass 1 and allocation, as a default mals merge would run them
    grouping, conflict, allocation = plan(
        base, tuned, MergeConfig(grouping_pattern=args.pattern), labels=labels
    )
    diag = LayerDiagnostics.from_results(conflict, allocation, "analyze")
    diag.write(args.out, args.format)
    print(f"analyzed {len(tuned)} checkpoints over {len(grouping)} layers -> {args.out}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    _refuse_overwriting_inputs([args.base, args.tuned], {"--out": args.out})
    base = read_archive(args.base)
    tuned = read_archive(args.tuned)
    tau = compute_task_vector(base, tuned, Path(args.tuned).stem)
    write_archive(tau.deltas, args.out)
    print(f"task vector for {tau.label} -> {args.out}")
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    infos, metadata = archive_info(args.archive)
    for info in infos:
        dims = "x".join(str(d) for d in info.shape) if info.shape else "scalar"
        print(f"{info.name}  {info.dtype}  {dims}  ({info.n_bytes} bytes)")
    if metadata:
        print(f"metadata: {json.dumps(metadata, sort_keys=True)}")
    print(f"{len(infos)} tensors")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        profile = [float(p) for p in args.conflict.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad conflict profile {args.conflict!r}: {exc}") from exc
    paths = write_synthetic_set(
        args.out_dir, args.seed, args.layers, args.elems, args.tasks, profile
    )
    print(f"base -> {paths['base']}")
    for path in paths["tasks"]:
        print(f"task -> {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="malsmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge checkpoints per a JSON config")
    p_merge.add_argument("--config", required=True, help="path to the merge config JSON")
    p_merge.set_defaults(func=_cmd_merge)

    p_analyze = sub.add_parser("analyze", help="report per-layer conflict and allocation")
    p_analyze.add_argument("--base", required=True)
    p_analyze.add_argument("--tuned", required=True, nargs="+")
    p_analyze.add_argument("--pattern", default=DEFAULT_GROUPING_PATTERN)
    p_analyze.add_argument("--format", default="json", choices=REPORT_FORMATS)
    p_analyze.add_argument("--out", required=True)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_diff = sub.add_parser("diff", help="write a task vector as an archive")
    p_diff.add_argument("--base", required=True)
    p_diff.add_argument("--tuned", required=True)
    p_diff.add_argument("--out", required=True)
    p_diff.set_defaults(func=_cmd_diff)

    p_info = sub.add_parser("info", help="list an archive's tensors")
    p_info.add_argument("--archive", required=True)
    p_info.set_defaults(func=_cmd_info)

    p_synth = sub.add_parser("synth", help="generate synthetic checkpoint sets")
    p_synth.add_argument("--seed", required=True, type=int)
    p_synth.add_argument("--layers", required=True, type=int)
    p_synth.add_argument("--elems", required=True, type=int)
    p_synth.add_argument("--tasks", required=True, type=int)
    p_synth.add_argument("--conflict", required=True, help="comma-separated per-layer targets")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Dispatch a CLI invocation and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ArchiveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
