"""Command-line front end: merge, analyze, diff, info, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
shape/key mismatch, malformed archive), 3 numerical failure (allocation
non-convergence), 130 interrupted (SIGINT, or SIGTERM through the
``malsmerge`` command).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import signal
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .allocation import AllocationConfig, coerce_field_types, config_key, wrong_type
from .archive import archive_writer, read_archive, tensor_shapes
from .diagnostics import REPORT_FORMATS, LayerDiagnostics
from .errors import ArchiveError, ConvergenceError, ValidationError
from .grouping import DEFAULT_GROUPING_PATTERN, member_offsets
from .merging import MergeConfig, _slices, config_fields, config_metadata, merge_to_archive, plan
from .synthetic import write_synthetic_set
from .task_vectors import require_compatible, update_range

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # as shells report a process that SIGINT ended


def _expect(value: object, kind: type, key: str) -> object:
    if not isinstance(value, kind):
        raise wrong_type(key, kind, value)
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a merge config file. Every field but ``merge_config``, whose
    keys sit beside them in the file, is a config key, required if it has no default."""

    base_path: str
    tuned_paths: tuple[tuple[str, str], ...]
    output_path: str
    merge_config: MergeConfig = field(default_factory=MergeConfig)
    report_path: str | None = None
    report_format: str = "json"

    def __post_init__(self) -> None:
        coerce_field_types(self)
        pairs = self.tuned_paths
        if not (isinstance(pairs, tuple) and pairs and all(
            isinstance(p, tuple) and len(p) == 2 and all(isinstance(s, str) for s in p) for p in pairs
        )):
            raise ValidationError("tuned_paths must be a non-empty tuple of (path, label) string pairs")
        if self.report_format not in REPORT_FORMATS:
            raise ValidationError(f"report_format must be one of {REPORT_FORMATS}")


_CONFIG_KEYS = {*(f.name for f in fields(RunConfig)), *config_fields(MergeConfig())} - {"merge_config"}


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


def _resolve(path: str) -> Path:
    try:
        return Path(path).resolve()
    except (OSError, RuntimeError) as exc:  # Python 3.10-3.12 raise RuntimeError on a symlink loop
        raise ValidationError(f"cannot resolve path {path!r}: {exc}") from exc


def _refuse_overwriting_inputs(inputs: list[str], outputs: dict[str, str | None]) -> None:
    """Reject an output path that is a directory or lies in a missing one, that
    resolves to an input or an earlier output, or any path that cannot be resolved."""
    taken = list(inputs)
    for key, target in outputs.items():
        if target is None:
            continue
        parent = Path(target).parent
        if not parent.is_dir():
            raise ValidationError(f"{key} {target!r}: directory {str(parent)!r} does not exist")
        if Path(target).is_dir():
            raise ValidationError(f"{key} {target!r} is a directory")
        resolved = _resolve(target)
        for path in taken:
            if _resolve(path) == resolved:
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
    for f in fields(RunConfig):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ValidationError(f"config is missing required key {f.name!r}")

    # absent keys take the dataclass defaults; the dataclasses check each key's type
    allocation = AllocationConfig(**_fields_in(raw, AllocationConfig))
    merge_config = MergeConfig(**_fields_in(raw, MergeConfig), allocation=allocation)
    run_keys = {**_fields_in(raw, RunConfig), "tuned_paths": _parse_tuned_paths(raw["tuned_paths"])}
    cfg = RunConfig(**run_keys, merge_config=merge_config)
    _refuse_overwriting_inputs(
        [str(path), cfg.base_path, *(p for p, _ in cfg.tuned_paths)],
        {"output_path": cfg.output_path, "report_path": cfg.report_path},
    )
    return cfg


def _cmd_merge(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    base = read_archive(cfg.base_path)
    tuned = [read_archive(path) for path, _ in cfg.tuned_paths]
    labels = [label for _, label in cfg.tuned_paths]
    method = cfg.merge_config.method
    conflict, allocation = merge_to_archive(
        base, tuned, cfg.merge_config, cfg.output_path, labels=labels,
        metadata=config_metadata(cfg.merge_config),
    )
    print(f"merged {len(tuned)} checkpoints via {method} -> {cfg.output_path}")
    if cfg.report_path is not None:
        if allocation is None or conflict is None:
            print(
                "warning: simple_average produces no per-layer diagnostics; skipping report",
                file=sys.stderr,
            )
        else:
            diag = LayerDiagnostics.from_results(conflict, allocation, method)
            diag.write(cfg.report_path, cfg.report_format)
            print(f"report written to {cfg.report_path}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    # merge's own pass 1 and allocation, as a default mals merge would run them
    config = MergeConfig(grouping_pattern=args.pattern)
    _refuse_overwriting_inputs([args.base, *args.tuned], {"--out": args.out})
    base = read_archive(args.base)
    tuned = [read_archive(path) for path in args.tuned]
    labels = [Path(path).stem for path in args.tuned]
    grouping, conflict, allocation = plan(base, tuned, config, labels=labels)
    diag = LayerDiagnostics.from_results(conflict, allocation, "analyze")
    diag.write(args.out, args.format)
    print(f"analyzed {len(tuned)} checkpoints over {len(grouping)} layers -> {args.out}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    _refuse_overwriting_inputs([args.base, args.tuned], {"--out": args.out})
    base = read_archive(args.base)
    tuned = read_archive(args.tuned)
    label = Path(args.tuned).stem
    require_compatible(base, tuned, f"checkpoint {label!r}")  # before the file is made
    shapes = tensor_shapes(base)
    with archive_writer(shapes, args.out) as write_range:
        for name, _, start, stop in _slices(shapes, member_offsets(shapes, shapes)):
            b = base.read_range(name, start, stop)  # each slice lies in one tensor, a group of one
            write_range(name, start, update_range(tuned.read_range, [name], [0, stop], start, b))
    print(f"task vector for {label} -> {args.out}")
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    archive = read_archive(args.archive)  # reads the header only
    for name, info in sorted(archive.infos.items()):
        dims = "x".join(str(d) for d in info.shape) if info.shape else "scalar"
        print(f"{name}  {info.dtype}  {dims}  ({info.n_bytes} bytes)")
    if archive.metadata:
        print(f"metadata: {json.dumps(archive.metadata, sort_keys=True)}")
    print(f"{len(archive)} tensors")
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
    except KeyboardInterrupt:  # the file being written is removed on the way here
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _reuse_freed_memory() -> None:
    """Have glibc keep freed memory for the next layer instead of returning it, in one arena.

    Each layer frees arrays that the next one allocates again. By default glibc
    returns freed heap past twice the largest array freed so far, so every
    layer's arrays are faulted in anew: `analyze` over 64 layers × 100k
    entries × 8 tasks took 181k page faults, against 3k with these settings,
    and 1.3-1.5 times as long. Kept pages were touched before, so peak RSS
    does not grow. By default glibc also gives each worker thread an arena of
    its own, which keeps the memory that thread freed apart from the heap the
    main thread freed: with one arena a worker allocates from that heap, and a
    `mals` merge over 24 layers × 400k entries × 4 tasks on two workers peaked
    at 51 MiB, against 57-60 MiB with an arena per thread. Off Linux, a no-op.
    """
    if sys.platform == "linux":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB of freed heap
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB come from the heap
        mallopt(-8, 1)  # M_ARENA_MAX: worker threads allocate from the main heap too


def entrypoint() -> None:
    # SIGTERM raises KeyboardInterrupt in the main thread, as SIGINT does, so a write in
    # progress removes its temp file and run() exits 130. Set here, not in run(), so that
    # library callers keep their own handlers
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    _reuse_freed_memory()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
