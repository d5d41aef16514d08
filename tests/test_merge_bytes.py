"""Pin the sha256 of every file `merge`, `analyze` and `diff` write on small inputs.

Each case runs through ``cli.run``, so the tensor payload, the archive
``__metadata__`` and the report text are all covered. The digests in
``golden/merge_bytes.json`` were taken before the refactors they guard; a
change that alters any output byte must re-pin it on purpose.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from malsmerge import synthesize_checkpoints, write_archive
from malsmerge import merging
from malsmerge.cli import run
from malsmerge.merging import METHODS

GOLDEN = Path(__file__).parent / "golden" / "merge_bytes.json"

# the default pattern leaves embed.weight ungrouped; this one also pools
# every mlp tensor and the empty norm layer into "ungrouped"
PATTERNS = {"default": None, "attn-only": r"layers\.(\d+)\.attn"}


def _noisy(tuned: list[dict[str, np.ndarray]], seed: int) -> list[dict[str, np.ndarray]]:
    """Add off-grid noise, so deltas and composes round at 32 bits."""
    rng = np.random.RandomState(seed)  # legacy stream: fixed across numpy versions
    return [
        {name: (t + np.float32(1e-3) * rng.standard_normal(t.shape).astype(np.float32))
         for name, t in sorted(checkpoint.items())}
        for checkpoint in tuned
    ]


def _write_f16(tensors: dict[str, np.ndarray], path: Path) -> None:
    """An F16 archive assembled by hand: ``write_archive`` writes only F32."""
    header, payload = {}, b""
    for name in sorted(tensors):
        raw = tensors[name].astype("<f2").tobytes()
        header[name] = {
            "dtype": "F16",
            "shape": list(tensors[name].shape),
            "data_offsets": [len(payload), len(payload) + len(raw)],
        }
        payload += raw
    blob = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def _write_set(out: Path, base, tuned, f16_tasks=()) -> dict[str, object]:
    out.mkdir()
    write_archive(base, out / "base.safetensors")
    paths = []
    for i, checkpoint in enumerate(tuned):
        path = out / f"task_{i:02d}.safetensors"
        (_write_f16 if i in f16_tasks else write_archive)(checkpoint, path)
        paths.append(path)
    return {"base": out / "base.safetensors", "tasks": paths}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    sets = {}

    # four layers, an ungrouped tensor and an empty layer group
    base, tuned = synthesize_checkpoints(3, 4, 40, 3, [0.9, 0.6, 0.3, 0.0])
    rng = np.random.RandomState(4)
    base["embed.weight"] = rng.standard_normal((5, 4)).astype(np.float32)
    base["model.layers.4.norm.weight"] = np.zeros(0, np.float32)
    for checkpoint in tuned:
        checkpoint["embed.weight"] = base["embed.weight"]
        checkpoint["model.layers.4.norm.weight"] = base["model.layers.4.norm.weight"]
    sets["main"] = _write_set(root / "main", base, _noisy(tuned, 5))

    # one tuned checkpoint stored as F16
    base, tuned = synthesize_checkpoints(6, 3, 24, 3, [0.8, 0.4, 0.1])
    sets["f16"] = _write_set(root / "f16", base, _noisy(tuned, 7), f16_tasks=(1,))

    # one-element layers with nine tasks: the task-order sums see 1-element rows
    base, tuned = synthesize_checkpoints(8, 3, 1, 9, [0.7, 0.5, 0.2])
    sets["nine-tasks"] = _write_set(root / "nine-tasks", base, _noisy(tuned, 9))

    # layer groups of 150k entries, off the grid: over two slices, so they run on the worker
    # pool, and over 65,536 entries, so each sum of products adds several parts of numpy's
    # pairwise tree and each cast sum many of its 8,192-entry buffers
    base, tuned = synthesize_checkpoints(10, 2, 150_000, 3, [0.7, 0.3])
    sets["wide"] = _write_set(root / "wide", base, _noisy(tuned, 11))
    return sets


def _merge(method, election, lam, pattern):
    def argv(paths, out):
        cfg = {
            "base_path": str(paths["base"]),
            "tuned_paths": [
                {"path": str(p), "label": f"task{i}"} for i, p in enumerate(paths["tasks"])
            ],
            "output_path": str(out / "merged.safetensors"),
            "report_path": str(out / "report.json"),
            "method": method,
            "sign_election": election,
            "lambda": lam,
        }
        if PATTERNS[pattern] is not None:
            cfg["grouping_pattern"] = PATTERNS[pattern]
        config = out.parent / "cfg.json"
        config.write_text(json.dumps(cfg))
        return ["merge", "--config", str(config)]

    return argv


def _analyze(fmt):
    def argv(paths, out):
        return ["analyze", "--base", str(paths["base"]),
                "--tuned", *(str(p) for p in paths["tasks"]),
                "--format", fmt, "--out", str(out / f"report.{fmt}")]

    return argv


def _diff(paths, out):
    return ["diff", "--base", str(paths["base"]), "--tuned", str(paths["tasks"][1]),
            "--out", str(out / "delta.safetensors")]


# case id -> (input set, argv builder)
CASES = {
    f"merge-{method}-{'elect' if election else 'noelect'}-lam{lam}-{pattern}":
        ("main", _merge(method, election, lam, pattern))
    for method, election, lam, pattern in product(METHODS, (False, True), (1.0, 0.7), PATTERNS)
}
CASES.update({
    "analyze-json": ("main", _analyze("json")),
    "analyze-csv": ("main", _analyze("csv")),
    "diff": ("main", _diff),
    "f16-merge-mals-elect": ("f16", _merge("mals", True, 1.0, "default")),
    "f16-merge-simple_average": ("f16", _merge("simple_average", False, 0.7, "default")),
    "f16-analyze-json": ("f16", _analyze("json")),
    "nine-tasks-merge-mals-elect": ("nine-tasks", _merge("mals", True, 1.0, "default")),
    "nine-tasks-merge-mals-noelect": ("nine-tasks", _merge("mals", False, 0.7, "default")),
    "nine-tasks-merge-simple_average": ("nine-tasks", _merge("simple_average", False, 1.0,
                                                             "default")),
    "nine-tasks-analyze-csv": ("nine-tasks", _analyze("csv")),
})
WIDE_CASES = {
    "wide-merge-mals-elect": ("wide", _merge("mals", True, 1.0, "default")),
    "wide-merge-ties": ("wide", _merge("ties", False, 0.7, "default")),
    "wide-merge-uniform_sparsity": ("wide", _merge("uniform_sparsity", False, 1.0, "default")),
    "wide-merge-simple_average": ("wide", _merge("simple_average", False, 0.7, "default")),
    "wide-analyze-json": ("wide", _analyze("json")),
}
CASES.update(WIDE_CASES)


def case_digests(case_id: str, sets: dict, work: Path) -> dict[str, str]:
    """Run one case in ``work`` and return the sha256 of each file it wrote."""
    input_set, argv = CASES[case_id]
    out = work / "out"
    out.mkdir()
    assert run(argv(sets[input_set], out)) == 0, case_id
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_output_bytes_match_the_pins(case_id, inputs, tmp_path):
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(CASES)
    got = case_digests(case_id, inputs, tmp_path)
    assert got == pinned[case_id], f"{case_id}: got {got}, pinned {pinned[case_id]}"


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("case_id", sorted(WIDE_CASES))
def test_wide_layers_give_the_pinned_bytes_at_any_worker_count(case_id, workers, inputs, tmp_path,
                                                                monkeypatch):
    monkeypatch.setattr(merging, "_workers", lambda: workers)
    got = case_digests(case_id, inputs, tmp_path)
    assert got == json.loads(GOLDEN.read_text())[case_id], f"{case_id} at {workers} workers"
