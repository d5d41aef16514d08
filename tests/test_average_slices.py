"""Pass 2 walks each layer group in fixed slices, and a large group's jobs run on a pool.

Every step of the average, and of election, merge and compose, works position
by position, and each task's trim and pass-1 scores are its own: so the merged
bytes must not depend on the slice size or on the worker count, and a failure
must raise the error that a serial walk in (task, member, offset) order meets
first.
"""

from __future__ import annotations

import json
import os
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from malsmerge import (
    METHODS, ArchiveError, MergeConfig, ValidationError, merge, merge_to_archive, read_archive,
    write_archive, write_synthetic_set,
)
from malsmerge import merging, task_vectors
from malsmerge.archive import Archive

SHAPES = {
    "embed.weight": (7,),
    "model.layers.0.attn.weight": (5, 6),
    "model.layers.0.mlp.weight": (23,),
    "model.layers.1.attn.weight": (4, 4, 3),
    "model.layers.1.empty": (0, 3),
    "scale": (),
}
LARGER_THAN_ANY_TENSOR = 1 + max(int(np.prod(shape)) for shape in SHAPES.values())


def _write_raw(tensors: dict[str, np.ndarray], path: Path, dtype: str = "F32") -> None:
    """An archive assembled by hand, in ``dtype``, whatever its values: ``write_archive``
    writes only finite F32."""
    header, payload = {}, b""
    for name in sorted(tensors):
        raw = np.asarray(tensors[name]).astype({"F32": "<f4", "F16": "<f2"}[dtype]).tobytes()
        header[name] = {"dtype": dtype, "shape": list(np.shape(tensors[name])),
                        "data_offsets": [len(payload), len(payload) + len(raw)]}
        payload += raw
    blob = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def _checkpoints(dtype, tasks: int = 3) -> tuple[dict, list[dict]]:
    """Off-grid float inputs, so updates, means and composes all round."""
    rng = np.random.RandomState(11)
    base = {name: rng.standard_normal(shape).astype(dtype) for name, shape in SHAPES.items()}
    tuned = [{name: (b + 1e-3 * rng.standard_normal(b.shape)).astype(dtype) for name, b in base.items()}
             for _ in range(tasks)]
    return base, tuned


def _inputs(kind: str, tmp_path: Path) -> tuple:
    if kind in ("float32-dict", "float64-dict"):
        return _checkpoints(np.float32 if kind == "float32-dict" else np.float64)
    base, tuned = _checkpoints(np.float32)
    stored = kind.split("-")[0]
    paths = []
    for i, checkpoint in enumerate([base, *tuned]):
        paths.append(tmp_path / f"{kind}-{i}.st")
        _write_raw(checkpoint, paths[-1], stored)
    return read_archive(paths[0]), [read_archive(path) for path in paths[1:]]


def _reference(base, tuned, lam: float) -> dict[str, bytes]:
    """The uniform average as one formula per tensor: each update rounded once to float32,
    summed in float64 in task order, divided by T and rounded to float32, then added
    ``lam`` times onto the base in float64 and rounded once to float32."""
    out = {}
    for name in SHAPES:
        b = np.asarray(base[name], dtype=np.float64)
        total = np.zeros(b.shape)
        for t in tuned:
            total += (np.asarray(t[name], dtype=np.float64) - b).astype(np.float32)
        mean = (total / len(tuned)).astype(np.float32)
        out[name] = (b + lam * mean.astype(np.float64)).astype(np.float32).tobytes()
    return out


def _use_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(merging, "_workers", lambda: workers)


def _merged(base, tuned, lam: float = 1.0) -> dict[str, np.ndarray]:
    merged, conflict, allocation = merge(base, tuned, MergeConfig(method="simple_average", lam=lam))
    assert conflict is None and allocation is None
    return dict(merged)


@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("kind", ["F32-archive", "F16-archive", "float32-dict", "float64-dict"])
def test_bytes_do_not_depend_on_slice_size_or_worker_count(tmp_path, monkeypatch, kind, lam):
    base, tuned = _inputs(kind, tmp_path)
    expected = _reference(base, tuned, lam)
    for slice_entries, workers in product([1, 7, LARGER_THAN_ANY_TENSOR, merging._SLICE_ENTRIES], [1, 2]):
        monkeypatch.setattr(merging, "_SLICE_ENTRIES", slice_entries)
        _use_workers(monkeypatch, workers)
        merged = _merged(base, tuned, lam)
        assert sorted(merged) == sorted(SHAPES)
        for name, tensor in merged.items():
            assert tensor.dtype == np.float32 and tensor.shape == SHAPES[name]
            assert tensor.tobytes() == expected[name], (slice_entries, workers, name)


def test_more_workers_than_cores_with_frequent_switches_give_the_same_bytes(tmp_path, monkeypatch):
    # the workers share the archives' descriptors and write disjoint ranges of one output:
    # a read at a wrong offset or a lost write would change some byte
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 1)
    _use_workers(monkeypatch, 6)
    base, tuned = _inputs("F16-archive", tmp_path)
    expected = _reference(base, tuned, 0.7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            merged = _merged(base, tuned, 0.7)
            assert {name: tensor.tobytes() for name, tensor in merged.items()} == expected
            merge_to_archive(base, tuned, MergeConfig(method="simple_average", lam=0.7), tmp_path / "merged.st")
            written = read_archive(tmp_path / "merged.st")
            assert {name: written[name].tobytes() for name in written} == expected
    finally:
        sys.setswitchinterval(interval)


def test_non_finite_value_in_a_later_slice_names_the_file_and_tensor(tmp_path, monkeypatch):
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4)
    base, tuned = _checkpoints(np.float32)
    tuned[1]["model.layers.0.mlp.weight"][17] = np.nan
    paths = [tmp_path / f"{i}.st" for i in range(4)]
    for checkpoint, path in zip([base, *tuned], paths):
        _write_raw(checkpoint, path)
    with pytest.raises(ArchiveError) as lookup:
        read_archive(paths[2])["model.layers.0.mlp.weight"]
    assert str(lookup.value) == f"{paths[2]}: non-finite value detected in tensor 'model.layers.0.mlp.weight'"
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with pytest.raises(ArchiveError) as walk:
            _merged(read_archive(paths[0]), [read_archive(path) for path in paths[1:]])
        assert str(walk.value) == str(lookup.value)


def test_overflowing_compose_raises_naming_the_merged_tensor(monkeypatch):
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4)
    base = {"x": np.full(10, 2e38, dtype=np.float32)}
    tuned = [{"x": np.full(10, 2e38, dtype=np.float32)} for _ in range(2)]
    tuned[0]["x"][9] = 3e38  # the mean update there is 5e37, and 3 times that overflows
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with pytest.raises(ValidationError, match=r"^merged tensor 'x' overflows 32-bit precision$"):
            _merged(base, tuned, lam=3.0)


class _SlowAtTheEnd(Archive):
    """An archive whose read of the last slice of ``layers.0.a`` takes a while."""

    def read_range(self, name: str, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        if name == "layers.0.a" and stop == 200:
            time.sleep(0.2)
        return super().read_range(name, start, stop, out)


def test_the_first_error_in_walk_order_is_raised_whatever_the_worker_count(tmp_path, monkeypatch):
    # the first member fails in its last slice, which is slow to read, the second in its
    # first: two workers reach the second's failure first, a serial walk the first's
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 2)
    base = {"layers.0.a": np.zeros(200, np.float32), "layers.0.b": np.zeros(200, np.float32)}
    tuned = [{name: np.ones(200, np.float32) for name in base} for _ in range(2)]
    tuned[1]["layers.0.a"][199] = np.inf
    base["layers.0.b"][0], tuned[0]["layers.0.b"][0] = -2e38, 2e38  # an update of 4e38
    paths = [tmp_path / f"{i}.st" for i in range(3)]
    for checkpoint, path in zip([base, *tuned], paths):
        _write_raw(checkpoint, path)
    raised = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with pytest.raises((ArchiveError, ValidationError)) as info:
            _merged(read_archive(paths[0]), [read_archive(paths[1]), _SlowAtTheEnd(paths[2])])
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (
        ArchiveError, f"{paths[2]}: non-finite value detected in tensor 'layers.0.a'"
    )


class _SlowFirstSlices(Archive):
    """An archive whose reads of the first two slices of ``layers.0.a`` take a while, the
    second's longer."""

    def read_range(self, name: str, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        if name == "layers.0.a" and start < 4:
            time.sleep(0.2 if start == 0 else 0.4)
        return super().read_range(name, start, stop, out)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_failed_merge_to_archive_writes_nothing_after_its_writer_closes(tmp_path, monkeypatch, workers):
    # the first slice fails once it is read, while the second, slower to read, is still
    # composing on another worker, and more workers meet the second member's failure first:
    # the walk must raise the first slice's error, and its pool must finish the second slice
    # before the writer closes and removes its file, or that slice's write could land in a
    # descriptor the process has reused since
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 2)
    _use_workers(monkeypatch, workers)
    base = {"layers.0.a": np.zeros(200, np.float32), "layers.0.b": np.zeros(200, np.float32)}
    tuned = [{name: np.ones(200, np.float32) for name in base} for _ in range(2)]
    tuned[1]["layers.0.a"][1] = np.inf
    base["layers.0.b"][0], tuned[0]["layers.0.b"][0] = -2e38, 2e38  # an update of 4e38
    paths = [tmp_path / f"{i}.st" for i in range(3)]
    for checkpoint, path in zip([base, *tuned], paths):
        _write_raw(checkpoint, path)
    events = []
    archive_writer = merging.archive_writer

    @contextmanager
    def spied_writer(*args):
        with archive_writer(*args) as write_range:
            def spy(name, start, values):
                try:
                    write_range(name, start, values)
                finally:
                    events.append("write")

            try:
                yield spy
            finally:
                events.append("closed")

    monkeypatch.setattr(merging, "archive_writer", spied_writer)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises((ArchiveError, ValidationError)) as info:
        merge_to_archive(read_archive(paths[0]), [read_archive(paths[1]), _SlowFirstSlices(paths[2])],
                         MergeConfig(method="simple_average"), out / "merged.st")
    assert (type(info.value), str(info.value)) == (
        ArchiveError, f"{paths[2]}: non-finite value detected in tensor 'layers.0.a'"
    )
    assert events.count("closed") == 1 and events[-1] == "closed", events
    assert list(out.iterdir()) == []


def test_merge_to_archive_syncs_the_file_then_renames_then_syncs_the_directory(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode) else info.st_size))
        fsync(fd)

    def recorded_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    base, tuned = _checkpoints(np.float32)
    merge_to_archive(base, tuned, MergeConfig(), tmp_path / "merged.st")
    size = (tmp_path / "merged.st").stat().st_size
    assert calls == [("fsync", size), ("replace", "merged.st"), ("fsync", "directory")]


@pytest.mark.parametrize("bad", ["missing directory", "metadata"])
def test_a_bad_output_fails_before_pass_1(tmp_path, monkeypatch, bad):
    # the writer opens before plan() reads any input, so a path it cannot create or metadata
    # it cannot store costs no pass 1, and the file already at the path is left as it was
    def no_plan(*args):
        raise AssertionError("plan() ran")

    monkeypatch.setattr(merging, "plan", no_plan)
    base, tuned = _checkpoints(np.float32)
    old = tmp_path / "merged.st"
    old.write_bytes(b"old")
    if bad == "missing directory":
        path, metadata, error = tmp_path / "missing" / "merged.st", None, FileNotFoundError
    else:
        path, metadata, error = old, {"method": 1}, ArchiveError
    with pytest.raises(error) as info:
        merge_to_archive(base, tuned, MergeConfig(), path, metadata=metadata)
    assert bad == "missing directory" or str(info.value) == "metadata must map strings to strings"
    assert sorted(tmp_path.iterdir()) == [old] and old.read_bytes() == b"old"


def test_the_slice_walk_owns_no_slice_buffer(tmp_path, monkeypatch):
    # an averaging slice job holds the base's slice (4 bytes an entry), the float32 update
    # buffer that the fill divides its float64 total (8) into and the walk composes into (4),
    # and one raw range of a checkpoint (4): 20 bytes an entry for each worker. A float32
    # slice buffer of the walk's own, with the fill's result copied into it, would add 4 more
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    small, large = 1 << 14, 1 << 15
    # layer groups of four slices, so each runs on the pool and holds four futures
    sets = {n: write_synthetic_set(tmp_path / str(n), seed=3, num_layers=2, elems_per_layer=4 * n,
                                   num_tasks=3, conflict_profile=[0.5] * 2) for n in (1024, small, large)}

    def peak(slice_entries: int, workers: int) -> int:
        monkeypatch.setattr(merging, "_SLICE_ENTRIES", slice_entries)
        _use_workers(monkeypatch, workers)
        paths = sets[slice_entries]
        base, tuned = read_archive(paths["base"]), [read_archive(path) for path in paths["tasks"]]
        tracemalloc.start()
        try:
            merge_to_archive(base, tuned, MergeConfig(method="simple_average"), tmp_path / "merged.st")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1024, 2)  # the first merge's one-time costs
    one_worker = (peak(large, 1) - peak(small, 1)) / (large - small)
    added_worker = (peak(large, 2) - peak(large, 1)) / large
    assert one_worker <= 22 and added_worker <= 22, (one_worker, added_worker)


def test_the_pool_holds_a_few_jobs_whatever_the_group_size(tmp_path, monkeypatch):
    # the pool's map keeps two jobs a worker submitted ahead, not a future and its job for
    # every slice of the group until it ends (about 1.8 KB a slice, some 29 MB for
    # Llama-3.1-8B's 1.05B-entry ungrouped group at 65,536-entry slices)
    import concurrent.futures  # noqa: F401  merge() imports it on first use: not while traced

    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4096)
    _use_workers(monkeypatch, 2)

    def peak(n: int) -> int:
        path = tmp_path / f"{n}.st"
        write_archive({"layers.0.w": np.zeros(n, np.float32)}, path)
        base, tuned = read_archive(path), [read_archive(path) for _ in range(2)]
        tracemalloc.start()
        try:
            merge_to_archive(base, tuned, MergeConfig(method="simple_average"), tmp_path / "merged.st")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 16)  # the first merge's one-time costs
    small, large = 1 << 20, 1 << 22  # 256 and 1,024 slices
    per_slice = (peak(large) - peak(small)) / ((large - small) // 4096)
    assert per_slice <= 64, per_slice


@pytest.mark.parametrize("method", ["simple_average", "mals"])
def test_the_pool_ends_with_the_merge(monkeypatch, method):
    # pass 1's pool ends with merge() itself, pass 2's with the walk, however it ends
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 3)
    _use_workers(monkeypatch, 2)
    config = MergeConfig(method=method, sign_election=True)
    base, tuned = _checkpoints(np.float32)
    before = threading.active_count()

    merged, _, _ = merge(base, tuned, config)
    assert threading.active_count() == before
    next(merged)
    assert threading.active_count() > before  # the pool is running
    merged.close()
    assert threading.active_count() == before

    dict(merge(base, tuned, config)[0])
    assert threading.active_count() == before

    base["model.layers.1.attn.weight"][3, 2, 1] = -3e38
    tuned[2]["model.layers.1.attn.weight"][3, 2, 1] = 3e38  # an update of 6e38
    with pytest.raises(ValidationError, match="update of tensor 'model.layers.1.attn.weight'"):
        dict(merge(base, tuned, config)[0])  # in pass 1 for mals, in the walk for simple_average
    assert threading.active_count() == before


@pytest.mark.parametrize("config", [MergeConfig(method="mals", sign_election=True),
                                    MergeConfig(method="ties", lam=0.7),
                                    MergeConfig(method="uniform_sparsity")], ids=lambda c: c.method)
def test_trimmed_merge_bytes_do_not_depend_on_slice_size_or_worker_count(tmp_path, monkeypatch, config):
    # pass 1's task and pair jobs and pass 2's trims and slices, on 6 workers that switch
    # often, give the serial walk's bytes and scores
    base, tuned = _inputs("F32-archive", tmp_path)

    def run():
        merged, conflict, allocation = merge(base, tuned, config)
        return ({name: tensor.tobytes() for name, tensor in merged},
                conflict.rho_abs.tobytes(), conflict.importance.tobytes(), allocation.s_final.tobytes())

    monkeypatch.setattr(merging, "_SLICE_ENTRIES", LARGER_THAN_ANY_TENSOR)
    expected = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for slice_entries, workers in product([1, 7], [1, 2, 6]):
            monkeypatch.setattr(merging, "_SLICE_ENTRIES", slice_entries)
            _use_workers(monkeypatch, workers)
            assert run() == expected, (slice_entries, workers)
    finally:
        sys.setswitchinterval(interval)


class _SlowToRead(Archive):
    """An archive whose every tensor takes a while to read."""

    def read_range(self, name: str, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        time.sleep(0.2)
        return super().read_range(name, start, stop, out)


def test_the_first_failing_task_is_raised_whatever_the_worker_count(tmp_path, monkeypatch):
    # the first checkpoint fails slowly, the second at once: two workers meet the second's
    # failure first, a serial pass 1 the first's
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 2)
    base = {"layers.0.a": np.zeros(200, np.float32)}
    tuned = [{"layers.0.a": np.ones(200, np.float32)} for _ in range(2)]
    tuned[0]["layers.0.a"][199] = np.inf
    base["layers.0.a"][0], tuned[1]["layers.0.a"][0] = -2e38, 2e38  # an update of 4e38
    paths = [tmp_path / f"{i}.st" for i in range(3)]
    for checkpoint, path in zip([base, *tuned], paths):
        _write_raw(checkpoint, path)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        with pytest.raises((ArchiveError, ValidationError)) as info:
            merge(read_archive(paths[0]), [_SlowToRead(paths[1]), read_archive(paths[2])], MergeConfig())
        assert (type(info.value), str(info.value)) == (
            ArchiveError, f"{paths[1]}: non-finite value detected in tensor 'layers.0.a'"
        )


def test_small_layer_groups_start_no_threads_and_import_no_pool():
    # concurrent.futures pulls in logging, which only the pool needs: a fresh interpreter
    # shows what a merge of groups under two slices imports, since pytest's own may
    # already hold it
    code = """if True:
        import sys, threading
        import numpy as np
        from malsmerge import METHODS, MergeConfig, merge
        base = {"layers.0.w": np.zeros(8, np.float32)}
        tuned = [{"layers.0.w": np.arange(8, dtype=np.float32)}] * 2
        before = threading.active_count()
        for method in METHODS:
            merged, _, _ = merge(base, tuned, MergeConfig(method=method, sign_election=True))
            next(merged)
            assert threading.active_count() == before, method
            merged.close()
        print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class _RecordedPools:
    """Every ``ThreadPoolExecutor`` a merge builds, each with a thread name of its own, and
    the tensors each ``stored_sum`` call named, with the thread that made it."""

    def __init__(self, monkeypatch):
        import concurrent.futures

        self.pools, self.calls = [], []
        pools = self.pools

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                self.prefix = f"pool-{len(pools)}"
                super().__init__(workers, thread_name_prefix=self.prefix)
                pools.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        for module in (merging, task_vectors):
            monkeypatch.setattr(module, "stored_sum", self._recorded(module.stored_sum))

    def _recorded(self, stored_sum):
        def recorded(what, *args, **kwargs):
            self.calls.append((what.split("'")[1], threading.current_thread().name))
            return stored_sum(what, *args, **kwargs)
        return recorded


@pytest.mark.parametrize("method", METHODS)
def test_each_pass_builds_one_pool_and_runs_only_large_groups_on_it(monkeypatch, method):
    # groups of 3, 10, 5 and 12 entries against slices of 4: the second and fourth reach
    # two slices, so each pass builds one pool at its first large group and keeps it
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4)
    _use_workers(monkeypatch, 2)
    sizes = {"layers.0.w": 3, "layers.1.w": 10, "layers.2.w": 5, "layers.3.w": 12}
    rng = np.random.RandomState(5)
    base = {name: rng.standard_normal(n).astype(np.float32) for name, n in sizes.items()}
    tuned = [{name: b + rng.standard_normal(b.shape).astype(np.float32) for name, b in base.items()}
             for _ in range(3)]
    recorded = _RecordedPools(monkeypatch)

    merged, _, _ = merge(base, tuned, MergeConfig(method=method, sign_election=True))
    pass_1 = (recorded.pools[:], recorded.calls[:])
    dict(merged)
    pass_2 = (recorded.pools[len(pass_1[0]):], recorded.calls[len(pass_1[1]):])

    passes = [pass_2] if method == "simple_average" else [pass_1, pass_2]
    assert len(recorded.pools) == len(passes)
    if method == "simple_average":
        assert pass_1 == ([], [])
    for pools, calls in passes:
        assert len(pools) == 1
        prefix = pools[0].prefix
        assert {name for name, _ in calls} == set(sizes)
        for name, thread in calls:
            on_pool = thread.startswith(prefix + "_")
            assert on_pool == (sizes[name] >= 8) and (on_pool or thread == "MainThread"), (name, thread)


def test_small_groups_build_no_pool(monkeypatch):
    monkeypatch.setattr(merging, "_SLICE_ENTRIES", 4)
    _use_workers(monkeypatch, 2)
    base = {f"layers.{i}.w": np.zeros(7, np.float32) for i in range(3)}
    tuned = [{name: np.arange(7, dtype=np.float32) * (t + 1) for name in base} for t in range(2)]
    recorded = _RecordedPools(monkeypatch)
    for method in METHODS:
        dict(merge(base, tuned, MergeConfig(method=method, sign_election=True))[0])
    assert recorded.pools == [] and recorded.calls
