from __future__ import annotations

import errno
import json
import math
import os
import re
import stat
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import ArchiveError, read_archive, write_archive
from malsmerge.archive import _claim, archive_writer, atomic_file
from malsmerge.cli import run


def golden_blob() -> bytes:
    # assembled by hand from the layout: u64 LE header length, JSON header,
    # then contiguous little-endian payloads
    header = b'{"t":{"dtype":"F32","shape":[2,2],"data_offsets":[0,16]}}'
    return struct.pack("<Q", len(header)) + header + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)


def test_reads_hand_assembled_golden_file(tmp_path):
    path = tmp_path / "golden.safetensors"
    path.write_bytes(golden_blob())
    tensors = read_archive(path)
    assert set(tensors) == {"t"}
    assert tensors["t"].dtype == np.float32
    np.testing.assert_array_equal(tensors["t"], np.array([[1, 2], [3, 4]], dtype=np.float32))


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a.weight": rng.normal(size=(3, 5)).astype(np.float32),
        "b.bias": rng.normal(size=(7,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "m.safetensors"
    write_archive(tensors, path)
    loaded = read_archive(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert loaded[name].tobytes() == tensors[name].tobytes()


def test_write_is_byte_deterministic(tmp_path):
    tensors = {"b": np.ones(3, dtype=np.float32), "a": np.zeros((2, 2), dtype=np.float32)}
    p1, p2 = tmp_path / "one.st", tmp_path / "two.st"
    write_archive(tensors, p1)
    write_archive(dict(reversed(list(tensors.items()))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_names_serialized_in_lexicographic_order(tmp_path):
    path = tmp_path / "m.st"
    write_archive({"z": np.zeros(1, np.float32), "a": np.ones(1, np.float32)}, path)
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + n])
    assert list(header) == ["a", "z"]
    assert header["a"]["data_offsets"] == [0, 4]
    assert header["z"]["data_offsets"] == [4, 8]


def test_f16_widened_to_f32(tmp_path):
    values = np.array([0.5, -1.25, 3.0], dtype="<f2")
    header = json.dumps(
        {"h": {"dtype": "F16", "shape": [3], "data_offsets": [0, 6]}}, separators=(",", ":")
    ).encode()
    path = tmp_path / "h.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + values.tobytes())
    loaded = read_archive(path)
    assert loaded["h"].dtype == np.float32
    np.testing.assert_array_equal(loaded["h"], values.astype(np.float32))


def test_every_f16_bit_pattern_widens_as_astype_does_or_is_rejected(tmp_path):
    # F16 is widened by integer shifts and one float32 multiply: every finite pattern
    # must give astype's bits, and every infinity and NaN the lookup's error, also
    # when it sits between finite values in a range
    patterns = np.arange(1 << 16, dtype=np.uint16).view("<f2")
    header = json.dumps(
        {"h": {"dtype": "F16", "shape": [patterns.size], "data_offsets": [0, patterns.nbytes]}},
        separators=(",", ":"),
    ).encode()
    path = tmp_path / "h.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + patterns.tobytes())
    archive = read_archive(path)
    finite = np.isfinite(patterns)
    assert np.count_nonzero(finite) == 63_488
    for start, stop in ((0, 0x7C00), (0x8000, 0xFC00)):  # the positive and negative finite runs
        assert finite[start:stop].all()
        widened = archive.read_range("h", start, stop)
        assert widened.tobytes() == patterns[start:stop].astype(np.float32).tobytes()
    message = f"{path}: non-finite value detected in tensor 'h'"
    for i in np.flatnonzero(~finite):
        for start, stop in ((i, i + 1), (i - 1, min(i + 2, patterns.size))):
            with pytest.raises(ArchiveError) as info:
                archive.read_range("h", int(start), int(stop))
            assert str(info.value) == message


def test_metadata_permitted_and_ignored(tmp_path):
    path = tmp_path / "m.st"
    write_archive({"a": np.ones(2, np.float32)}, path, metadata={"method": "mals"})
    archive = read_archive(path)
    assert set(archive) == {"a"}
    assert [i.name for i in archive.infos.values()] == ["a"]
    assert archive.metadata == {"method": "mals"}


def test_header_length_exceeding_file_is_malformed(tmp_path):
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(ArchiveError, match="malformed header"):
        read_archive(path)


def test_truncated_payload_rejected(tmp_path):
    blob = golden_blob()
    path = tmp_path / "bad.st"
    path.write_bytes(blob[:-4])
    with pytest.raises(ArchiveError, match="truncated payload"):
        read_archive(path)


def test_unsupported_dtype_rejected(tmp_path):
    header = b'{"t":{"dtype":"I64","shape":[1],"data_offsets":[0,8]}}'
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ArchiveError, match="unsupported dtype"):
        read_archive(path)


def test_duplicate_name_rejected(tmp_path):
    header = (
        b'{"t":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
        b'"t":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
    )
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ArchiveError, match="duplicate"):
        read_archive(path)


def test_non_finite_payload_rejected(tmp_path):
    header = b'{"t":{"dtype":"F32","shape":[2],"data_offsets":[0,8]}}'
    payload = struct.pack("<2f", 1.0, float("nan"))
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + payload)
    archive = read_archive(path)  # the header is sound; the payload is checked on lookup
    with pytest.raises(ArchiveError, match="non-finite") as info:
        archive["t"]
    assert str(info.value) == f"{path}: non-finite value detected in tensor 't'"


def test_each_lookup_returns_a_fresh_writable_array(tmp_path):
    path = tmp_path / "golden.st"
    path.write_bytes(golden_blob())
    archive = read_archive(path)
    first = archive["t"]
    first[...] = 0.0
    np.testing.assert_array_equal(archive["t"], np.array([[1, 2], [3, 4]], dtype=np.float32))


def test_archive_is_a_read_only_mapping(tmp_path):
    path = tmp_path / "golden.st"
    path.write_bytes(golden_blob())
    archive = read_archive(path)
    assert "t" in archive and "u" not in archive and len(archive) == 1
    with pytest.raises(TypeError):
        archive["t"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(KeyError):
        archive["u"]


def test_payload_truncated_after_open_rejected_on_lookup(tmp_path):
    path = tmp_path / "golden.st"
    path.write_bytes(golden_blob())
    archive = read_archive(path)
    with open(path, "r+b") as f:
        f.truncate(len(golden_blob()) - 4)
    with pytest.raises(ArchiveError, match="truncated payload") as info:
        archive["t"]
    assert str(info.value).startswith(f"{path}: ") and "'t'" in str(info.value)


@pytest.mark.parametrize("dtype", ["F32", "F16"])
def test_range_read_equals_the_lookup_flattened(tmp_path, dtype):
    values = np.arange(-5, 7, dtype=np.float32).reshape(3, 4) / 4  # exact in F16 too
    payload = values.astype({"F32": "<f4", "F16": "<f2"}[dtype]).tobytes()
    path = tmp_path / "t.st"
    path.write_bytes(_archive(_shape_header([3, 4], len(payload), dtype), payload))
    archive = read_archive(path)
    whole = archive["a"].reshape(-1)
    for start, stop in [(0, 12), (0, 0), (5, 5), (3, 10), (11, 12)]:
        part = archive.read_range("a", start, stop)
        assert part.dtype == np.float32 and part.tobytes() == whole[start:stop].tobytes()
    for start, stop in [(-1, 2), (4, 3), (0, 13)]:
        with pytest.raises(IndexError, match="'a'"):
            archive.read_range("a", start, stop)


def test_range_read_reports_what_the_lookup_does(tmp_path):
    # the range holding the cut, or the non-finite value, fails with the lookup's text
    values = np.arange(12, dtype=np.float32)
    path = tmp_path / "t.st"
    path.write_bytes(_archive(_shape_header([12], 48), values.tobytes()))
    archive = read_archive(path)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 20)
    with pytest.raises(ArchiveError) as whole:
        archive["a"]
    assert str(whole.value) == f"{path}: truncated payload: 'a' lacks 20 bytes"
    for start, stop in [(4, 8), (8, 12)]:  # holding the cut, and wholly past it
        with pytest.raises(ArchiveError) as part:
            archive.read_range("a", start, stop)
        assert str(part.value) == str(whole.value)
    with open(path, "r+b") as f:
        f.truncate(size - 48)  # the payload gone whole
    with pytest.raises(ArchiveError) as whole:
        archive["a"]
    with pytest.raises(ArchiveError) as part:
        archive.read_range("a", 8, 12)
    assert str(part.value) == str(whole.value) == f"{path}: truncated payload: 'a' lacks 48 bytes"

    values[9] = np.inf
    path.write_bytes(_archive(_shape_header([12], 48), values.tobytes()))
    archive = read_archive(path)
    assert archive.read_range("a", 0, 9).tobytes() == values[:9].tobytes()
    with pytest.raises(ArchiveError) as whole:
        archive["a"]
    with pytest.raises(ArchiveError) as part:
        archive.read_range("a", 8, 12)
    assert str(part.value) == str(whole.value) == f"{path}: non-finite value detected in tensor 'a'"


def test_lookups_read_the_file_that_was_opened(tmp_path):
    path = tmp_path / "golden.st"
    path.write_bytes(golden_blob())
    archive = read_archive(path)
    write_archive({"t": np.zeros((2, 2), dtype=np.float32)}, path)  # renamed over the path
    np.testing.assert_array_equal(archive["t"], np.array([[1, 2], [3, 4]], dtype=np.float32))


def test_overlapping_offsets_rejected(tmp_path):
    header = (
        b'{"a":{"dtype":"F32","shape":[2],"data_offsets":[0,8]},'
        b'"b":{"dtype":"F32","shape":[2],"data_offsets":[4,12]}}'
    )
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 12)
    with pytest.raises(ArchiveError, match="contiguous"):
        read_archive(path)


def _archive(header: bytes, payload: bytes) -> bytes:
    return struct.pack("<Q", len(header)) + header + payload


def _shape_header(shape: list[int], n_bytes: int, dtype: str = "F32") -> bytes:
    entry = {"dtype": dtype, "shape": shape, "data_offsets": [0, n_bytes]}
    return json.dumps({"a": entry}).encode()


@pytest.mark.parametrize(
    "blob",
    [
        _archive(
            b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
            b'"b":{"dtype":"F32","shape":[1],"data_offsets":[8,12]}}',
            b"\x00" * 12,
        ),
        _archive(b"{}", b""),
        _archive(
            b'{"a":{"dtype":"F32","shape":[2],"data_offsets":[0,8]},'
            b'"b":{"dtype":"F32","shape":[2],"data_offsets":[4,12]}}',
            b"\x00" * 12,
        ),
        golden_blob()[:-4],
        _archive(b'{"a":{"dtype":"F32","shape":[true,1],"data_offsets":[0,4]}}', b"\x00" * 4),
        _archive(b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[false,4]}}', b"\x00" * 4),
        _archive(b'{"a":{"dtype":["F32"],"shape":[1],"data_offsets":[0,4]}}', b"\x00" * 4),
        _archive(b"[" * 100_000 + b"]" * 100_000, b""),
        _archive(b'{"a":{"dtype":"F32","shape":[1' + b"0" * 5000 + b'],"data_offsets":[0,4]}}',
                 b"\x00" * 4),
        _archive(_shape_header([0, 2**63], 0), b""),
        _archive(_shape_header([0, 2**62, 2**62], 0), b""),
        _archive(_shape_header([1] * 70, 4), b"\x00" * 4),
        _archive(b'{"":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}', b"\x00" * 4),
        _archive(b'{"a":[0,4]}', b"\x00" * 4),
        _archive(b'{"__metadata__":{"k":1},"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}',
                 b"\x00" * 4),
        golden_blob() + b"\x00" * 4,
        b"\x00" * 2,
        _archive(b"[]", b""),
    ],
    ids=["gap", "no-tensors", "overlap", "truncated", "bool-shape", "bool-offsets", "list-dtype",
         "deep-nesting", "huge-int", "dim-past-maxsize", "dims-product-past-maxsize", "70-dims",
         "empty-name", "entry-not-object", "non-string-metadata", "trailing-bytes",
         "shorter-than-length-field", "top-level-array"],
)
def test_info_and_read_reject_the_same_archives(tmp_path, capsys, blob):
    path = tmp_path / "bad.st"
    path.write_bytes(blob)
    assert run(["info", "--archive", str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    with pytest.raises(ArchiveError):
        read_archive(path)


@pytest.mark.parametrize("dtype", ["F32", "F16"])
@pytest.mark.parametrize(
    "shape",
    [[0, 2**61 - 1], [0, 2**30, 2**31 - 1], [1] * 32],
    ids=["dim-at-the-limit", "product-at-the-limit", "32-dims"],
)
def test_shapes_at_the_limits_are_read(tmp_path, shape, dtype):
    n_bytes = math.prod(shape) * {"F32": 4, "F16": 2}[dtype]
    path = tmp_path / "edge.st"
    path.write_bytes(_archive(_shape_header(shape, n_bytes, dtype), b"\x00" * n_bytes))
    archive = read_archive(path)
    [info] = archive.infos.values()
    assert info.shape == tuple(shape)
    assert archive["a"].shape == tuple(shape)


def test_more_than_32_dims_refused_on_write(tmp_path):
    try:
        arr = np.ones((1,) * 33, dtype=np.float32)
    except ValueError:
        pytest.skip("this numpy builds at most 32 dims")
    with pytest.raises(ArchiveError, match="33 dims"):
        write_archive({"a": arr}, tmp_path / "x.st")
    assert not (tmp_path / "x.st").exists()


def test_wrong_span_for_shape_rejected(tmp_path):
    header = b'{"t":{"dtype":"F32","shape":[3],"data_offsets":[0,8]}}'
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(ArchiveError, match="spans"):
        read_archive(path)


def test_empty_map_rejected_on_write(tmp_path):
    with pytest.raises(ArchiveError, match="at least one"):
        write_archive({}, tmp_path / "x.st")


@pytest.mark.parametrize("metadata", [None, {"k": "v"}], ids=["bare", "with-metadata"])
def test_reserved_metadata_name_rejected_on_write(tmp_path, metadata):
    tensors = {"__metadata__": np.ones(2, dtype=np.float32)}
    with pytest.raises(ArchiveError, match="reserved"):
        write_archive(tensors, tmp_path / "x.st", metadata=metadata)
    assert list(tmp_path.iterdir()) == []


def test_write_into_missing_directory_names_the_path(tmp_path):
    target = tmp_path / "nodir" / "x.safetensors"
    with pytest.raises(FileNotFoundError) as info:
        write_archive({"a": np.ones(2, dtype=np.float32)}, target)
    assert str(target) in str(info.value)
    assert ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_non_finite_tensor_rejected_on_write(tmp_path):
    with pytest.raises(ArchiveError, match="non-finite"):
        write_archive({"a": np.array([np.inf], dtype=np.float32)}, tmp_path / "x.st")


def test_overflow_at_32_bits_rejected_on_write(tmp_path):
    # finite as float64, infinite once cast to the stored F32
    with pytest.raises(ArchiveError, match="non-finite"):
        write_archive({"a": np.array([1e39], dtype=np.float64)}, tmp_path / "x.st")


def test_empty_name_rejected_on_write(tmp_path):
    with pytest.raises(ArchiveError, match="non-empty"):
        write_archive({"": np.ones(1, np.float32)}, tmp_path / "x.st")


@pytest.mark.parametrize(
    "name, metadata, message",
    [("a", {"k": 1}, "metadata must map strings to strings"),
     ("\ud800", None, "unencodable tensor name")],
    ids=["non-string-metadata", "lone-surrogate-name"],
)
def test_unwritable_header_rejected_on_write(tmp_path, name, metadata, message):
    with pytest.raises(ArchiveError, match=message):
        write_archive({name: np.ones(1, np.float32)}, tmp_path / "x.st", metadata=metadata)
    assert list(tmp_path.iterdir()) == []


def test_write_error_without_a_filename_passes_through(tmp_path):
    def chunks():
        yield b"x"
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError) as info, atomic_file(tmp_path / "x.st") as f:
        f.writelines(chunks())
    assert info.value.errno == errno.ENOSPC and info.value.filename is None
    assert list(tmp_path.iterdir()) == []


def test_read_error_at_open_names_the_file(tmp_path, monkeypatch):
    path = tmp_path / "a.st"
    write_archive({"a": np.ones(2, np.float32)}, path)

    def failing(fd, buffers, offset):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "preadv", failing)
    with pytest.raises(OSError) as info:
        read_archive(path)
    assert info.value.errno == errno.EIO and info.value.filename == str(path)
    assert info.value.strerror == f"{os.strerror(errno.EIO)} reading the header"


names = st.text(
    alphabet=st.sampled_from("abcdefgh.xyz_0123456789"), min_size=1, max_size=12
).filter(lambda s: s != "__metadata__")
finite_f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def tensor_maps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    out = {}
    for _ in range(n):
        name = draw(names.filter(lambda s: s not in out))
        shape = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        values = draw(st.lists(finite_f32, min_size=size, max_size=size))
        out[name] = np.array(values, dtype=np.float32).reshape(shape)
    return out


@settings(max_examples=60, deadline=None)
@given(tensor_maps())
def test_round_trip_property(tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("rt") / "m.st"
    write_archive(tensors, path)
    loaded = read_archive(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert loaded[name].tobytes() == tensors[name].tobytes()


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"), atomic_file(target) as f:
        f.writelines(chunks())
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target]


def test_atomic_file_syncs_the_file_then_renames_then_syncs_the_directory(tmp_path, monkeypatch):
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
    with atomic_file(tmp_path / "out.bin") as f:
        f.write(b"new")  # buffered: the sync must see it flushed
    assert calls == [("fsync", 3), ("replace", "out.bin"), ("fsync", "directory")]
    assert (tmp_path / "out.bin").read_bytes() == b"new"


def test_failed_file_sync_renames_nothing_and_names_the_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def failing(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", failing)
    with pytest.raises(OSError) as info, atomic_file(target) as f:
        f.write(b"new")
    assert info.value.errno == errno.EIO and info.value.filename == str(target)
    assert info.value.strerror == f"{os.strerror(errno.EIO)} syncing it"
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target]


def test_streamed_write_in_any_order_equals_write_archive(tmp_path, monkeypatch):
    tensors = {
        "b.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "a.bias": np.array([0.5, -0.0], dtype=np.float32),
        "c": np.float32(2.5).reshape(()),
        "z.empty": np.zeros((0, 3), dtype=np.float32),  # last in name order, holds no bytes
    }
    metadata = {"method": "mals"}
    write_archive(tensors, tmp_path / "whole.st", metadata=metadata)
    pwritev = os.pwritev
    # each write takes at most 5 bytes, as a short write would: the writer loops
    monkeypatch.setattr(os, "pwritev", lambda fd, bufs, offset: pwritev(fd, [bufs[0][:5]], offset))
    shapes = {name: tensor.shape for name, tensor in tensors.items()}
    with archive_writer(shapes, tmp_path / "streamed.st", metadata) as write_range:
        for name in sorted(tensors, reverse=True):
            write_range(name, 0, tensors[name])
    assert (tmp_path / "streamed.st").read_bytes() == (tmp_path / "whole.st").read_bytes()


def test_ranges_from_many_threads_in_any_order_equal_write_archive(tmp_path):
    # more threads than cores, switching often, each writing one-entry ranges: a lost
    # update of a tensor's written count would refuse the archive as partly written
    rng = np.random.default_rng(3)
    tensors = {
        "b.weight": rng.standard_normal((7, 5)).astype(np.float32),
        "a.bias": np.array([0.5, -0.0], dtype=np.float32),
        "c": np.float32(2.5).reshape(()),
        "z.empty": np.zeros((0, 3), dtype=np.float32),
    }
    metadata = {"method": "mals"}
    write_archive(tensors, tmp_path / "whole.st", metadata=metadata)
    ranges = [(name, start, tensor.reshape(-1)[start:start + 1])
              for name, tensor in tensors.items() for start in range(tensor.size)]
    rng.shuffle(ranges)
    shapes = {name: tensor.shape for name, tensor in tensors.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with archive_writer(shapes, tmp_path / "ranges.st", metadata) as write_range:
            threads = [threading.Thread(target=lambda part: [write_range(*r) for r in part],
                                        args=(ranges[i::6],)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert (tmp_path / "ranges.st").read_bytes() == (tmp_path / "whole.st").read_bytes()


@pytest.mark.parametrize(
    "writes, message",
    [([("c", 0, [1.0])], "tensor 'c' is not in the archive header"),
     ([("a", 1, [1.0, 2.0])], r"range \[1, 3\) lies outside tensor 'a' of 2 entries"),
     ([("a", 0, [1.0, np.inf])], "non-finite value in tensor 'a' at 32-bit precision"),
     ([("b", 0, [1.0, 2.0, 3.0]), ("a", 1, [1.0])], r"tensor 'a' is partly written \(1 of 2 entries\)"),
     ([("a", 0, [1.0, 2.0]), ("a", 0, [1.0, 2.0])], r"tensor 'a' has entries written twice, in range \[0, 2\)"),
     ([("a", 0, [1.0]), ("a", 0, [1.0])], r"tensor 'a' has entries written twice, in range \[0, 1\)"),
     ([("a", 0, [1.0, 2.0])], "tensor 'b' was never written")],
    ids=["unknown-name", "past-the-end", "non-finite", "partly-written", "written-twice", "overlapping",
         "never-written"],
)
def test_range_writer_refuses_naming_the_file_and_tensor(tmp_path, writes, message):
    target = tmp_path / "out.st"
    target.write_bytes(b"old")
    with pytest.raises(ArchiveError, match=f"^{re.escape(str(target))}: {message}$"):
        with archive_writer({"a": (2,), "b": (3,)}, target) as write_range:
            for name, start, values in writes:
                write_range(name, start, np.array(values, np.float32))
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("shape", [(-1,), (2.5,), (3, -2), ("3",)], ids=["negative", "fraction", "negative-last", "text"])
def test_range_writer_refuses_a_bad_dimension_before_making_a_file(tmp_path, shape):
    # a negative dim would make a header that read_archive refuses, and a fraction a shape
    # other than the one asked for: both are refused before the temp file is made
    with pytest.raises(ArchiveError, match=f"^tensor 'a' has a bad shape {re.escape(repr(shape))}: dims must be"):
        with archive_writer({"a": shape}, tmp_path / "out.st"):
            pass
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=12))
def test_claimed_ranges_are_the_written_entries_joined(ranges):
    # against a set of entries: a range is refused exactly when it holds a written entry,
    # and the kept ranges are the written entries' maximal runs
    spans, entries = [], set()
    for start, length in ranges:
        wanted = set(range(start, start + length))
        assert _claim(spans, start, start + length) == (not wanted & entries)
        if not wanted & entries:
            entries |= wanted
    runs = []
    for entry in sorted(entries):
        if runs and runs[-1][1] == entry:
            runs[-1][1] += 1
        else:
            runs.append([entry, entry + 1])
    assert spans == runs
