from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malsmerge import ArchiveError, archive_info, read_archive, write_archive
from malsmerge.archive import write_atomic


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


def test_metadata_permitted_and_ignored(tmp_path):
    path = tmp_path / "m.st"
    write_archive({"a": np.ones(2, np.float32)}, path, metadata={"method": "mals"})
    assert set(read_archive(path)) == {"a"}
    infos, metadata = archive_info(path)
    assert [i.name for i in infos] == ["a"]
    assert metadata == {"method": "mals"}


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
    with pytest.raises(ArchiveError, match="non-finite"):
        read_archive(path)


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
    ],
    ids=["gap", "no-tensors", "overlap", "truncated", "bool-shape", "bool-offsets", "list-dtype",
         "deep-nesting", "huge-int"],
)
def test_info_and_read_reject_the_same_archives(tmp_path, blob):
    path = tmp_path / "bad.st"
    path.write_bytes(blob)
    with pytest.raises(ArchiveError):
        archive_info(path)
    with pytest.raises(ArchiveError):
        read_archive(path)


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

    with pytest.raises(RuntimeError, match="interrupted"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old"
    assert sorted(tmp_path.iterdir()) == [target]
