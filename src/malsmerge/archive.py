"""Flat tensor archive reader/writer.

Layout: an unsigned 64-bit little-endian header length N, then N bytes of
JSON mapping tensor names to ``{"dtype", "shape", "data_offsets"}`` entries
(offsets relative to the first payload byte), then the raw little-endian
tensor payloads, contiguous and non-overlapping. A top-level
``"__metadata__"`` string-to-string object is permitted and ignored on read.

Archives are always written as F32; F16 inputs are widened to F32 on read so
every downstream computation works over a single precision.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .errors import ArchiveError

TensorMap = dict[str, np.ndarray]

_DTYPES = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}
_MAX_DIMS = 32  # numpy 1.x's limit; numpy 2 allows 64


@dataclass(frozen=True)
class TensorInfo:
    """Header-level description of one stored tensor."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    n_bytes: int


def _reject_duplicate_names(pairs: list[tuple[str, object]]) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ArchiveError(f"duplicate tensor name in header: {key!r}")
        seen.add(key)
    return dict(pairs)


def _validate_entry(name: str, entry: object, payload_size: int) -> tuple[str, tuple[int, ...], int, int]:
    if not name:
        raise ArchiveError("malformed header: empty tensor name")
    if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
        raise ArchiveError(f"malformed header: bad entry for {name!r}")
    dtype = entry["dtype"]
    if not isinstance(dtype, str) or dtype not in _DTYPES:  # a list or object is unhashable
        raise ArchiveError(f"unsupported dtype {dtype!r} for tensor {name!r}")
    shape = entry["shape"]
    # type() rather than isinstance(): a JSON true is a bool, which isinstance counts as an int;
    # numpy refuses more dims than its limit, or nonzero dims whose F32 bytes pass sys.maxsize
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape) or (
        len(shape) > _MAX_DIMS or math.prod(d for d in shape if d) * 4 > sys.maxsize
    ):
        raise ArchiveError(f"malformed header: bad shape for {name!r}")
    offsets = entry["data_offsets"]
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or any(type(o) is not int or o < 0 for o in offsets)
        or offsets[1] < offsets[0]
    ):
        raise ArchiveError(f"malformed header: bad data_offsets for {name!r}")
    begin, end = offsets
    expected = math.prod(shape) * _DTYPES[dtype].itemsize
    if end - begin != expected:
        raise ArchiveError(
            f"malformed header: {name!r} spans {end - begin} bytes, shape demands {expected}"
        )
    if end > payload_size:
        raise ArchiveError(
            f"truncated payload: {name!r} ends at byte {end}, only {payload_size} available"
        )
    return dtype, tuple(shape), begin, end


def _validate_metadata(meta: object) -> None:
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise ArchiveError("malformed header: __metadata__ must map strings to strings")


def _check_contiguous(entries: list[tuple], payload_size: int) -> None:
    cursor = 0
    for name, _, _, begin, end in sorted(entries, key=lambda e: (e[3], e[4])):
        if begin != cursor:
            raise ArchiveError(
                f"malformed header: payload for {name!r} is not contiguous at byte {begin}"
            )
        cursor = end
    if cursor != payload_size:
        raise ArchiveError(
            f"malformed header: payload holds {payload_size} bytes, header accounts for {cursor}"
        )


def _read_header(f: BinaryIO) -> tuple[list[tuple], dict[str, str]]:
    """Read and validate the header of ``f``, leaving ``f`` at the first payload byte.

    Returns ``(name, dtype, shape, begin, end)`` per tensor in header order and
    the ``__metadata__`` mapping. The payload size comes from the file size.
    """
    file_size = os.fstat(f.fileno()).st_size
    if file_size < 8:
        raise ArchiveError("malformed header: file shorter than the 8-byte length field")
    (header_len,) = struct.unpack("<Q", f.read(8))
    if 8 + header_len > file_size:
        raise ArchiveError(
            f"malformed header: header length {header_len} exceeds file size {file_size}"
        )
    try:
        header = json.loads(
            f.read(header_len).decode("utf-8"),
            object_pairs_hook=_reject_duplicate_names,
        )
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, a huge int
        raise ArchiveError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ArchiveError("malformed header: top level is not a JSON object")

    payload_size = file_size - 8 - header_len
    entries = []
    metadata: dict[str, str] = {}
    for name, entry in header.items():
        if name == "__metadata__":
            _validate_metadata(entry)
            metadata = dict(entry)
            continue
        entries.append((name, *_validate_entry(name, entry, payload_size)))
    _check_contiguous(entries, payload_size)
    if not entries:
        raise ArchiveError("archive holds no tensors")
    return entries, metadata


def read_archive(path: str | Path) -> TensorMap:
    """Read a tensor archive into a name -> float32 ndarray mapping.

    F16 tensors are widened to F32. Raises :class:`ArchiveError`, its message
    starting with ``path``, on a malformed header, truncated payload,
    unsupported dtype, duplicate name, or any non-finite value.
    """
    try:
        # unbuffered: a buffered read would copy the whole payload once more
        with open(path, "rb", buffering=0) as f:
            entries, _ = _read_header(f)
            payload = f.readall()

        tensors: TensorMap = {}
        for name, dtype, shape, begin, _ in entries:
            arr = np.frombuffer(payload, _DTYPES[dtype], math.prod(shape), begin)
            arr = arr.reshape(shape).astype(np.float32)
            if not np.all(np.isfinite(arr)):
                raise ArchiveError(f"non-finite value detected in tensor {name!r}")
            tensors[name] = arr
        return tensors
    except ArchiveError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc


def archive_info(path: str | Path) -> tuple[list[TensorInfo], dict[str, str]]:
    """Describe an archive's tensors and metadata from its header alone.

    Applies every header check :func:`read_archive` applies, and names ``path``
    in its errors the same way; the payload is not read, so its values are not
    checked.
    """
    try:
        with open(path, "rb") as f:
            entries, metadata = _read_header(f)
    except ArchiveError as exc:
        raise ArchiveError(f"{path}: {exc}") from exc
    infos = [
        TensorInfo(name=name, dtype=dtype, shape=shape, n_bytes=end - begin)
        for name, dtype, shape, begin, end in entries
    ]
    return sorted(infos, key=lambda t: t.name), metadata


def write_archive(
    tensors: Mapping[str, np.ndarray],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write tensors as an F32 archive, byte-deterministically.

    Names are serialized in lexicographic order and the file is replaced
    atomically. ``metadata`` becomes the ``__metadata__`` header entry.
    """
    if not tensors:
        raise ArchiveError("tensor map must contain at least one tensor")
    for name in tensors:
        if not isinstance(name, str) or not name:
            raise ArchiveError(f"tensor name must be non-empty text, got {name!r}")
        if name == "__metadata__":
            raise ArchiveError("tensor name '__metadata__' is reserved for archive metadata")

    header: dict[str, object] = {}
    if metadata is not None:
        if any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()):
            raise ArchiveError("metadata must map strings to strings")
        header["__metadata__"] = {k: metadata[k] for k in sorted(metadata)}

    # each cast array's own buffer is written: no second copy of the model
    payloads: list[np.ndarray] = []
    cursor = 0
    for name in sorted(tensors):
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ArchiveError(f"unencodable tensor name {name!r}: {exc}") from exc
        with np.errstate(over="ignore"):  # an overflow is reported just below
            arr = np.asarray(tensors[name], dtype="<f4", order="C")
        if arr.ndim > _MAX_DIMS:
            raise ArchiveError(f"tensor {name!r} has {arr.ndim} dims, more than {_MAX_DIMS}")
        if not np.all(np.isfinite(arr)):
            raise ArchiveError(f"non-finite value in tensor {name!r} at 32-bit precision")
        header[name] = {
            "dtype": "F32",
            "shape": [int(d) for d in arr.shape],
            "data_offsets": [cursor, cursor + arr.nbytes],
        }
        payloads.append(arr)
        cursor += arr.nbytes

    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=True).encode("utf-8")

    write_atomic(path, [struct.pack("<Q", len(header_bytes)), header_bytes, *payloads])


def write_atomic(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it into place.

    Readers see either the old file or the complete new one; on any failure
    the temp file is removed and ``path`` is left untouched. An array chunk
    must be C-contiguous; its buffer is written as is.
    """
    target = Path(path)
    tmp_name = target.with_name(f"{target.name}.{secrets.token_hex(8)}.tmp")
    try:
        # mode 0666 less the umask, as open(path, "wb") gives; mkstemp would force 0600
        fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        # the temp file is an implementation detail: name the file the caller asked for
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
