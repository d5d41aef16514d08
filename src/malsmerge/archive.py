"""Flat tensor archive reader/writer.

Layout: an unsigned 64-bit little-endian header length N, then N bytes of
JSON mapping tensor names to ``{"dtype", "shape", "data_offsets"}`` entries
(offsets relative to the first payload byte), then the raw little-endian
tensor payloads, contiguous and non-overlapping. A top-level
``"__metadata__"`` string-to-string object is permitted; a reader keeps it
apart from the tensors.

Archives are always written as F32; F16 tensors are widened to F32 when they
are read, so every downstream computation works over a single precision. A
reader checks the header when it opens an archive and reads each tensor only
when it is looked up, or a range of it when that is asked for. A writer lays
the header out from names and shapes alone, then writes each range of a tensor
at its offset when it is given.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
import struct
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Mapping

import numpy as np

from .errors import ArchiveError

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


def _read_at(fd: int, buf: np.ndarray | bytearray, offset: int) -> int:
    """Fill the flat byte buffer ``buf`` from ``fd`` at ``offset``, in place.

    Returns the bytes read, fewer than ``len(buf)`` only at end of file. Loops,
    since one read returns at most 0x7ffff000 bytes on Linux.
    """
    view = memoryview(buf)
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


def _read_header(fd: int) -> tuple[list[tuple], dict[str, str], int]:
    """Read and validate the header of the file open at ``fd``.

    Returns ``(name, dtype, shape, begin, end)`` per tensor in header order,
    the ``__metadata__`` mapping and the file offset of the first payload
    byte. The payload size comes from the file size.
    """
    file_size = os.fstat(fd).st_size
    if file_size < 8:
        raise ArchiveError("malformed header: file shorter than the 8-byte length field")
    length = bytearray(8)
    _read_at(fd, length, 0)
    (header_len,) = struct.unpack("<Q", length)
    if 8 + header_len > file_size:
        raise ArchiveError(
            f"malformed header: header length {header_len} exceeds file size {file_size}"
        )
    raw = bytearray(header_len)
    _read_at(fd, raw, 8)
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_names)
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
    return entries, metadata, 8 + header_len


def _within(x: np.ndarray, bound: float) -> bool:
    """Whether every entry of the float array ``x`` lies strictly between ``-bound`` and
    ``bound``; at ``np.inf``, whether all are finite. A NaN fails, as ``max`` and ``min``
    pass it on, and no bool array as long as ``x`` is built."""
    return not x.size or bool(x.max() < bound and x.min() > -bound)


def _widen_f16(stored: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """F16 values widened to float32, into ``out`` if given, exactly as ``astype`` widens a
    finite one, in three whole-array passes where ``astype`` converts entry by entry.
    Shifted left 13 bits as a sign-extended int32, an F16's mantissa lands in the top of
    float32's, its exponent in the bottom of float32's, and copies of its sign in bits 28
    to 31, of which the mask keeps bit 31.
    Read as a float32, that is the F16 value times 2**-112 (biases 127 and 15; a subnormal
    lands on a subnormal), so one multiply by 2**112 gives it. Infinity and NaN come out
    at 2**16 or more in magnitude, past F16's largest finite 65504.
    """
    bits = np.left_shift(stored.view("<i2"), 13, dtype=np.int32, out=None if out is None else out.view("<i4"))
    bits &= -0x70002000  # 0x8FFFE000 as an int32
    tensor = bits.view(np.float32)
    tensor *= np.float32(2.0**112)
    return tensor


class Archive(Mapping[str, np.ndarray]):
    """A read-only name -> float32 ndarray mapping over an archive's validated header.

    Each lookup reads that one tensor from the file into a fresh array, and
    :meth:`read_range` a flat range of one, so a caller holds only what it
    keeps. The file stays open until the mapping is dropped: every lookup reads
    the file whose header was validated, even after its path is replaced.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        with open(path, "rb", buffering=0) as f:  # open() refuses a directory, naming it
            self._fd = os.dup(f.fileno())
        self._close = weakref.finalize(self, os.close, self._fd)
        try:
            entries, self.metadata, start = _read_header(self._fd)
        except ArchiveError as exc:
            self._close()
            raise ArchiveError(f"{path}: {exc}") from exc
        except OSError as exc:
            self._close()
            raise _naming(exc, path, "reading the header") from exc
        self.infos = {
            name: TensorInfo(name=name, dtype=dtype, shape=shape, n_bytes=end - begin)
            for name, dtype, shape, begin, end in entries
        }
        self._offsets = {name: start + begin for name, _, _, begin, _ in entries}

    def __getitem__(self, name: str) -> np.ndarray:
        shape = self.infos[name].shape
        return self.read_range(name, 0, math.prod(shape)).reshape(shape)

    def read_range(self, name: str, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Entries ``[start, stop)`` of tensor ``name`` in row-major order, as a flat float32
        array: ``out``, a contiguous float32 array of ``stop - start`` entries, if given, else a
        fresh one. F32 is read straight into it, F16 read and widened into it. A non-finite
        value, or a payload the file no longer holds, raises :class:`ArchiveError` as a
        whole-tensor lookup that reached it first would, naming the file and the tensor."""
        info = self.infos[name]
        if not 0 <= start <= stop <= math.prod(info.shape):
            raise IndexError(f"range [{start}, {stop}) outside tensor {name!r} of shape {info.shape}")
        dtype = _DTYPES[info.dtype]
        stored = out if out is not None and dtype == np.float32 else np.empty(stop - start, dtype)
        skipped = start * stored.itemsize
        try:
            read = _read_at(self._fd, stored.view(np.uint8), self._offsets[name] + skipped)
        except OSError as exc:
            raise _naming(exc, self.path, f"reading tensor {name!r}") from exc
        if read < stored.nbytes:  # counted from the file's end, as the whole tensor's read counts it
            lacks = min(info.n_bytes, self._offsets[name] + info.n_bytes - os.fstat(self._fd).st_size)
            raise ArchiveError(f"{self.path}: truncated payload: {name!r} lacks {lacks} bytes")
        if stored.dtype == np.float32:
            tensor, bound = stored, np.inf
        else:
            # every finite F16 widens below 2**16 in magnitude, infinity and NaN to 2**16 or more
            tensor, bound = _widen_f16(stored, out), 2.0**16
        if not _within(tensor, bound):
            raise ArchiveError(f"{self.path}: non-finite value detected in tensor {name!r}")
        return tensor

    def __contains__(self, name: object) -> bool:
        return name in self.infos  # Mapping's default would read the tensor

    def __iter__(self) -> Iterator[str]:
        return iter(self.infos)

    def __len__(self) -> int:
        return len(self.infos)


def read_archive(path: str | Path) -> Archive:
    """Open a tensor archive as a read-only name -> float32 ndarray mapping.

    The header is checked here: a malformed header, truncated payload,
    unsupported dtype or duplicate name raises :class:`ArchiveError`, its
    message starting with ``path``. Each lookup reads one tensor, F16 widened
    to F32, and raises the same way on a non-finite value or on a payload
    the file no longer holds.
    """
    return Archive(path)


def tensor_shapes(tensors: Mapping[str, np.ndarray]) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape by name; an :class:`Archive` answers from its header, reading no payload."""
    if isinstance(tensors, Archive):
        return {name: info.shape for name, info in tensors.infos.items()}
    return {name: np.shape(tensor) for name, tensor in tensors.items()}


def _naming(exc: OSError, path: str | Path, action: str = "") -> OSError:
    """``exc`` again, naming ``path`` as its file and the ``action`` that failed there."""
    strerror = f"{exc.strerror} {action}" if action else exc.strerror
    return type(exc)(exc.errno, strerror, str(path))


def write_at(fd: int, buf: bytes | np.ndarray, offset: int, path: str | Path, what: str) -> None:
    """Write all of the flat bytes ``buf`` at ``offset``; an ``OSError`` names ``path`` and ``what``."""
    view = memoryview(buf)
    done = 0
    try:
        while done < len(view):
            done += os.pwritev(fd, [view[done:]], offset + done)
    except OSError as exc:
        raise _naming(exc, path, f"writing {what}") from exc


@contextmanager
def archive_writer(
    shapes: Mapping[str, tuple[int, ...]],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> Iterator[Callable[[str, int, np.ndarray], None]]:
    """Write an F32 archive of ``shapes`` a range at a time: the block is given
    ``write_range(name, start, values)``, which writes the flat ``values`` as entries
    ``start`` on of tensor ``name`` in row-major order. Ranges may come in any order and
    from several threads at once; none need outlive its write.

    The header follows from ``shapes``, names in lexicographic order, and ``metadata``
    becomes its ``__metadata__`` entry. A name not in ``shapes``, a range outside its
    tensor, a non-finite value at 32-bit precision, a range overlapping one already
    written, or a tensor not wholly written when the block ends raises
    :class:`ArchiveError` naming ``path`` and the tensor. The file is renamed into place,
    through :func:`atomic_file`, only once every tensor is wholly written; on any error
    the target is left untouched. The block must not end while a ``write_range`` runs.
    """
    if not shapes:
        raise ArchiveError("tensor map must contain at least one tensor")
    for name in shapes:
        if not isinstance(name, str) or not name:
            raise ArchiveError(f"tensor name must be non-empty text, got {name!r}")
        if name == "__metadata__":
            raise ArchiveError("tensor name '__metadata__' is reserved for archive metadata")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ArchiveError(f"unencodable tensor name {name!r}: {exc}") from exc

    header: dict[str, object] = {}
    if metadata is not None:
        if any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()):
            raise ArchiveError("metadata must map strings to strings")
        header["__metadata__"] = {k: metadata[k] for k in sorted(metadata)}
    layout: dict[str, tuple[int, int]] = {}  # entries and payload offset by name
    cursor = 0
    for name in sorted(shapes):
        try:  # int() would pass -1 on and write 2.5 as 2
            shape = tuple(operator.index(d) for d in shapes[name])
        except TypeError:
            shape = None
        if shape is None or min(shape, default=0) < 0:
            raise ArchiveError(f"tensor {name!r} has a bad shape {shapes[name]!r}: dims must be integers >= 0")
        if len(shape) > _MAX_DIMS:
            raise ArchiveError(f"tensor {name!r} has {len(shape)} dims, more than {_MAX_DIMS}")
        size = math.prod(shape)
        end = cursor + 4 * size
        header[name] = {"dtype": "F32", "shape": list(shape), "data_offsets": [cursor, end]}
        layout[name] = size, cursor
        cursor = end
    raw = json.dumps(header, separators=(",", ":"), ensure_ascii=True).encode("utf-8")

    payload = 8 + len(raw)
    written: dict[str, list[list[int]]] = {name: [] for name in layout}  # see _claim
    lock = threading.Lock()
    with atomic_file(path) as f:
        fd = f.fileno()
        write_at(fd, struct.pack("<Q", len(raw)) + raw, 0, path, "the header")

        def write_range(name: str, start: int, values: np.ndarray) -> None:
            if name not in layout:
                raise ArchiveError(f"{path}: tensor {name!r} is not in the archive header")
            size, offset = layout[name]
            with np.errstate(over="ignore"):  # an overflow is reported just below
                flat = np.ravel(np.asarray(values, dtype="<f4"))
            if not 0 <= start <= start + flat.size <= size:
                raise ArchiveError(f"{path}: range [{start}, {start + flat.size}) lies outside "
                                   f"tensor {name!r} of {size} entries")
            if not _within(flat, np.inf):
                raise ArchiveError(f"{path}: non-finite value in tensor {name!r} at 32-bit precision")
            with lock:
                claimed = _claim(written[name], start, start + flat.size)
            if not claimed:  # the file holds no telling which value was meant
                raise ArchiveError(f"{path}: tensor {name!r} has entries written twice, "
                                   f"in range [{start}, {start + flat.size})")
            write_at(fd, flat.view(np.uint8), payload + offset + 4 * start, path, f"tensor {name!r}")

        yield write_range
        for name, (size, _) in layout.items():
            done = sum(stop - start for start, stop in written[name])
            if done < size:  # its missing bytes would read as silent zeros, or be cut off
                what = f"is partly written ({done} of {size} entries)" if done else "was never written"
                raise ArchiveError(f"{path}: tensor {name!r} {what}")


def _claim(spans: list[list[int]], start: int, stop: int) -> bool:
    """Add ``[start, stop)`` to ``spans``, the sorted ``[start, stop)`` ranges written so
    far with touching ones joined, so that ranges written in order keep one; False, and
    ``spans`` unchanged, if it overlaps one of them."""
    if start == stop:
        return True
    i = bisect.bisect_left(spans, [start])  # the first range starting at ``start`` or later
    if (i and spans[i - 1][1] > start) or (i < len(spans) and spans[i][0] < stop):
        return False
    if i and spans[i - 1][1] == start:
        spans[i - 1][1] = stop
        if i < len(spans) and spans[i][0] == stop:
            spans[i - 1][1] = spans.pop(i)[1]
    elif i < len(spans) and spans[i][0] == stop:
        spans[i][0] = start
    else:
        spans.insert(i, [start, stop])
    return True


def write_archive(
    tensors: Mapping[str, np.ndarray],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write the in-memory ``tensors`` as an F32 archive, each whole, through :func:`archive_writer`."""
    with archive_writer(tensor_shapes(tensors), path, metadata) as write_range:
        for name in tensors:  # a lazy mapping's tensor is freed before the next is looked up
            write_range(name, 0, tensors[name])


@contextmanager
def atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """The one way a file is written: a new temp file beside ``path``, renamed into place
    when the block ends. Readers see the old file or the complete new one; on any failure
    the temp file is removed and ``path`` is left untouched. An ``OSError`` on it names ``path``.
    The temp file is synced to disk before the rename, and its directory after it."""
    target = Path(path)
    tmp_name = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        # mode 0666 less the umask, as open(path, "wb") gives; mkstemp would force 0600
        fd = os.open(tmp_name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                yield f
                f.flush()
                _sync(f.fileno(), tmp_name)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename != str(tmp_name):
            raise
        # the temp file is an implementation detail: name the file the caller asked for
        raise _naming(exc, path) from exc
    directory = os.open(target.parent, os.O_RDONLY)
    try:
        _sync(directory, target.parent)
    finally:
        os.close(directory)


def _sync(fd: int, path: str | Path) -> None:
    """``os.fsync(fd)``; an ``OSError`` names ``path``."""
    try:
        os.fsync(fd)
    except OSError as exc:
        raise _naming(exc, path, "syncing it") from exc
