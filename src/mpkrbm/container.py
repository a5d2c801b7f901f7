"""Self-describing binary container for named float64 tensors.

Layout (all integers little-endian):

    magic      4 bytes  b"MPK1"
    version    u32
    n_tensors  u32
    then per tensor:
        name_len   u16
        name       UTF-8 bytes
        rank       u8
        dims       rank * u64
        data       row-major IEEE-754 float64
        crc        u32, CRC32 of the record payload
                   (name bytes + rank byte + dims bytes + data bytes)

Scalars are stored as rank-0 tensors. Checkpoints, patch files, whitening
transforms and synthetic datasets all share this format.

A tensor's data is streamed from and into its own buffer: a write sends the
float64 array's bytes to the file as they lie in memory, and a read fills a
new array straight from the file, so no tensor's bytes exist twice. The CRC
is taken over the record's parts in order, header bytes then data, which
gives the same value as over the joined payload, so the bytes on disk are
those of a write that joins them. A read is bounded by the file size: a
record whose dims declare more data than the file holds is a FormatError
before anything is allocated.
"""

import contextlib
import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError, FormatError

MAGIC = b"MPK1"
VERSION = 1

_HEADER = struct.Struct("<II")
_NAME_LEN = struct.Struct("<H")
_RANK = struct.Struct("<B")
_CRC = struct.Struct("<I")


def _buffer(arr):
    """The bytes of a C-contiguous array, as a view on its own memory."""
    return memoryview(arr.reshape(-1)).cast("B")


def write_container(path, tensors):
    """Write an ordered mapping of name -> array-like to `path`.

    The bytes go to a temporary file beside `path`, which then replaces it
    in one rename: a write that fails midway leaves the old file intact
    and no temporary file behind.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_HEADER.pack(VERSION, len(tensors)))
            for name, value in tensors.items():
                # note: ascontiguousarray would promote rank-0 scalars to rank 1
                arr = np.asarray(value, dtype="<f8", order="C")
                name_bytes = name.encode("utf-8")
                if len(name_bytes) > 0xFFFF:
                    raise FormatError(f"tensor name too long: {name!r}")
                head = name_bytes + _RANK.pack(arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
                data = _buffer(arr)
                fh.write(_NAME_LEN.pack(len(name_bytes)))
                fh.write(head)
                fh.write(data)
                fh.write(_CRC.pack(zlib.crc32(data, zlib.crc32(head))))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"{fh.name}: truncated container: short read in {what}")
    return buf


def _read_tensor(fh, size, shape, name_bytes):
    """The record's data, read from `fh` straight into a new array."""
    n_bytes = 8 * math.prod(shape)
    left = size - fh.tell()
    if n_bytes > left:
        raise FormatError(f"{fh.name}: truncated container: tensor {name_bytes!r} declares "
                          f"{n_bytes} bytes of data, the file holds {left} more")
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError:      # a dim past numpy's index range, beside a zero dim
        raise FormatError(f"{fh.name}: tensor {name_bytes!r} has unusable dims {shape}") from None
    if fh.readinto(_buffer(arr)) != n_bytes:
        raise FormatError(f"{fh.name}: truncated container: short read in tensor data")
    return arr


def read_container(path):
    """Read a container back into an ordered dict of name -> np.ndarray."""
    tensors = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise FormatError(f"{path}: bad magic, not a tensor container")
        version, count = _HEADER.unpack(_read_exact(fh, _HEADER.size, "header"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        for _ in range(count):
            (name_len,) = _NAME_LEN.unpack(_read_exact(fh, _NAME_LEN.size, "name length"))
            name_bytes = _read_exact(fh, name_len, "name")
            rank_byte = _read_exact(fh, 1, "rank")
            (rank,) = _RANK.unpack(rank_byte)
            dims_bytes = _read_exact(fh, 8 * rank, "dims")
            arr = _read_tensor(fh, size, struct.unpack(f"<{rank}Q", dims_bytes), name_bytes)
            (crc,) = _CRC.unpack(_read_exact(fh, _CRC.size, "crc"))
            head = name_bytes + rank_byte + dims_bytes
            if zlib.crc32(_buffer(arr), zlib.crc32(head)) != crc:
                raise FormatError(f"{path}: CRC mismatch for tensor {name_bytes!r}")
            try:
                tensors[name_bytes.decode("utf-8")] = arr
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name {name_bytes!r} is not UTF-8") from None
    return tensors


_SCAN_BLOCK = 1 << 16     # entries an array is scanned by: a 64 KB mask at any size


def check_entries(path, tensors, arrays=(), scalars=()):
    """A DataError, naming `path` and the entry, for the first of `scalars`
    in `tensors` that is not a finite rank-0 tensor or of `arrays` that
    holds a non-finite value: what a loader runs on the entries it reads.
    An array is scanned in blocks of its flat view (a view of the
    contiguous arrays `read_container` returns), so no temporary grows with
    the tensor."""
    for name in scalars:
        if tensors[name].ndim != 0:
            raise DataError(f"{path}: {name} has shape {tensors[name].shape}, not a scalar")
        if not np.isfinite(tensors[name]):
            raise DataError(f"{path}: {name} {float(tensors[name]):g} is not finite")
    for name in arrays:
        flat = tensors[name].reshape(-1)
        finite = sum(np.count_nonzero(np.isfinite(flat[start:start + _SCAN_BLOCK]))
                     for start in range(0, flat.size, _SCAN_BLOCK))
        if finite < flat.size:
            raise DataError(f"{path}: tensor {name} holds {flat.size - finite} non-finite values")
