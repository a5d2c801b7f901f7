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
"""

import contextlib
import os
import struct
import zlib

import numpy as np

from .errors import FormatError

MAGIC = b"MPK1"
VERSION = 1

_HEADER = struct.Struct("<II")
_NAME_LEN = struct.Struct("<H")
_RANK = struct.Struct("<B")
_CRC = struct.Struct("<I")


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
                dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
                payload = name_bytes + _RANK.pack(arr.ndim) + dims + arr.tobytes()
                fh.write(_NAME_LEN.pack(len(name_bytes)))
                fh.write(payload)
                fh.write(_CRC.pack(zlib.crc32(payload)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated container: short read in {what}")
    return buf


def read_container(path):
    """Read a container back into an ordered dict of name -> np.ndarray."""
    tensors = {}
    with open(path, "rb") as fh:
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
            shape = struct.unpack(f"<{rank}Q", dims_bytes)
            n_elem = 1
            for d in shape:
                n_elem *= d
            data = _read_exact(fh, 8 * n_elem, "tensor data")
            (crc,) = _CRC.unpack(_read_exact(fh, _CRC.size, "crc"))
            payload = name_bytes + rank_byte + dims_bytes + data
            if zlib.crc32(payload) != crc:
                raise FormatError(f"{path}: CRC mismatch for tensor {name_bytes!r}")
            name = name_bytes.decode("utf-8")
            arr = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            tensors[name] = arr
    return tensors
