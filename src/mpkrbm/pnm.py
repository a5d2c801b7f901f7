"""Binary PPM (P6) and PGM (P5) reader/writer.

Only the binary variants are supported; anything else is the caller's job
to convert. Pixels come back as float64 in [0, maxval]; grayscale images
are (H, W), color images (H, W, 3). A malformed header, or one that
declares more pixel bytes than the file holds, is a FormatError that names
the file, raised before the pixels are read. `read_channels` reads the
header alone.
"""

import os

import numpy as np

from .errors import DataError, FormatError


def _read_token(fh, path):
    """Next whitespace-delimited header token of `path`, skipping '#' comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise FormatError(f"{path}: truncated PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _read_count(fh, path, what):
    """Next header token as a non-negative decimal integer."""
    token = _read_token(fh, path)
    if not token.isdigit():
        raise FormatError(f"{path}: invalid {what} {token.decode('latin-1')!r} in PNM header")
    return int(token)


def _read_header(fh, path):
    """(channels, width, height, maxval) of the PNM header `fh` starts with."""
    magic = fh.read(2)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
    width = _read_count(fh, path, "width")
    height = _read_count(fh, path, "height")
    maxval = _read_count(fh, path, "maxval")
    if not 0 < maxval < 65536:
        raise FormatError(f"{path}: invalid maxval {maxval}")
    return channels, width, height, maxval


def read_channels(path):
    """The channel count the header of `path` declares: 1 for PGM, 3 for PPM."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def read_pnm(path):
    with open(path, "rb") as fh:
        channels, width, height, maxval = _read_header(fh, path)
        dtype = ">u2" if maxval > 255 else "u1"
        n_bytes = width * height * channels * np.dtype(dtype).itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > left:
            raise FormatError(f"{path}: truncated pixel data: the header declares "
                              f"{n_bytes} bytes, the file holds {left}")
        raw = fh.read(n_bytes)
    img = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if channels == 1:
        return img.reshape(height, width)
    return img.reshape(height, width, 3)


def write_pnm(path, image):
    """Write a (H, W) array as PGM or (H, W, 3) as PPM, 8-bit (maxval 255)."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise DataError(f"cannot write array of shape {arr.shape} as PNM")
    data = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())
