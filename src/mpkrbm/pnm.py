"""Binary PPM (P6) and PGM (P5) reader/writer.

Only the binary variants are supported; anything else is the caller's job
to convert. Pixels come back as float64 in [0, maxval]; grayscale images
are (H, W), color images (H, W, 3).
"""

import numpy as np

from .errors import DataError, FormatError


def _read_token(fh):
    """Next whitespace-delimited header token, skipping '#' comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise FormatError("truncated PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_pnm(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic == b"P5":
            channels = 1
        elif magic == b"P6":
            channels = 3
        else:
            raise FormatError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
        width = int(_read_token(fh))
        height = int(_read_token(fh))
        maxval = int(_read_token(fh))
        if not 0 < maxval < 65536:
            raise FormatError(f"{path}: invalid maxval {maxval}")
        dtype = ">u2" if maxval > 255 else "u1"
        count = width * height * channels
        raw = fh.read(count * np.dtype(dtype).itemsize)
        if len(raw) < count * np.dtype(dtype).itemsize:
            raise FormatError(f"{path}: truncated pixel data")
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
