"""What the OpenBLAS that numpy loaded reports about itself, read with
ctypes; no dependency beyond numpy.

A matrix product split over another number of threads may round
differently, and the float32 HMC trajectory turns such a difference into
another Metropolis decision now and then. So a checkpoint records the
thread count of the run that wrote it, and a resumed run warns when its
own differs (`cli`).
"""

import ctypes
import glob
import os
from functools import lru_cache

import numpy as np

# symbol prefixes and suffixes of OpenBLAS builds: numpy's ILP64 and LP64
# wheels, then a plain OpenBLAS
_MANGLINGS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "64_"),
              ("openblas_", ""))


@lru_cache(maxsize=None)
def _library():
    """The OpenBLAS numpy bundles (its wheels' `numpy.libs` or `.dylibs`)
    with its symbol mangling, or None."""
    root = os.path.dirname(np.__file__)
    for pattern in (os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),
                    os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix, suffix in _MANGLINGS:
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


def openblas(function, restype=ctypes.c_int):
    """The result of OpenBLAS's `function` (e.g. "get_num_threads" or,
    with `ctypes.c_char_p`, "get_corename"); None when no OpenBLAS is found."""
    found = _library()
    if found is None:
        return None
    lib, prefix, suffix = found
    call = getattr(lib, f"{prefix}{function}{suffix}")
    call.argtypes = []
    call.restype = restype
    return call()


def threads():
    """The BLAS thread count, or None when no OpenBLAS is found."""
    return openblas("get_num_threads")
