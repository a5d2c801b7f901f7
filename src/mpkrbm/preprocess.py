"""Patch extraction, PCA whitening and per-patch visible normalization.

Whitening is PCA with dimension reduction: patches are centered, projected
onto the leading eigenvectors of the sample covariance (enough to retain a
target variance fraction) and variance-equalized. The inverse map takes
whitened coordinates back to the raw pixel domain for filter visualization.
"""

from dataclasses import dataclass

import numpy as np

from . import container
from .errors import DataError, ParameterError, ShapeError

EPS_NORM = 1e-8
# eigenvalues below this multiple of the largest are dropped outright
EIG_FLOOR_RATIO = 1e-9
# elements per gather of extract_patches (256 KiB): glibc keeps a thread's
# freed multi-megabyte blocks resident, so a pool worker allocates none
GATHER_ELEMENTS = 1 << 15


def extract_patches(image, patch_size, count, seed, out=None):
    """Extract `count` square patches at uniformly random valid offsets.

    `image` is (H, W) or (H, W, 3); each returned row is the C-order
    flattening of one patch_size x patch_size x channels window. The rows
    are gathered from the view of every window of the image, GATHER_ELEMENTS
    at a time, into `out` (count rows) when given, else into a new array.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ShapeError(f"expected (H, W) or (H, W, 3) image, got {image.shape}")
    h, w, ch = img.shape
    if h < patch_size or w < patch_size:
        raise ShapeError(f"image {h}x{w} smaller than patch size {patch_size}")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, h - patch_size + 1, size=count)
    cols = rng.integers(0, w - patch_size + 1, size=count)
    # windows[r, c] is the (patch_size, patch_size, ch) window at offset (r, c)
    windows = np.lib.stride_tricks.sliding_window_view(img, (patch_size, patch_size), axis=(0, 1))
    windows = windows.transpose(0, 1, 3, 4, 2)
    if out is None:
        out = np.empty((count, patch_size * patch_size * ch))
    step = max(1, GATHER_ELEMENTS // out.shape[1])
    for start in range(0, count, step):
        stop = start + step
        out[start:stop] = windows[rows[start:stop], cols[start:stop]].reshape(-1, out.shape[1])
    return out


@dataclass
class WhiteningTransform:
    mean: np.ndarray            # (D_raw,)
    forward: np.ndarray         # (D, D_raw)
    inverse: np.ndarray         # (D_raw, D)
    variance_fraction: float    # fraction of raw variance actually retained
    patch_size: int = 0         # display metadata, 0 when unknown
    channels: int = 0

    @property
    def n_components(self):
        return self.forward.shape[0]

    def apply(self, patches, overwrite=False):
        """The whitened rows of `patches` (N, D_raw). With `overwrite` the
        rows are centered in place, so a caller that owns a float64 matrix
        holds it and the result only, not a centered copy too; the result
        has the same bits either way."""
        patches = np.atleast_2d(patches)
        if patches.shape[-1] != self.mean.shape[0]:
            raise ShapeError(f"whitening file has raw dim {self.mean.shape[0]} but patches "
                             f"have D={patches.shape[-1]}")
        if overwrite:
            patches -= self.mean
        else:
            patches = patches - self.mean
        return patches @ self.forward.T

    def unapply(self, whitened):
        return np.atleast_2d(whitened) @ self.inverse.T + self.mean

    def save(self, path):
        container.write_container(path, {
            "mean": self.mean,
            "forward": self.forward,
            "inverse": self.inverse,
            "variance_fraction": np.float64(self.variance_fraction),
            "patch_size": np.float64(self.patch_size),
            "channels": np.float64(self.channels),
        })

    @classmethod
    def load(cls, path):
        """Inverse of save. A DataError names the file and the entry when a
        tensor is missing or holds a non-finite value, when a scalar is not
        rank 0, or when mean, forward and inverse do not have the agreeing
        shapes (D_raw,), (D, D_raw) and (D_raw, D)."""
        t = container.read_container(path)
        missing = [n for n in ("mean", "forward", "inverse", "variance_fraction") if n not in t]
        if missing:
            raise DataError(f"{path}: whitening file missing tensors {missing}")
        scalars = [n for n in ("variance_fraction", "patch_size", "channels") if n in t]
        container.check_entries(path, t, arrays=("mean", "forward", "inverse"), scalars=scalars)
        mean, forward, inverse = t["mean"], t["forward"], t["inverse"]
        if mean.ndim != 1 or forward.shape[1:] != mean.shape or inverse.shape != forward.shape[::-1]:
            raise DataError(f"{path}: whitening tensors mean {mean.shape}, forward {forward.shape} "
                            f"and inverse {inverse.shape} are not (D_raw,), (D, D_raw), (D_raw, D)")
        return cls(
            mean=mean,
            forward=forward,
            inverse=inverse,
            variance_fraction=float(t["variance_fraction"]),
            patch_size=int(t.get("patch_size", 0.0)),
            channels=int(t.get("channels", 0.0)),
        )


def fit_whitening(patches, variance_fraction, patch_size=0, channels=0):
    """Fit a PCA whitening transform retaining >= `variance_fraction` of the
    total patch variance (eigenvalues below the numerical floor are dropped
    regardless of the requested fraction).

    The covariance product and the eigendecomposition run in BLAS/LAPACK,
    whose rounding follows the BLAS thread count: at the paper shape the
    same patches keep the same components at 1 and at 2 threads, but the
    transform's bits differ, so a fit is reproducible bit for bit only at
    the same thread count.

    Beside `patches` the fit holds one centered copy while the covariance is
    formed, then only D_raw x D_raw arrays."""
    X = np.asarray(patches, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("whitening needs at least 2 patches")
    if not 0.0 < variance_fraction <= 1.0:
        raise ParameterError(f"variance_fraction must be in (0, 1], got {variance_fraction}")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc
    del Xc
    cov /= X.shape[0] - 1
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    eigvals = np.maximum(eigvals, 0.0)

    total = eigvals.sum()
    if total <= 0:
        raise DataError("patches have zero variance, cannot whiten")
    floor = EIG_FLOOR_RATIO * eigvals[0]
    cumulative = np.cumsum(eigvals) / total
    keep = int(np.searchsorted(cumulative, variance_fraction) + 1)
    keep = min(keep, int(np.sum(eigvals > floor)))
    if keep == 0:
        raise DataError("no eigenvalue above the numerical floor, data is rank deficient")

    lam = eigvals[:keep]
    E = eigvecs[:, :keep]
    forward = (E / np.sqrt(lam)).T          # (D, D_raw)
    inverse = E * np.sqrt(lam)              # (D_raw, D)
    return WhiteningTransform(
        mean=mean,
        forward=forward,
        inverse=inverse,
        variance_fraction=float(lam.sum() / total),
        patch_size=patch_size,
        channels=channels,
    )


def normalize_visible(v):
    """Scale to unit L2-norm with an epsilon floor: v / max(||v||, 1e-8).

    Accepts a single vector or a batch of row vectors.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(norm, EPS_NORM)
