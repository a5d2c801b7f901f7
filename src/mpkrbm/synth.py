"""Synthetic phase-coupled data with known ground truth.

Patches are rendered from a fixed orthonormal bank of quadrature
(even/odd) Gabor-like basis pairs. Subspace phases are uniform marginally;
selected disjoint pairs are coupled so that the phase difference follows a
von Mises distribution with known concentration and offset. This gives the
phase-coupling layer a controlled recovery target.
"""

from dataclasses import dataclass

import numpy as np

from . import container
from .errors import DataError, ParameterError, ShapeError

TWO_PI = 2.0 * np.pi


def wrap_angle(theta):
    """Map angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=np.float64), TWO_PI)


@dataclass(frozen=True)
class VonMisesPair:
    """Joint density over two angles, concentrated in their difference:
    p(ti, tj) = exp(kappa * cos(ti - tj - mu)) / ((2 pi)^2 I0(kappa))."""

    kappa: float
    mu: float

    def __post_init__(self):
        if not 0 <= self.kappa < np.inf:
            raise ParameterError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite, got {self.mu}")


def von_mises_pair_pdf(theta_i, theta_j, pair):
    """Joint density of a coupled phase pair; broadcasts over inputs."""
    diff = np.asarray(theta_i, dtype=np.float64) - theta_j - pair.mu
    return np.exp(pair.kappa * np.cos(diff)) / (TWO_PI * TWO_PI * np.i0(pair.kappa))


def sample_coupled_phases(pairs, n_subspaces, count, seed):
    """Phase matrix (count, n_subspaces): uniform marginals everywhere,
    von Mises-coupled differences for each (i, j, VonMisesPair) entry.

    Pairs must be disjoint so the ground truth stays unambiguous.
    """
    used = set()
    for i, j, _ in pairs:
        if i == j or not (0 <= i < n_subspaces and 0 <= j < n_subspaces):
            raise DataError(f"invalid pair indices ({i}, {j})")
        if i in used or j in used:
            raise DataError(f"pair ({i}, {j}) shares an index with another pair")
        used.update((i, j))

    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, size=(count, n_subspaces))
    for i, j, pair in pairs:
        delta = rng.vonmises(0.0, pair.kappa, size=count)
        phases[:, j] = wrap_angle(phases[:, i] - pair.mu - delta)
    return phases


def quadrature_gabor_basis(patch_size, n_subspaces, seed):
    """Orthonormal even/odd Gabor-like pairs on a square patch grid.

    Returns (F, 2, D). Gabors at random positions/orientations/frequencies
    are orthonormalized with QR, so projections recover phases exactly.
    """
    D = patch_size * patch_size
    if 2 * n_subspaces > D:
        raise ShapeError(f"{n_subspaces} pairs need 2F <= D={D} dimensions")
    rng = np.random.default_rng(seed)
    grid = np.arange(patch_size) - (patch_size - 1) / 2.0
    yy, xx = np.meshgrid(grid, grid, indexing="ij")

    vectors = np.empty((2 * n_subspaces, D))
    for f in range(n_subspaces):
        ori = rng.uniform(0, np.pi)
        freq = rng.uniform(1.0, 2.0) / patch_size * TWO_PI
        sigma = patch_size / rng.uniform(3.0, 5.0)
        cx, cy = rng.uniform(-patch_size / 4, patch_size / 4, size=2)
        xr = (xx - cx) * np.cos(ori) + (yy - cy) * np.sin(ori)
        envelope = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
        vectors[2 * f] = (envelope * np.cos(freq * xr)).reshape(-1)
        vectors[2 * f + 1] = (envelope * np.sin(freq * xr)).reshape(-1)

    q, r = np.linalg.qr(vectors.T)          # (D, 2F), columns orthonormal
    signs = np.sign(np.diag(r))             # keep orientation of each Gabor
    signs[signs == 0] = 1.0
    return (q * signs).T.reshape(n_subspaces, 2, D)


def render_quadrature_patches(phases, amplitudes, basis, noise_sigma, seed=0):
    """Patches sum_f amp_f (cos(theta_f) basis[f,0] + sin(theta_f) basis[f,1])
    plus Gaussian pixel noise. `amplitudes` broadcasts against (count, F)."""
    phases = np.atleast_2d(np.asarray(phases, dtype=np.float64))
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 3 or basis.shape[0] != phases.shape[1]:
        raise ShapeError(
            f"basis shape {basis.shape} incompatible with {phases.shape[1]} phase columns")
    amp = np.broadcast_to(np.asarray(amplitudes, dtype=np.float64), phases.shape)
    patches = (amp * np.cos(phases)) @ basis[:, 0, :] + (amp * np.sin(phases)) @ basis[:, 1, :]
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        patches = patches + noise_sigma * rng.standard_normal(patches.shape)
    return patches


def write_coupled_dataset(path, patch_size, n_subspaces, pairs, count,
                          amplitude=1.0, noise_sigma=0.02, seed=0):
    """Generate and store a coupled-pair dataset with its ground truth."""
    basis = quadrature_gabor_basis(patch_size, n_subspaces, seed)
    phases = sample_coupled_phases(pairs, n_subspaces, count, seed + 1)
    patches = render_quadrature_patches(phases, amplitude, basis, noise_sigma, seed + 2)
    tensors = {
        "patches": patches,
        "ground_truth.phases": phases,
        "ground_truth.basis": basis.reshape(n_subspaces * 2, -1),
        "ground_truth.pairs": np.array([[i, j] for i, j, _ in pairs], dtype=np.float64).reshape(-1, 2),
        "ground_truth.kappa": np.array([p.kappa for _, _, p in pairs]),
        "ground_truth.mu": np.array([p.mu for _, _, p in pairs]),
        "ground_truth.amplitude": np.float64(amplitude),
        "ground_truth.noise_sigma": np.float64(noise_sigma),
    }
    container.write_container(path, tensors)
    return tensors
