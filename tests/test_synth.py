import numpy as np
import pytest
from scipy import special, stats as scipy_stats

from mpkrbm.energy import phase_features, subspace_pool
from mpkrbm.errors import DataError, ParameterError, ShapeError
from mpkrbm.params import ModelShape, init_params
from mpkrbm.synth import (
    VonMisesPair,
    quadrature_gabor_basis,
    render_quadrature_patches,
    sample_coupled_phases,
    von_mises_pair_pdf,
    wrap_angle,
)

TWO_PI = 2 * np.pi


def test_pdf_uniform_at_zero_kappa():
    pair = VonMisesPair(kappa=0.0, mu=0.3)
    grid = np.linspace(-np.pi, np.pi, 7)
    vals = von_mises_pair_pdf(grid[:, None], grid[None, :], pair)
    assert np.allclose(vals, 1.0 / TWO_PI ** 2)


def test_pdf_peak_value_kappa_one():
    import math

    pair = VonMisesPair(kappa=1.0, mu=0.7)
    # series evaluation of I0(1), independently of the implementation
    i0 = sum((0.25) ** k / math.factorial(k) ** 2 for k in range(30))
    expected = np.e / (TWO_PI * TWO_PI * i0)
    assert np.isclose(von_mises_pair_pdf(0.7, 0.0, pair), expected, rtol=1e-12)


def test_pdf_grid_integral_is_one():
    pair = VonMisesPair(kappa=3.0, mu=1.1)
    n = 512
    theta = -np.pi + TWO_PI * (np.arange(n) + 0.5) / n
    vals = von_mises_pair_pdf(theta[:, None], theta[None, :], pair)
    integral = vals.sum() * (TWO_PI / n) ** 2
    assert abs(integral - 1.0) < 1e-6


def test_pdf_symmetry_under_swap():
    pair = VonMisesPair(kappa=2.0, mu=0.4)
    swapped = VonMisesPair(kappa=2.0, mu=-0.4)
    rng = np.random.default_rng(0)
    ti, tj = rng.uniform(-np.pi, np.pi, size=(2, 50))
    assert np.allclose(von_mises_pair_pdf(ti, tj, pair),
                       von_mises_pair_pdf(tj, ti, swapped))


def test_negative_kappa_rejected():
    with pytest.raises(ParameterError):
        VonMisesPair(kappa=-1.0, mu=0.0)


def test_coupled_phases_marginals_uniform():
    pairs = [(0, 2, VonMisesPair(4.0, 0.5))]
    phases = sample_coupled_phases(pairs, 4, 10000, seed=3)
    for col in range(4):
        stat = scipy_stats.kstest(phases[:, col], "uniform", args=(-np.pi, TWO_PI))
        assert stat.pvalue > 0.01, col


def test_coupled_phases_difference_statistics():
    pairs = [(1, 3, VonMisesPair(5.0, 0.0))]
    phases = sample_coupled_phases(pairs, 5, 10000, seed=4)
    diff = wrap_angle(phases[:, 1] - phases[:, 3])
    mean_angle = np.arctan2(np.sin(diff).mean(), np.cos(diff).mean())
    assert abs(mean_angle) < 0.05
    resultant = np.hypot(np.cos(diff).mean(), np.sin(diff).mean())
    from scipy.optimize import brentq
    kappa_hat = brentq(lambda k: special.i1(k) / special.i0(k) - resultant, 1e-3, 100)
    assert abs(kappa_hat - 5.0) / 5.0 < 0.1


def test_uncoupled_phases_uncorrelated():
    phases = sample_coupled_phases([], 2, 20000, seed=5)
    diff = wrap_angle(phases[:, 0] - phases[:, 1])
    resultant = np.hypot(np.cos(diff).mean(), np.sin(diff).mean())
    assert resultant < 0.02


def test_overlapping_pairs_rejected():
    pairs = [(0, 1, VonMisesPair(1.0, 0.0)), (1, 2, VonMisesPair(1.0, 0.0))]
    with pytest.raises(DataError):
        sample_coupled_phases(pairs, 4, 10, seed=0)


def test_sampler_deterministic():
    pairs = [(0, 1, VonMisesPair(2.0, 0.3))]
    a = sample_coupled_phases(pairs, 3, 500, seed=7)
    b = sample_coupled_phases(pairs, 3, 500, seed=7)
    assert np.array_equal(a, b)


def test_basis_orthonormal():
    basis = quadrature_gabor_basis(8, 6, seed=0)
    flat = basis.reshape(12, 64)
    assert np.allclose(flat @ flat.T, np.eye(12), atol=1e-10)


def test_render_zero_amplitude_is_noise():
    basis = quadrature_gabor_basis(6, 3, seed=1)
    phases = np.zeros((10, 3))
    patches = render_quadrature_patches(phases, 0.0, basis, noise_sigma=1.0, seed=2)
    assert patches.shape == (10, 36)
    assert np.std(patches) > 0.5


def test_render_single_subspace_theta_zero():
    basis = quadrature_gabor_basis(6, 1, seed=3)
    patch = render_quadrature_patches(np.zeros((1, 1)), 2.0, basis, noise_sigma=0.0)
    assert np.allclose(patch[0], 2.0 * basis[0, 0], atol=1e-12)


def test_render_shape_mismatch():
    basis = quadrature_gabor_basis(6, 2, seed=4)
    with pytest.raises(ShapeError):
        render_quadrature_patches(np.zeros((5, 3)), 1.0, basis, noise_sigma=0.0)


def test_round_trip_phase_and_amplitude_recovery():
    ps, F = 8, 5
    basis = quadrature_gabor_basis(ps, F, seed=5)
    rng = np.random.default_rng(6)
    phases = rng.uniform(-np.pi, np.pi, size=(20, F))
    amps = rng.uniform(0.5, 2.0, size=(20, F))
    patches = render_quadrature_patches(phases, amps, basis, noise_sigma=0.0)

    params = init_params(ModelShape(ps * ps, F, 2, 2, 2, 2, 2), seed=0)
    params.C = basis.transpose(2, 0, 1).copy()
    feats = phase_features(patches, params)
    err = np.abs(wrap_angle(feats.theta - phases))
    assert np.max(err) < 1e-6
    pooled = subspace_pool(patches, params)
    assert np.max(np.abs(pooled - amps)) < 1e-9
