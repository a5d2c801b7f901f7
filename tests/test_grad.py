import ctypes
import hashlib

import numpy as np
import pytest

from mpkrbm import blas, energy, grad
from mpkrbm.energy import free_energy, hidden_conditionals
from mpkrbm.errors import DataError, NumericError, ParameterError
from mpkrbm.grad import (
    TINY_SHAPE,
    check_gradients,
    finite_diff_param,
    finite_diff_v,
    grad_free_energy_params,
    grad_free_energy_v,
    random_tiny_params,
)
from mpkrbm.params import LEARNABLE_TENSORS, ModelShape, init_params
from mpkrbm.sampler import Chain, HmcConfig, hmc_chain


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def test_grad_v_zero_params_is_identity():
    params = init_params(TINY_SHAPE, seed=0)
    for tensor in params.tensors().values():
        tensor[:] = 0.0
    v = np.random.default_rng(0).standard_normal(4)
    assert np.allclose(grad_free_energy_v(v, params), v, atol=1e-12)


def test_grad_v_matches_finite_differences():
    rng = np.random.default_rng(1)
    for seed in range(4):
        params = random_tiny_params(seed)
        for _ in range(10):
            v = rng.standard_normal(4)
            analytic = grad_free_energy_v(v, params)
            fd = finite_diff_v(v, params)
            assert rel_err(analytic, fd) < 1e-5


def test_grad_v_at_zero_is_finite():
    params = random_tiny_params(2)
    g = grad_free_energy_v(np.zeros(4), params)
    assert np.all(np.isfinite(g))


def test_grad_v_batch_matches_rows():
    params = random_tiny_params(4)
    V = np.random.default_rng(5).standard_normal((6, 4))
    batch = grad_free_energy_v(V, params)
    for i, v in enumerate(V):
        assert np.allclose(batch[i], grad_free_energy_v(v, params), atol=1e-12)


def test_grad_params_match_finite_differences():
    rng = np.random.default_rng(6)
    params = random_tiny_params(7)
    batch = rng.standard_normal((3, 4))
    analytic = grad_free_energy_params(batch, params)
    for name in LEARNABLE_TENSORS:
        fd = finite_diff_param(batch, params, name)
        assert rel_err(analytic[name], fd) < 1e-5, name


def test_grad_params_alpha_three():
    rng = np.random.default_rng(8)
    params = random_tiny_params(9, alpha=3.0)
    batch = rng.standard_normal((2, 4))
    analytic = grad_free_energy_params(batch, params)
    for name in ("C", "P", "b_c"):
        fd = finite_diff_param(batch, params, name)
        assert rel_err(analytic[name], fd) < 1e-5, name
    v = rng.standard_normal(4)
    assert rel_err(grad_free_energy_v(v, params), finite_diff_v(v, params)) < 1e-5


def test_grad_bc_equals_negative_conditional():
    from mpkrbm.energy import hidden_conditionals

    params = random_tiny_params(10)
    batch = np.random.default_rng(11).standard_normal((5, 4))
    g = grad_free_energy_params(batch, params)
    probs = np.array([hidden_conditionals(v, params).p_hp for v in batch])
    assert np.allclose(g["b_c"], -probs.mean(axis=0), atol=1e-12)


def test_grad_duplicate_row_equals_singleton():
    params = random_tiny_params(12)
    v = np.random.default_rng(13).standard_normal(4)
    single = grad_free_energy_params(v[None, :], params)
    doubled = grad_free_energy_params(np.stack([v, v]), params)
    for name in LEARNABLE_TENSORS:
        assert np.allclose(single[name], doubled[name], atol=1e-12)


def test_grad_batch_is_mean_of_rows():
    params = random_tiny_params(14)
    V = np.random.default_rng(15).standard_normal((4, 4))
    batch = grad_free_energy_params(V, params)
    rows = [grad_free_energy_params(v[None, :], params) for v in V]
    for name in LEARNABLE_TENSORS:
        mean = np.mean([r[name] for r in rows], axis=0)
        assert np.allclose(batch[name], mean, atol=1e-12)


def test_grad_empty_batch_rejected():
    params = random_tiny_params(16)
    with pytest.raises(DataError):
        grad_free_energy_params(np.zeros((0, 4)), params)


def test_grad_params_rejects_non_finite_rows():
    params = random_tiny_params(24)
    batch = np.random.default_rng(25).standard_normal((3, 4))
    batch[1, 2] = np.nan
    with pytest.raises(NumericError):
        grad_free_energy_params(batch, params)


def test_grad_without_phase_zeroes_phase_tensors():
    params = random_tiny_params(17).without_phase()
    batch = np.random.default_rng(18).standard_normal((3, 4))
    g = grad_free_energy_params(batch, params)
    assert not np.any(g["Q"]) and not np.any(g["R"]) and not np.any(g["b_k"])
    # and the remaining tensors still check out against the phase-free F
    for name in ("C", "P", "W", "b_c", "b_m", "b_v"):
        fd = finite_diff_param(batch, params, name)
        assert rel_err(g[name], fd) < 1e-5, name


def test_check_gradients_default_passes():
    report = check_gradients(seed=0)
    assert report["passed"]
    assert all(err < 1e-5 for err in report["max_rel_err"].values())


def test_check_gradients_detects_broken_gradient(monkeypatch):
    def broken(v, params):
        return grad_free_energy_v(v, params) + 0.01

    monkeypatch.setattr(grad, "grad_free_energy_v", broken)
    report = check_gradients(seed=0)
    assert not report["passed"]
    assert report["max_rel_err"]["v"] > 1e-5


def test_check_gradients_zero_tolerance_fails():
    report = check_gradients(seed=0, tolerance=0.0)
    assert not report["passed"]


def test_check_gradients_many_seeds():
    for seed in range(10):
        report = check_gradients(seed=seed, n_vectors=3, batch_size=2)
        assert report["passed"], (seed, report["max_rel_err"])


def test_grad_v_continuous_near_zero():
    params = random_tiny_params(19)
    for scale in (1e-3, 1e-6, 1e-9, 0.0):
        v = np.full(4, scale)
        g = grad_free_energy_v(v, params)
        assert np.all(np.isfinite(g)), scale


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_gradient_paths_reject_invalid_alpha(alpha):
    params = random_tiny_params(22)
    params.alpha = alpha
    V = np.random.default_rng(23).standard_normal((3, 4))
    with pytest.raises(ParameterError):
        grad_free_energy_v(V, params)
    with pytest.raises(ParameterError):
        grad_free_energy_params(V, params)
    with pytest.raises(ParameterError):
        hmc_chain(Chain.at(V, params), params, HmcConfig(seed=0), 1)


@pytest.mark.parametrize("with_phase", [True, False])
def test_calls_return_arrays_of_their_own(with_phase):
    # two calls in a row: the second must not touch what the first
    # returned, and each must equal a call of its own
    params = random_tiny_params(24, alpha=1.5)
    if not with_phase:
        params = params.without_phase()
    rng = np.random.default_rng(25)
    V1, V2 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))

    g1 = grad_free_energy_v(V1, params)
    kept = g1.copy()
    g2 = grad_free_energy_v(V2, params)
    assert np.array_equal(g1, kept)
    for g, V in ((g1, V1), (g2, V2)):
        assert np.array_equal(g, grad_free_energy_v(V, params))

    p1 = grad_free_energy_params(V1, params)
    kept = {name: p1[name].copy() for name in LEARNABLE_TENSORS}
    p2 = grad_free_energy_params(V2, params)
    for name, value in kept.items():
        assert np.array_equal(p1[name], value), name
    for got, V in ((p1, V1), (p2, V2)):
        fresh = grad_free_energy_params(V, params)
        for name in kept:
            assert np.array_equal(got[name], fresh[name]), name


PAPER_SHAPE = ModelShape(200, 256, 2, 256, 100, 256, 256)

# F and dF/dv at float64 params, recorded from one fused call before float32
# forwards existed, on init_params(PAPER_SHAPE, 3) and 128 rows of N(0, I)
# from seed 4: the first 16 hex digits of the SHA-256 of the F and dF/dv
# bytes, and their sums as exact floats. The digest holds where it was recorded: numpy 2.4.6
# on OpenBLAS's SkylakeX kernels, at one and at two BLAS threads.
FLOAT64_REFERENCE = {
    (2.0, True): ("993a8c678802f9ec", "-0x1.e2d4005466680p+18", "0x1.16d333e29f529p+13"),
    (1.5, False): ("67db7441931b9127", "-0x1.f47982f321e6dp+15", "0x1.c11dfe764ee9ep+9"),
    # recorded later, before the leapfrog gradient stopped computing F
    (2.0, False): ("d4c5666ea6653c56", "-0x1.f535cda3ff05cp+15", "0x1.c103fabb955c9p+9"),
}
REFERENCE_PLATFORM = ("2.4.6", b"SkylakeX")


@pytest.mark.parametrize("alpha, with_phase", FLOAT64_REFERENCE)
def test_float64_forward_keeps_its_bits(alpha, with_phase):
    params = init_params(PAPER_SHAPE, 3, alpha=alpha)
    if not with_phase:
        params = params.without_phase()
    v = np.random.default_rng(4).standard_normal((128, 200))
    f = free_energy(v, params)
    g = grad_free_energy_v(v, params)
    assert f.dtype == g.dtype == np.float64
    digest, f_sum, g_sum = FLOAT64_REFERENCE[alpha, with_phase]
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        assert hashlib.sha256(f.tobytes() + g.tobytes()).hexdigest()[:16] == digest
    # elsewhere other kernels round differently, but far below float32's 1e-7
    assert f.sum() == pytest.approx(float.fromhex(f_sum), rel=1e-9)
    assert g.sum() == pytest.approx(float.fromhex(g_sum), rel=1e-9)


# grad_free_energy_params on the same model and rows, recorded before the
# leapfrog gradient stopped computing F: the digest of the bytes of the nine
# gradients in LEARNABLE_TENSORS order and then the per-row F, the sum of
# that F, and the sum of the absolute values of the nine gradients, on the platform
# and at the thread counts of FLOAT64_REFERENCE.
PARAMS_REFERENCE = {
    (2.0, True): ("b3893e7f04923896", "-0x1.e2d4005466680p+18", "0x1.01988cab8fe11p+20"),
    (2.0, False): ("e871cde30ff6977d", "-0x1.f535cda3ff05cp+15", "0x1.d0a16dbc0f7cbp+11"),
    (1.5, False): ("f64234d92d20e56a", "-0x1.f47982f321e6dp+15", "0x1.ea100ab06ce38p+11"),
}


@pytest.mark.parametrize("alpha, with_phase", PARAMS_REFERENCE)
def test_float64_param_gradients_keep_their_bits(alpha, with_phase):
    full = init_params(PAPER_SHAPE, 3, alpha=alpha)
    params = full if with_phase else full.without_phase()
    v = np.random.default_rng(4).standard_normal((128, 200))
    # recorded when a pass without the phase units gave the phase family's
    # gradients as zeros of the full model's shapes; an empty family's are empty
    grads = [g if g.size else np.zeros(getattr(full, name).shape)
             for name, g in grad_free_energy_params(v, params).items()]
    f = free_energy(v, params)
    digest, f_sum, abs_sum = PARAMS_REFERENCE[alpha, with_phase]
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        data = b"".join(a.tobytes() for a in grads + [f])
        assert hashlib.sha256(data).hexdigest()[:16] == digest
    assert f.sum() == pytest.approx(float.fromhex(f_sum), rel=1e-9)
    assert sum(np.abs(a).sum() for a in grads) == pytest.approx(float.fromhex(abs_sum),
                                                                rel=1e-9)


@pytest.mark.parametrize("seed, alpha, with_phase",
                         [(0, 2.0, True), (1, 1.5, True), (2, 2.0, False)])
def test_float32_grad_v_is_close_to_float64(seed, alpha, with_phase):
    # what HMC's trajectory runs on, at the paper shape: each row's dF/dv
    # within 1e-4 of the float64 one, relative to its norm (about 3e-5 at
    # most with the phase units, whose unit-circle map divides by r)
    params = init_params(PAPER_SHAPE, seed, alpha=alpha)
    if not with_phase:
        params = params.without_phase()
    v = np.random.default_rng(seed + 10).standard_normal((128, 200))
    g64 = grad_free_energy_v(v, params)
    g32 = grad_free_energy_v(v, params.astype(np.float32))
    assert g32.dtype == np.float32
    rel = np.linalg.norm(g32 - g64, axis=1) / np.linalg.norm(g64, axis=1)
    assert rel.max() < 1e-4


# The model of the pins above with b_c and b_k moved by each unit's median
# drive on the rows, so that half of the pooling and of the phase drives
# are negative, as on a trained model (at init they are all >= 0 there);
# the mean drive is mixed already (26% >= 0). Recorded before the sigmoid
# gates went branch-free: the digest of the bytes of the float32 dF/dv, the
# nine float64 gradients in LEARNABLE_TENSORS order, the per-row F and the
# three hidden conditionals; then, as exact floats, the sums of |float32
# dF/dv|, of F, of the nine |gradients| and of the conditionals. Same platform
# and thread counts as FLOAT64_REFERENCE.
MIXED_SIGN_REFERENCE = ("018b30d31b37a922", "0x1.111d4cba64c70p+20", "-0x1.3414970b5c863p+18",
                        "0x1.60974fc8222f8p+19", "0x1.1f5a87a597a6dp+15")


def test_mixed_sign_gates_keep_their_bits():
    params = init_params(PAPER_SHAPE, 3)
    v = np.random.default_rng(4).standard_normal((128, 200))
    fw = energy._forward(v, params)
    params.b_c = params.b_c - np.median(fw.phi, axis=0)
    params.b_k = params.b_k - np.median(fw.psi, axis=0)
    fw = energy._forward(v, params)
    for drive in (fw.phi, fw.m, fw.psi):
        assert 0.2 < np.mean(drive >= 0) < 0.8

    g32 = grad_free_energy_v(v, params.astype(np.float32))
    grads = list(grad_free_energy_params(v, params).values())
    f = free_energy(v, params)
    h = hidden_conditionals(v, params)
    gates = [h.p_hp, h.p_hm, h.p_hk]
    digest, g32_sum, f_sum, abs_sum, gate_sum = MIXED_SIGN_REFERENCE
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        data = b"".join(a.tobytes() for a in [g32] + grads + [f] + gates)
        assert hashlib.sha256(data).hexdigest()[:16] == digest
    # elsewhere other kernels round differently, float32 ones the most
    assert np.abs(g32).sum(dtype=np.float64) == pytest.approx(float.fromhex(g32_sum), rel=1e-5)
    assert f.sum() == pytest.approx(float.fromhex(f_sum), rel=1e-9)
    assert sum(np.abs(a).sum() for a in grads) == pytest.approx(float.fromhex(abs_sum),
                                                                rel=1e-9)
    assert sum(a.sum() for a in gates) == pytest.approx(float.fromhex(gate_sum), rel=1e-9)
