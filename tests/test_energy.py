import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpkrbm import energy
from mpkrbm.energy import (
    EPS_R,
    Diagonal,
    free_energy,
    hidden_conditionals,
    phase_coupling_matrix,
    phase_features,
    sigmoid,
    softplus,
    subspace_pool,
    total_energy,
)
from mpkrbm.errors import NumericError, ParameterError, ShapeError
from mpkrbm.grad import TINY_SHAPE, grad_free_energy_v, random_tiny_params
from mpkrbm.params import ModelShape, banded_pattern, init_params
from mpkrbm.preprocess import normalize_visible


# --- termwise oracles: literal loop transliterations of the formulas ------

def oracle_pool(v, params):
    D, F, L = params.C.shape
    s = np.zeros(F)
    for f in range(F):
        acc = 0.0
        for l in range(L):
            proj = sum(params.C[i, f, l] * v[i] for i in range(D))
            acc += abs(proj) ** params.alpha
        s[f] = acc ** (1.0 / params.alpha)
    return s


def oracle_energy_p(v, h_p, params):
    F, N = params.P.shape
    s = oracle_pool(v, params)
    total = 0.0
    for n in range(N):
        total += -0.5 * h_p[n] * sum(params.P[f, n] * s[f] for f in range(F))
        total += -params.b_c[n] * h_p[n]
    return total


def oracle_energy_m(v, h_m, params):
    D, M = params.W.shape
    total = 0.0
    for j in range(M):
        total += -h_m[j] * sum(params.W[i, j] * v[i] for i in range(D))
        total += -params.b_m[j] * h_m[j]
    return total


def oracle_x(v, params):
    D, F, L = params.C.shape
    x = np.zeros((F, 2))
    for f in range(F):
        a = sum(params.C[i, f, 0] * v[i] for i in range(D))
        b = sum(params.C[i, f, 1] * v[i] for i in range(D))
        r = np.sqrt(a * a + b * b + EPS_R ** 2)
        x[f] = (a / r, b / r)
    return x


def oracle_energy_k(v, h_k, params):
    F, L, G = params.Q.shape
    T = params.R.shape[1]
    x = oracle_x(v, params)
    total = 0.0
    for t in range(T):
        inner = 0.0
        for g in range(G):
            q = sum(params.Q[f, l, g] * x[f, l] for f in range(F) for l in range(L))
            inner += params.R[g, t] * q * q
        total += -0.5 * h_k[t] * inner - params.b_k[t] * h_k[t]
    return total


@pytest.fixture
def tiny():
    return random_tiny_params(3)


def rand_v(seed, d=4):
    return np.random.default_rng(seed).standard_normal(d)


def visible_term(v, params):
    return 0.5 * np.sum(v * v) - params.b_v @ v


def family_energy(v, params, family, h):
    """E_p, E_m or E_k (`family` "p", "m" or "k") at hiddens h, as
    total_energy less the visible term with the other families' hiddens
    at zero. Pooling and phase terms see the normalized patch, the mean
    term v as given."""
    hiddens = {"p": np.zeros(params.P.shape[1]), "m": np.zeros(params.W.shape[1]),
               "k": np.zeros(params.R.shape[1])}
    hiddens[family] = h
    return total_energy(v, hiddens["p"], hiddens["m"], hiddens["k"], params) - visible_term(v, params)


def test_pool_quadrature_amplitude():
    params = init_params(ModelShape(2, 1, 2, 1, 1, 1, 1), seed=0)
    params.C = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])      # projections (v0, v1)
    s = subspace_pool(np.array([3.0, 4.0]), params)
    assert np.allclose(s, [5.0])


def test_pool_l1():
    params = init_params(ModelShape(2, 1, 2, 1, 1, 1, 1), seed=0, alpha=1.0)
    params.C = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    s = subspace_pool(np.array([3.0, 4.0]), params)
    assert np.allclose(s, [7.0])


def test_pool_zero_input(tiny):
    assert np.allclose(subspace_pool(np.zeros(4), tiny), 0.0)


def test_pool_alpha_must_be_positive(tiny):
    tiny.alpha = 0.0
    with pytest.raises(ParameterError):
        subspace_pool(np.zeros(4), tiny)


def test_pool_matches_oracle(tiny):
    u = normalize_visible(rand_v(11))
    assert np.allclose(subspace_pool(u, tiny), oracle_pool(u, tiny), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-np.pi, max_value=np.pi), st.integers(0, 2**31 - 1))
def test_pool_rotation_invariance(angle, seed):
    # alpha=2, L=2: rotating a subspace's two filters in their plane
    # leaves the pooled amplitude unchanged
    params = random_tiny_params(5)
    u = normalize_visible(rand_v(seed))
    before = subspace_pool(u, params)
    c, s = np.cos(angle), np.sin(angle)
    rotated = params.copy()
    rotated.C = np.stack(
        [c * params.C[..., 0] - s * params.C[..., 1],
         s * params.C[..., 0] + c * params.C[..., 1]], axis=-1)
    assert np.allclose(subspace_pool(u, rotated), before, atol=1e-10)


def test_energy_p_zero_hiddens(tiny):
    assert family_energy(rand_v(0), tiny, "p", np.zeros(3)) == 0.0


def test_energy_p_bias_only():
    params = init_params(TINY_SHAPE, seed=0)
    params.P[:] = 0.0
    params.b_c[:] = 2.0
    assert np.isclose(family_energy(rand_v(1), params, "p", np.ones(3)), -2.0 * 3)


def test_energy_p_matches_oracle(tiny):
    rng = np.random.default_rng(8)
    v = rng.standard_normal(4)
    h = rng.integers(0, 2, size=3).astype(float)
    expected = oracle_energy_p(normalize_visible(v), h, tiny)
    assert np.isclose(family_energy(v, tiny, "p", h), expected, atol=1e-12)


def test_energy_m_bias_only():
    params = init_params(TINY_SHAPE, seed=0)
    params.W[:] = 0.0
    assert np.isclose(family_energy(rand_v(2), params, "m", np.ones(3)), 2.0 * 3)


def test_energy_m_zero_hiddens(tiny):
    assert family_energy(rand_v(3), tiny, "m", np.zeros(3)) == 0.0


def test_energy_m_matches_oracle(tiny):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(4)
    h = rng.integers(0, 2, size=3).astype(float)
    assert np.isclose(family_energy(v, tiny, "m", h), oracle_energy_m(v, h, tiny), atol=1e-12)


def test_energy_m_shape_mismatch(tiny):
    with pytest.raises(ShapeError):
        total_energy(rand_v(4), np.zeros(3), np.zeros(5), np.zeros(3), tiny)


def test_phase_features_axis_cases():
    params = init_params(ModelShape(2, 1, 2, 1, 1, 1, 1), seed=0)
    params.C = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    f = phase_features(np.array([1.0, 0.0]), params)
    assert np.isclose(f.theta[0], 0.0)
    assert np.allclose(f.x[0], [1.0, 0.0], atol=1e-6)
    f = phase_features(np.array([0.0, 2.0]), params)
    assert np.isclose(f.theta[0], np.pi / 2)
    assert np.allclose(f.x[0], [0.0, 1.0], atol=1e-6)


def test_phase_features_zero_amplitude_is_finite():
    params = init_params(ModelShape(2, 1, 2, 1, 1, 1, 1), seed=0)
    f = phase_features(np.zeros(2), params)
    assert np.allclose(f.x, 0.0)
    assert f.theta[0] == 0.0
    assert np.all(np.isfinite(f.x))


def test_phase_features_unit_circle(tiny):
    f = phase_features(normalize_visible(rand_v(5)), tiny)
    sq = f.x[..., 0] ** 2 + f.x[..., 1] ** 2
    assert np.all(sq <= 1.0 + 1e-12)
    strong = f.r > 10 * EPS_R
    assert np.allclose(sq[strong], 1.0, atol=1e-9)
    assert np.allclose(f.theta[strong],
                       np.arctan2(f.x[strong, 1], f.x[strong, 0]))


def test_phase_features_requires_l2():
    params = init_params(ModelShape(4, 2, 3, 2, 2, 2, 2), seed=0)
    with pytest.raises(ParameterError):
        phase_features(rand_v(4), params)


def test_energy_k_zero_cases(tiny):
    v = rand_v(6)
    assert family_energy(v, tiny, "k", np.zeros(3)) == 0.0
    zeroq = tiny.copy()
    zeroq.Q[:] = 0.0
    zeroq.b_k[:] = 0.0
    assert family_energy(v, zeroq, "k", np.ones(3)) == 0.0


def test_energy_k_matches_oracle(tiny):
    rng = np.random.default_rng(10)
    v = rng.standard_normal(4)
    h = rng.integers(0, 2, size=3).astype(float)
    expected = oracle_energy_k(normalize_visible(v), h, tiny)
    assert np.isclose(family_energy(v, tiny, "k", h), expected, atol=1e-12)


def test_total_energy_quadratic_only(tiny):
    v = rand_v(12)
    tiny.b_v[:] = 0.0
    e = total_energy(v, np.zeros(3), np.zeros(3), np.zeros(3), tiny)
    assert np.isclose(e, 0.5 * np.sum(v * v))


def test_total_energy_zero_everything():
    params = init_params(TINY_SHAPE, seed=0)
    for name in ("b_c", "b_m", "b_k", "b_v"):
        getattr(params, name)[:] = 0.0
    e = total_energy(np.zeros(4), np.zeros(3), np.zeros(3), np.zeros(3), params)
    assert e == 0.0


def test_total_energy_composition(tiny):
    rng = np.random.default_rng(13)
    v = rng.standard_normal(4)
    u = normalize_visible(v)
    h_p, h_m, h_k = (rng.integers(0, 2, size=3).astype(float) for _ in range(3))
    expected = (oracle_energy_p(u, h_p, tiny) + oracle_energy_m(v, h_m, tiny)
                + oracle_energy_k(u, h_k, tiny) + visible_term(v, tiny))
    assert np.isclose(total_energy(v, h_p, h_m, h_k, tiny), expected, atol=1e-12)


def test_free_energy_all_zero_params():
    params = init_params(TINY_SHAPE, seed=0)
    for tensor in params.tensors().values():
        tensor[:] = 0.0
    v = rand_v(14)
    expected = -(3 + 3 + 3) * np.log(2.0) + 0.5 * np.sum(v * v)
    assert np.isclose(free_energy(v, params), expected, atol=1e-12)


def enumeration_free_energy(v, params):
    shape = params.shape
    total_bits = shape.n_pool_hidden + shape.n_mean_hidden + shape.n_phase_hidden
    energies = []
    for bits in itertools.product((0.0, 1.0), repeat=total_bits):
        h = np.array(bits)
        h_p = h[:shape.n_pool_hidden]
        h_m = h[shape.n_pool_hidden:shape.n_pool_hidden + shape.n_mean_hidden]
        h_k = h[shape.n_pool_hidden + shape.n_mean_hidden:]
        energies.append(total_energy(v, h_p, h_m, h_k, params))
    energies = np.array(energies)
    low = energies.min()
    return low - np.log(np.sum(np.exp(-(energies - low))))


def test_free_energy_matches_enumeration(tiny):
    rng = np.random.default_rng(15)
    for _ in range(3):
        v = rng.standard_normal(4)
        assert abs(free_energy(v, tiny) - enumeration_free_energy(v, tiny)) < 1e-10


def test_free_energy_batch_matches_rows(tiny):
    rng = np.random.default_rng(16)
    V = rng.standard_normal((5, 4))
    batch = free_energy(V, tiny)
    singles = np.array([free_energy(v, tiny) for v in V])
    assert np.allclose(batch, singles, atol=1e-12)


def test_free_energy_non_finite_raises(tiny):
    v = np.full(4, np.inf)
    with pytest.raises(NumericError):
        free_energy(v, tiny)


def test_softplus_no_overflow():
    assert np.isfinite(softplus(1000.0))
    assert np.isclose(softplus(1000.0), 1000.0)
    assert np.isclose(softplus(-1000.0), 0.0)
    assert np.isclose(softplus(0.0), np.log(2.0))


def test_sigmoid_extremes():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    assert sigmoid(0.0) == 0.5


def masked_sigmoid(y, e):
    """The reference for `energy._sigmoid`: 1/(1+e) where y >= 0 and
    e/(1+e) elsewhere, as a divide masked by the sign of y."""
    den = np.add(e, 1.0)
    return np.divide(1.0, den, out=np.divide(e, den), where=y >= 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_masked_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(31)
    random_signs = rng.standard_normal((64, 96)) * rng.choice([0.1, 3.0, 40.0], (64, 96))
    edges = [0.0, np.inf, np.nan, 1e-30, 1.0, 87.0, 88.0, 88.7, 89.0, 103.0, 104.0,
             700.0, 708.0, 709.0, 744.0, 745.0, 745.2, 746.0, 1e30]
    edges = np.array(edges + [-x for x in edges])
    for y in (random_signs.astype(dtype), edges.astype(dtype)):
        e = energy._exp_neg_abs(y)
        got = energy._sigmoid(y, e)
        assert got.dtype == dtype
        assert got.tobytes() == masked_sigmoid(y, e).tobytes()
    # the edge cases reach a subnormal and a zero e in each dtype
    assert np.any((e > 0) & (e < np.finfo(dtype).tiny)) and np.any(e == 0)


def test_conditionals_bias_cases():
    params = init_params(TINY_SHAPE, seed=0)
    for name in ("C", "P", "W", "Q"):
        getattr(params, name)[:] = 0.0
    act = hidden_conditionals(rand_v(17), params)
    assert np.allclose(act.p_hp, sigmoid(2.0))
    assert np.isclose(float(sigmoid(2.0)), 0.8808, atol=5e-5)
    assert np.allclose(act.p_hm, sigmoid(-2.0))
    assert np.allclose(act.p_hk, 0.5)


def test_conditionals_are_free_energy_bias_gradients(tiny):
    # p(h|v) must equal -dF/d(bias), family by family
    v = rand_v(18)
    act = hidden_conditionals(v, tiny)
    step = 1e-6
    for field, probs in (("b_c", act.p_hp), ("b_m", act.p_hm), ("b_k", act.p_hk)):
        for idx in range(3):
            plus, minus = tiny.copy(), tiny.copy()
            getattr(plus, field)[idx] += step
            getattr(minus, field)[idx] -= step
            fd = (free_energy(v, plus) - free_energy(v, minus)) / (2 * step)
            assert np.isclose(-fd, probs[idx], rtol=1e-6, atol=1e-9)


def test_coupling_matrix_zero_hiddens(tiny):
    FL = 2 * 2
    assert np.array_equal(phase_coupling_matrix(np.zeros(3), tiny), np.zeros((FL, FL)))


def test_coupling_matrix_symmetry_and_enumeration(tiny):
    seen = set()
    for bits in itertools.product((0.0, 1.0), repeat=3):
        K = phase_coupling_matrix(np.array(bits), tiny)
        assert np.max(np.abs(K - K.T)) < 1e-12
        seen.add(K.tobytes())
    assert len(seen) <= 2 ** 3


def test_coupling_matrix_depends_on_rh_only(tiny):
    # two hidden configurations with equal R h produce identical K
    h1 = np.array([1.0, 0.0, 0.0])
    tiny.R[:, 1] = tiny.R[:, 0]
    h2 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(phase_coupling_matrix(h1, tiny),
                       phase_coupling_matrix(h2, tiny))


def test_scale_invariance_of_pooled_term(tiny):
    # E_p drives use the internally normalized patch, so scaling raw v
    # leaves the free energy's pooling part unchanged
    v = rand_v(19)
    for name in ("W", "b_v"):
        getattr(tiny, name)[:] = 0.0
    f1 = free_energy(v, tiny) - 0.5 * np.sum(v * v)
    v2 = 3.7 * v
    f2 = free_energy(v2, tiny) - 0.5 * np.sum(v2 * v2)
    # remaining terms (pool + phase + mean-with-W=0) are scale invariant
    assert np.isclose(f1, f2, atol=1e-9)


# --- the diagonal operand of P and R ---------------------------------------

def rows_with_zeros(n_cols, dtype):
    """Random rows in `dtype` with exact zeros: scattered entries, one whole
    column and one whole row."""
    rng = np.random.default_rng(n_cols)
    a = rng.standard_normal((7, n_cols))
    a[rng.random(a.shape) < 0.2] = 0.0
    a[:, 1] = 0.0
    a[3] = 0.0
    return a.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name, shape", [("P", (6, 6)), ("P", (4, 6)), ("R", (5, 5))])
def test_diagonal_products_equal_matmul(name, shape, dtype):
    M = banded_pattern(name, shape).astype(dtype)
    d = Diagonal.of(M)
    assert isinstance(d, Diagonal)
    for d_op, M_op in ((d, M), (d.T, M.T)):
        a = rows_with_zeros(M_op.shape[0], dtype)
        got = a @ d_op
        assert got.dtype == dtype and got.shape == (7, M_op.shape[1])
        assert np.array_equal(got, np.matmul(a, M_op))
    with pytest.raises(ShapeError):
        np.ones((2, shape[0] + 1), dtype) @ d
    assert Diagonal.of(d) is d
    other = np.float64 if dtype == np.float32 else np.float32
    cast = d.astype(other)
    assert isinstance(cast, Diagonal) and cast.shape == d.shape
    a = rows_with_zeros(shape[0], other)
    assert np.array_equal(a @ cast, np.matmul(a, M.astype(other)))


def test_diagonal_of_keeps_a_matrix_with_an_off_diagonal_nonzero():
    banded = banded_pattern("P", (6, 4))     # rows 0 and 4 both land in column 0
    assert Diagonal.of(banded) is banded
    almost = -np.eye(5)
    almost[3, 1] = -0.5
    assert Diagonal.of(almost) is almost


PAPER_SHAPE = ModelShape(200, 256, 2, 256, 100, 256, 256)


@pytest.mark.parametrize("with_phase", [True, False])
def test_float32_grad_v_with_diagonal_p_and_r_keeps_its_bytes(with_phase):
    # the float32 copy that sampler.hmc_chain runs its leapfrog on
    params32 = init_params(PAPER_SHAPE, 3).astype(np.float32)
    if not with_phase:
        params32 = params32.without_phase()
    diagonal32 = params32.copy()
    diagonal32.P, diagonal32.R = Diagonal.of(params32.P), Diagonal.of(params32.R)
    assert isinstance(diagonal32.P, Diagonal) and isinstance(diagonal32.R, Diagonal)
    v = np.random.default_rng(4).standard_normal((128, 200))
    expected = grad_free_energy_v(v, params32)
    got = grad_free_energy_v(v, diagonal32)
    assert got.dtype == np.float32
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("with_phase", [True, False])
def test_float64_forward_with_diagonal_p_and_r_keeps_its_bytes(with_phase):
    # the float64 params `mpkrbm sample` runs its Metropolis F on: a phase-off
    # chain holds no phase family
    params = init_params(PAPER_SHAPE, 3)
    if not with_phase:
        params = params.without_phase()
    held = replace(params, P=Diagonal.of(params.P), R=Diagonal.of(params.R))
    assert isinstance(held.P, Diagonal) and isinstance(held.R, Diagonal)
    v = 0.1 * np.random.default_rng(4).standard_normal((64, 200))
    expected = energy._forward(v, params)
    got = energy._forward(v, held)
    energy._free_energy(expected, params)
    energy._free_energy(got, held)
    assert vars(got).keys() == vars(expected).keys()
    for name, array in vars(expected).items():
        if isinstance(array, np.ndarray):
            assert getattr(got, name).tobytes() == array.tobytes(), name
