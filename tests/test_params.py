import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpkrbm.container import write_container
from mpkrbm.errors import FormatError, ShapeError
from mpkrbm.params import (
    ModelParams,
    ModelShape,
    banded_identity,
    init_params,
    load_checkpoint,
    project_constraints,
    save_checkpoint,
)

SHAPE = ModelShape(n_visible=6, n_subspaces=4, subspace_dim=2,
                   n_pool_hidden=3, n_mean_hidden=5,
                   n_phase_factors=4, n_phase_hidden=3)


def test_bias_initialization_values():
    p = init_params(SHAPE, seed=0)
    assert np.array_equal(p.b_c, np.full(3, 2.0))
    assert np.array_equal(p.b_m, np.full(5, -2.0))
    assert np.array_equal(p.b_k, np.zeros(3))
    assert np.array_equal(p.b_v, np.zeros(6))


def test_init_deterministic():
    a = init_params(SHAPE, seed=42)
    b = init_params(SHAPE, seed=42)
    for name, tensor in a.tensors().items():
        assert np.array_equal(tensor, getattr(b, name)), name
    c = init_params(SHAPE, seed=43)
    assert not np.array_equal(a.C, c.C)


def test_init_c_columns_unit_norm():
    p = init_params(SHAPE, seed=7)
    norms = np.linalg.norm(p.C, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_init_banded_patterns():
    p = init_params(SHAPE, seed=1)
    # F=4 subspaces into N=3 pooling units: -1 at n = f mod 3, normalized
    expected = np.zeros((4, 3))
    for f in range(4):
        expected[f, f % 3] = -1.0
    expected /= np.linalg.norm(expected, axis=0)
    assert np.allclose(p.P, expected)
    assert np.all(p.P <= 0)
    assert np.allclose(np.linalg.norm(p.R, axis=0), 1.0)
    assert np.all(p.R >= 0)


def test_init_square_banded_is_identity():
    square = ModelShape(4, 3, 2, 3, 2, 3, 3)
    p = init_params(square, seed=0)
    assert np.array_equal(p.P, -np.eye(3))
    assert np.array_equal(p.R, np.eye(3))


def test_init_rejects_zero_dimension():
    with pytest.raises(ShapeError):
        init_params(ModelShape(0, 4, 2, 3, 5, 4, 3), seed=0)


def test_init_weight_scales():
    big = ModelShape(200, 40, 2, 30, 50, 40, 30)
    p = init_params(big, seed=3)
    assert abs(p.W.var() - 0.05) < 0.005
    assert abs(p.Q.var() - 0.1) < 0.01


def test_project_c_lengths_to_mean():
    p = init_params(ModelShape(4, 1, 2, 2, 2, 2, 2), seed=0)
    p.C[:, 0, 0] *= 1.0
    p.C[:, 0, 1] *= 3.0
    out = project_constraints(p)
    lengths = np.linalg.norm(out.C, axis=0)
    assert np.allclose(lengths, 2.0, atol=1e-12)


def test_project_clamps_positive_p():
    p = init_params(SHAPE, seed=0)
    p.P[0, 0] = 0.3
    out = project_constraints(p)
    assert np.all(out.P <= 0)
    norms = np.linalg.norm(out.P, axis=0)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-12)


def test_project_r_column_unit():
    p = init_params(ModelShape(4, 2, 2, 2, 2, 2, 2), seed=0)
    p.R = np.array([[3.0, 0.0], [4.0, 1.0]])
    out = project_constraints(p)
    assert np.allclose(out.R[:, 0], [0.6, 0.8])


def test_project_zero_p_column_warns_and_stays_zero():
    p = init_params(SHAPE, seed=0)
    p.P[:, 1] = 0.5      # clamps to an all-zero column
    with pytest.warns(UserWarning):
        out = project_constraints(p)
    assert np.array_equal(out.P[:, 1], np.zeros(4))


def test_project_idempotent():
    p = init_params(SHAPE, seed=9)
    rng = np.random.default_rng(9)
    p.P = rng.standard_normal(p.P.shape)
    p.R = rng.standard_normal(p.R.shape)
    p.C = rng.standard_normal(p.C.shape) * rng.uniform(0.5, 2.0, size=(1,) + p.C.shape[1:])
    once = project_constraints(p)
    twice = project_constraints(once)
    assert np.array_equal(once.P, twice.P)
    assert np.array_equal(once.R, twice.R)
    assert np.array_equal(once.C, twice.C)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_init_pure_function_of_seed(seed):
    a = init_params(SHAPE, seed=seed)
    b = init_params(SHAPE, seed=seed)
    assert all(np.array_equal(t, getattr(b, n)) for n, t in a.tensors().items())


def test_banded_identity_column_norms():
    m = banded_identity(7, 3, sign=-1.0)
    assert np.allclose(np.linalg.norm(m, axis=0), 1.0)
    assert np.all(m <= 0)


def test_checkpoint_round_trip(tmp_path):
    p = init_params(SHAPE, seed=5)
    state = {"iteration": 120.0, "stage": 2.0, "step_size": 0.031}
    path = tmp_path / "ck.mpk"
    save_checkpoint(p, state, path)
    q, back_state = load_checkpoint(path)
    for name, tensor in p.tensors().items():
        assert tensor.tobytes() == getattr(q, name).tobytes(), name
    assert q.alpha == p.alpha and q.subspace_dim == p.subspace_dim
    assert back_state == state


def test_checkpoint_round_trip_hand_built_l3(tmp_path):
    D, F, L, N, M, G, T = 5, 2, 3, 2, 2, 2, 2
    rng = np.random.default_rng(0)
    p = ModelParams(
        C=rng.standard_normal((D, F, L)), P=-np.abs(rng.standard_normal((F, N))),
        W=rng.standard_normal((D, M)), Q=rng.standard_normal((F, L, G)),
        R=rng.standard_normal((G, T)), b_c=np.zeros(N), b_m=np.zeros(M),
        b_k=np.zeros(T), b_v=np.zeros(D), alpha=1.5,
    )
    assert p.subspace_dim == 3 and p.shape.subspace_dim == 3
    path = tmp_path / "ck.mpk"
    save_checkpoint(p, {}, path)
    q, _ = load_checkpoint(path)
    assert q.subspace_dim == 3 and q.alpha == 1.5
    for name, tensor in p.tensors().items():
        assert tensor.tobytes() == getattr(q, name).tobytes(), name


def test_checkpoint_header_l_must_match_c(tmp_path):
    p = init_params(SHAPE, seed=5)
    tensors = dict(p.tensors(), alpha=np.float64(p.alpha), L=np.float64(3))
    path = tmp_path / "ck.mpk"
    write_container(path, tensors)
    with pytest.raises(ShapeError, match="header L=3 but C has L=2"):
        load_checkpoint(path)


def test_copy_is_deep_and_keeps_alpha():
    p = init_params(SHAPE, seed=5, alpha=1.5)
    q = p.copy()
    assert q.alpha == 1.5
    for name, tensor in p.tensors().items():
        copied = getattr(q, name)
        assert copied is not tensor and not np.shares_memory(copied, tensor), name
        assert np.array_equal(copied, tensor), name
        copied += 1.0
        assert not np.array_equal(copied, tensor), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_without_phase_empties_the_phase_family_alone(dtype):
    p = init_params(SHAPE, seed=0).astype(dtype)
    q = p.without_phase()
    assert (q.Q.shape, q.R.shape, q.b_k.shape) == ((4, 2, 0), (0, 0), (0,))
    assert {q.Q.dtype, q.R.dtype, q.b_k.dtype} == {np.dtype(dtype)}
    for name in ("C", "P", "W", "b_c", "b_m", "b_v"):
        assert getattr(q, name) is getattr(p, name), name
    assert q.alpha == p.alpha and p.Q.shape == (4, 2, 4)


def test_checkpoint_truncated(tmp_path):
    p = init_params(SHAPE, seed=5)
    path = tmp_path / "ck.mpk"
    save_checkpoint(p, {}, path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_d138_header(tmp_path):
    shape = ModelShape(138, 2, 2, 2, 2, 2, 2)
    p = init_params(shape, seed=0)
    path = tmp_path / "ck.mpk"
    save_checkpoint(p, {}, path)
    q, _ = load_checkpoint(path)
    assert q.shape.n_visible == 138


def test_checkpoint_inconsistent_shapes(tmp_path):
    p = init_params(SHAPE, seed=5)
    p.W = p.W[:-1]      # break D agreement between C and W
    path = tmp_path / "ck.mpk"
    save_checkpoint(p, {}, path)
    with pytest.raises(ShapeError):
        load_checkpoint(path)
