import numpy as np

from mpkrbm.energy import phase_coupling_matrix
from mpkrbm.params import ModelShape, init_params
from mpkrbm.preprocess import WhiteningTransform
from mpkrbm.viz import (
    group_tiles,
    mosaic,
    ranked_offblock_pairs,
    subspace_tiles,
    top_coupled_entries,
    top_weighted_subspaces,
)


def identity_whitening(patch_size, channels=1):
    d = patch_size * patch_size * channels
    return WhiteningTransform(mean=np.zeros(d), forward=np.eye(d), inverse=np.eye(d),
                              variance_fraction=1.0, patch_size=patch_size,
                              channels=channels)


def test_delta_filters_give_single_bright_pixels():
    ps = 4
    wt = identity_whitening(ps)
    params = init_params(ModelShape(ps * ps, 2, 2, 2, 2, 2, 2), seed=0)
    params.C[:] = 0.0
    for f in range(2):
        for l in range(2):
            params.C[5 * f + 3 * l, f, l] = 1.0
    tiles = subspace_tiles(params, wt, kind="C0")
    for tile in tiles:
        flat = np.sort(tile.reshape(-1))
        assert flat[-1] > 0.99 and flat[-2] < 1e-9


def test_amplitude_tile_value():
    ps = 2
    wt = identity_whitening(ps)
    params = init_params(ModelShape(4, 1, 2, 1, 1, 1, 1), seed=0)
    params.C[:] = 0.0
    params.C[0, 0, 0] = 3.0
    params.C[0, 0, 1] = 4.0
    tile = subspace_tiles(params, wt, kind="amplitude")[0]
    assert np.isclose(tile.reshape(-1)[0], 5.0)


def delta_params(shape):
    """Model whose filter vector (f, l) is the delta at pixel f * L + l."""
    params = init_params(shape, seed=0)
    D, F, L = params.C.shape
    params.C[:] = 0.0
    params.C.reshape(D, F * L)[np.arange(F * L), np.arange(F * L)] = 1.0
    return params


def test_component1_and_phase_tiles_on_delta_filters():
    ps = 3
    params = delta_params(ModelShape(ps * ps, 3, 2, 2, 2, 2, 2))
    wt = identity_whitening(ps)
    for f, tile in enumerate(subspace_tiles(params, wt, kind="C1")):
        expected = np.zeros(ps * ps)
        expected[2 * f + 1] = 1.0
        assert np.array_equal(tile.reshape(-1), expected)
    # angle 0 where only component 0 is on, pi/2 where only component 1 is,
    # and atan2(0, 0) = 0 elsewhere; the cyclic map is (1 + cos) / 2
    for f, tile in enumerate(subspace_tiles(params, wt, kind="phase")):
        expected = np.ones(ps * ps)
        expected[2 * f + 1] = 0.5
        assert np.allclose(tile.reshape(-1), expected, atol=1e-15)


def test_group_tiles_rows_follow_p_q_and_r():
    ps = 3
    shape = ModelShape(ps * ps, 4, 2, 5, 2, 3, 40)
    params = delta_params(shape)
    rng = np.random.default_rng(3)
    params.P = -np.abs(rng.standard_normal(params.P.shape))
    params.Q = rng.standard_normal(params.Q.shape)
    params.R = rng.standard_normal(params.R.shape)
    wt = identity_whitening(ps)

    def delta(index):
        return np.eye(ps * ps)[index].reshape(ps, ps)

    def amplitude(f):
        return np.sqrt(delta(2 * f) ** 2 + delta(2 * f + 1) ** 2)

    rows = group_tiles(params, wt, "P", n_top=3)
    assert len(rows) == 5
    for col, row in enumerate(rows):
        top = np.argsort(-np.abs(params.P[:, col]))[:3]
        assert len(row) == 3
        assert all(np.array_equal(t, amplitude(f)) for t, f in zip(row, top))

    rows = group_tiles(params, wt, "Q", n_top=4)
    assert len(rows) == 3
    q_flat = params.Q.reshape(8, 3)
    for col, row in enumerate(rows):
        top = np.argsort(-np.abs(q_flat[:, col]))[:4]
        assert all(np.array_equal(t, delta(i)) for t, i in zip(row, top))

    rows = group_tiles(params, wt, "R", n_top=4, max_columns=32)
    assert len(rows) == 32
    for col, row in enumerate(rows):
        K = phase_coupling_matrix(np.eye(40)[col], params)
        assert len(row) == 4
        assert all(np.array_equal(t, delta(i)) for t, i in zip(row, top_coupled_entries(K, 4)))


def test_mosaic_layout_and_scaling():
    tiles = [np.array([[0.0, 1.0], [2.0, 3.0]]), np.full((2, 2), 7.0)]
    img = mosaic(tiles, n_columns=2)
    assert img.shape == (4, 7)
    assert img[0, 0] == 128.0                 # border
    assert img[1, 1] == 0.0 and img[2, 2] == 255.0
    assert np.all(img[1:3, 4:6] == 0.0)       # constant tile maps to zero


def test_top_weighted_subspaces_order():
    weights = np.array([0.1, -5.0, 2.0, 0.5])
    assert top_weighted_subspaces(weights, 3) == [1, 2, 3]


def test_top_coupled_entries_against_direct_sort():
    rng = np.random.default_rng(0)
    K = rng.standard_normal((8, 8))
    K = K + K.T

    # independent oracle: enumerate couplings, sort, dedupe in order
    couplings = sorted(
        ((abs(K[i, j]), i, j) for i in range(8) for j in range(i + 1, 8)),
        key=lambda t: -t[0])
    expected = []
    for _, i, j in couplings:
        for e in (i, j):
            if e not in expected:
                expected.append(e)
        if len(expected) >= 6:
            break
    assert top_coupled_entries(K, 6) == expected[:6]


def test_ranked_offblock_pairs_excludes_same_subspace():
    K = np.zeros((6, 6))
    K[0, 1] = 99.0      # same subspace (block f=0), must be ignored
    K[0, 3] = 5.0       # subspaces (0, 1)
    K[2, 5] = -7.0      # subspaces (1, 2)
    K = K + K.T
    ranked = ranked_offblock_pairs(K, 2)
    assert ranked[0][0] == (1, 2) and np.isclose(ranked[0][1], 7.0)
    assert ranked[1][0] == (0, 1) and np.isclose(ranked[1][1], 5.0)
    assert all(pair != (0, 0) for pair, _ in ranked)
