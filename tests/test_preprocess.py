import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpkrbm.errors import DataError, ShapeError
from mpkrbm.preprocess import (
    EPS_NORM,
    GATHER_ELEMENTS,
    WhiteningTransform,
    extract_patches,
    fit_whitening,
    normalize_visible,
)


def test_extract_rgb_patch_row_length():
    rng = np.random.default_rng(0)
    image = rng.uniform(0, 255, size=(32, 40, 3))
    patches = extract_patches(image, 16, 5, seed=1)
    assert patches.shape == (5, 768)


def test_extract_zero_count():
    image = np.zeros((20, 20))
    patches = extract_patches(image, 8, 0, seed=0)
    assert patches.shape == (0, 64)


def test_extract_deterministic():
    rng = np.random.default_rng(0)
    image = rng.uniform(0, 255, size=(30, 30))
    a = extract_patches(image, 8, 20, seed=9)
    b = extract_patches(image, 8, 20, seed=9)
    assert np.array_equal(a, b)
    c = extract_patches(image, 8, 20, seed=10)
    assert not np.array_equal(a, c)


def test_extract_window_content_matches_image():
    image = np.arange(100.0).reshape(10, 10)
    patches = extract_patches(image, 3, 50, seed=4)
    # every row must be an actual 3x3 window of the image
    windows = {
        tuple(image[r:r + 3, c:c + 3].reshape(-1))
        for r in range(8) for c in range(8)
    }
    for row in patches:
        assert tuple(row) in windows


def test_extract_matches_per_patch_loop():
    rng = np.random.default_rng(3)
    ps = 5
    images = (rng.uniform(0, 255, size=(23, 31, 3)), rng.uniform(0, 255, size=(17, 12)))
    # the larger count takes several gathers, the last one partial
    for image, count in itertools.product(images, (40, 3 * GATHER_ELEMENTS // 25 + 7)):
        img = image if image.ndim == 3 else image[:, :, None]
        offsets = np.random.default_rng(8)
        rows = offsets.integers(0, img.shape[0] - ps + 1, size=count)
        cols = offsets.integers(0, img.shape[1] - ps + 1, size=count)
        expected = np.array([img[r:r + ps, c:c + ps, :].reshape(-1) for r, c in zip(rows, cols)])
        assert extract_patches(image, ps, count, seed=8).tobytes() == expected.tobytes()
        # into rows of a larger matrix, as the preprocess command gathers them
        out = np.zeros((count + 2, expected.shape[1]))
        extract_patches(image, ps, count, seed=8, out=out[1:-1])
        assert out[1:-1].tobytes() == expected.tobytes() and not out[[0, -1]].any()


def test_extract_image_too_small():
    with pytest.raises(ShapeError):
        extract_patches(np.zeros((4, 4)), 8, 1, seed=0)


def test_whitening_identity_covariance_case():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5000, 6))
    wt = fit_whitening(X, 1.0)
    Y = wt.apply(X)
    cov = np.cov(Y, rowvar=False)
    assert np.linalg.norm(cov - np.eye(wt.n_components)) < 1e-6


def test_whitening_constant_patches_error():
    with pytest.raises(DataError):
        fit_whitening(np.ones((50, 8)), 0.99)


def test_whitening_retains_requested_fraction():
    rng = np.random.default_rng(2)
    # anisotropic data: a few strong directions, many weak ones
    scales = np.concatenate([np.array([10.0, 5.0, 3.0]), np.full(13, 0.3)])
    X = rng.standard_normal((4000, 16)) * scales
    wt = fit_whitening(X, 0.99)
    assert wt.variance_fraction >= 0.99
    assert wt.n_components < 16
    Y = wt.apply(X)
    cov = Y.T @ Y / (len(Y) - 1) - np.outer(Y.mean(0), Y.mean(0)) * len(Y) / (len(Y) - 1)
    assert np.linalg.norm(cov - np.eye(wt.n_components)) < 1e-6


@pytest.mark.parametrize("n, d", [(3000, 192), (2000, 64)])
def test_whitening_in_place_keeps_the_bits(n, d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
    wt = fit_whitening(X, 1.0)
    copied = wt.apply(X)
    Y = X.copy()
    np.testing.assert_array_equal(wt.apply(Y, overwrite=True), copied)
    np.testing.assert_array_equal(Y, X - wt.mean)      # centered in place
    np.testing.assert_array_equal(copied, (X - wt.mean) @ wt.forward.T)


def test_whitening_inverse_is_projection():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 10)) * np.linspace(3, 0.1, 10)
    wt = fit_whitening(X, 0.9)
    Z = rng.standard_normal((20, 10))
    once = wt.unapply(wt.apply(Z))
    twice = wt.unapply(wt.apply(once))
    assert np.allclose(once, twice, atol=1e-9)


def test_whitening_round_trip_file(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 12))
    wt = fit_whitening(X, 0.95, patch_size=2, channels=3)
    path = tmp_path / "w.mpk"
    wt.save(path)
    back = WhiteningTransform.load(path)
    assert np.array_equal(back.forward, wt.forward)
    assert np.array_equal(back.inverse, wt.inverse)
    assert back.patch_size == 2 and back.channels == 3


def test_normalize_unit_vector_unchanged():
    v = np.zeros(5)
    v[0] = 1.0
    assert np.allclose(normalize_visible(v), v)


def test_normalize_three_four():
    v = np.array([3.0, 4.0, 0.0])
    assert np.allclose(normalize_visible(v), [0.6, 0.8, 0.0])


def test_normalize_zero_gives_zero():
    out = normalize_visible(np.zeros(4))
    assert np.all(out == 0.0)
    assert np.all(np.isfinite(out))


def test_normalize_batch_rows():
    V = np.array([[3.0, 4.0], [0.0, 2.0]])
    out = normalize_visible(V)
    assert np.allclose(out, [[0.6, 0.8], [0.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=8),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_normalize_scale_invariant(values, scale):
    v = np.asarray(values)
    if np.linalg.norm(v) < 1e-3:
        return
    assert np.allclose(normalize_visible(v * scale), normalize_visible(v), atol=1e-12)
