import numpy as np
import pytest

from mpkrbm.errors import FormatError
from mpkrbm.pnm import read_pnm, write_pnm


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.float64)
    path = tmp_path / "x.ppm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert back.shape == (5, 7, 3)
    assert np.array_equal(back, img)


def test_pgm_round_trip(tmp_path):
    img = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pnm(path, img)
    back = read_pnm(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, img)


def test_header_comments_and_16bit(tmp_path):
    path = tmp_path / "x.pgm"
    pixels = np.array([[300, 5], [65535, 0]], dtype=">u2")
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n65535\n" + pixels.tobytes())
    back = read_pnm(path)
    assert np.array_equal(back, pixels.astype(np.float64))


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(FormatError):
        read_pnm(path)


def test_truncated_pixels(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        read_pnm(path)


def test_write_clips_to_8_bit(tmp_path):
    path = tmp_path / "x.pgm"
    write_pnm(path, np.array([[-5.0, 300.4], [127.6, 255.0]]))
    assert path.read_bytes().startswith(b"P5\n2 2\n255\n")
    assert np.array_equal(read_pnm(path), [[0.0, 255.0], [128.0, 255.0]])


@pytest.mark.parametrize("header, message", [
    (b"P6\nab 4\n255\n", "invalid width"),
    (b"P6\n-4 4\n255\n", "invalid width"),
    (b"P5\n4 x4\n255\n", "invalid height"),
    (b"P5\n4 4\n2.5\n", "invalid maxval"),
    (b"P6\n100000000 100000000\n255\n", "truncated pixel data"),
    (b"P6\n16", "truncated PNM header"),
])
def test_bad_header_is_a_format_error_naming_the_file(tmp_path, header, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + b"\x00" * 48)
    with pytest.raises(FormatError, match=message) as info:
        read_pnm(path)
    assert "bad.ppm" in str(info.value)
