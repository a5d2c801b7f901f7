import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mpkrbm.container import MAGIC, check_entries, read_container, write_container
from mpkrbm.errors import DataError, FormatError


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "C": rng.standard_normal((4, 3, 2)),
        "bias": rng.standard_normal(7),
        "alpha": np.float64(2.0),
        "tiny": np.array(-0.0),
    }
    path = tmp_path / "t.mpk"
    write_container(path, tensors)
    back = read_container(path)
    assert list(back) == list(tensors)
    for name in tensors:
        original = np.asarray(tensors[name], dtype=np.float64)
        assert back[name].shape == original.shape
        assert original.tobytes() == back[name].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
        arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=4),
               elements=st.floats(allow_nan=False, width=64)),
        max_size=4,
    )
)
def test_round_trip_property(tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("c") / "t.mpk"
    write_container(path, tensors)
    back = read_container(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert np.asarray(arr, dtype=np.float64).tobytes() == back[name].tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "t.mpk"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_container(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.mpk"
    write_container(path, {"x": np.arange(10.0)})
    data = path.read_bytes()
    path.write_bytes(data[:-13])
    with pytest.raises(FormatError):
        read_container(path)


def test_corrupt_payload_fails_crc(tmp_path):
    path = tmp_path / "t.mpk"
    write_container(path, {"x": np.arange(10.0)})
    data = bytearray(path.read_bytes())
    data[-20] ^= 0xFF        # flip a byte inside the float payload
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_container(path)


def test_magic_bytes_on_disk(tmp_path):
    path = tmp_path / "t.mpk"
    write_container(path, {})
    assert path.read_bytes()[:4] == MAGIC


def test_scalar_rank_zero(tmp_path):
    path = tmp_path / "t.mpk"
    write_container(path, {"alpha": 2.5})
    back = read_container(path)
    assert back["alpha"].shape == ()
    assert float(back["alpha"]) == 2.5


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "checkpoint.mpk"
    old = {"C": np.arange(6.0).reshape(2, 3), "alpha": np.float64(2.0)}
    write_container(path, old)
    before = path.read_bytes()
    # the second tensor's name is too long, so the write fails after the
    # header and the first tensor are out
    with pytest.raises(FormatError):
        write_container(path, {"C": np.zeros((2, 3)), "x" * 0x10000: np.zeros(1)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.mpk"]
    back = read_container(path)
    assert np.array_equal(back["C"], old["C"]) and back["alpha"] == 2.0

    write_container(str(path), {"b": np.ones(2)})
    assert list(read_container(path)) == ["b"]
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.mpk"]


def _f32(x):
    """x rounded to float32, as a Python float."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


# (name, value, shape, row-major float64 values); the expected bytes are
# built from the last two with struct and zlib alone
FORMAT_CASES = [
    ("scalar", np.float64(2.5), (), [2.5]),
    ("empty", np.zeros((0, 3)), (0, 3), []),
    ("rank3", np.arange(6.0).reshape(2, 1, 3) - 2.5, (2, 1, 3), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]),
    ("transposed", np.arange(6.0).reshape(2, 3).T, (3, 2), [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]),
    ("single", np.array([0.1, -2.5, 3e38], dtype=np.float32), (3,),
     [_f32(0.1), -2.5, _f32(3e38)]),
    ("big_endian", np.array([[1.5, -0.0], [5e-324, -1e300]], dtype=">f8"), (2, 2),
     [1.5, -0.0, 5e-324, -1e300]),
]


def test_on_disk_bytes_are_pinned(tmp_path):
    expected = MAGIC + struct.pack("<II", 1, len(FORMAT_CASES))
    for name, _, shape, values in FORMAT_CASES:
        payload = (name.encode() + struct.pack("<B", len(shape))
                   + struct.pack(f"<{len(shape)}Q", *shape)
                   + struct.pack(f"<{len(values)}d", *values))
        expected += (struct.pack("<H", len(name.encode())) + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    path = tmp_path / "t.mpk"
    write_container(path, {name: value for name, value, _, _ in FORMAT_CASES})
    assert path.read_bytes() == expected

    back = read_container(path)
    assert list(back) == [name for name, _, _, _ in FORMAT_CASES]
    for name, _, shape, values in FORMAT_CASES:
        assert back[name].shape == shape
        assert back[name].dtype == np.float64
        assert back[name].tobytes() == struct.pack(f"<{len(values)}d", *values)


def _record(name_bytes, dims, data=b""):
    payload = name_bytes + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + data
    return struct.pack("<H", len(name_bytes)) + payload + struct.pack("<I", zlib.crc32(payload))


def _container(*records):
    return MAGIC + struct.pack("<II", 1, len(records)) + b"".join(records)


@pytest.mark.parametrize("dims", [(2 ** 40, 3), (2 ** 62, 2), (2, 2), (0, 2 ** 63)])
def test_dims_beyond_the_file_are_a_format_error(tmp_path, dims):
    # the record declares more data than the file holds: no allocation,
    # no MemoryError or OverflowError, just a FormatError
    path = tmp_path / "t.mpk"
    path.write_bytes(_container(_record(b"x", dims, data=b"\x00" * 24)))
    with pytest.raises(FormatError, match="t.mpk"):
        read_container(path)


def test_name_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "t.mpk"
    path.write_bytes(_container(_record(b"\xff\xfe", (), data=struct.pack("<d", 1.0))))
    with pytest.raises(FormatError, match="UTF-8"):
        read_container(path)


def test_hand_built_records_read_back(tmp_path):
    path = tmp_path / "t.mpk"
    path.write_bytes(_container(_record(b"a", (2,), data=struct.pack("<2d", 1.0, -2.0)),
                                _record(b"b", (0, 5))))
    back = read_container(path)
    assert back["a"].tolist() == [1.0, -2.0] and back["b"].shape == (0, 5)


def test_check_entries_scans_an_array_in_blocks():
    # 20000 x 192 float64 (30.7 MB): the scan's temporaries stay below 2% of
    # it, and every non-finite entry is counted, the last one included
    patches = np.random.default_rng(0).standard_normal((20000, 192))
    check_entries("p.mpk", {"patches": patches}, arrays=("patches",))
    patches[0, 0], patches[7777, 5], patches[-1, -1] = np.nan, np.inf, -np.inf
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"p\.mpk: tensor patches holds 3 non-finite"):
            check_entries("p.mpk", {"patches": patches}, arrays=("patches",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * patches.nbytes, peak
