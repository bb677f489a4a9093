"""Round-trip and error-path tests for the binary tensor container, the PGM
mask reader, bilinear resizing, and the SplitMix64 generator."""

import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssmad.tensor import (
    BadMagic,
    BinaryMask,
    MbtError,
    PgmError,
    Rng,
    Tensor,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedVersion,
    bilinear_resize,
    read_mask_pgm,
    read_tensor,
    write_mask_pgm,
    write_tensor,
)


def _roundtrip(t):
    return read_tensor(write_tensor(t))


# ---------------------------------------------------------------- container


def test_tensor_rejects_bad_rank():
    with pytest.raises(ValueError):
        Tensor(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))


def test_tensor_rejects_zero_extent():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 0), dtype=np.float32))


def test_tensor_casts_to_float32():
    t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert t.array.dtype == np.float32
    assert t.shape == (2, 3)
    assert t.size == 6


# ------------------------------------------------------------- file format


def test_known_serialization_bytes():
    # one-element vector; header laid out by hand from the format notes
    t = Tensor(np.array([1.0], dtype=np.float32))
    want = b"MBT1" + bytes([1, 0, 1, 0]) + struct.pack("<Q", 1) + struct.pack("<f", 1.0)
    assert write_tensor(t) == want


def test_roundtrip_simple():
    t = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    u = _roundtrip(t)
    assert u.shape == t.shape
    np.testing.assert_array_equal(u.array, t.array)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_random(shape, seed):
    rng = np.random.default_rng(seed)
    payload = rng.standard_normal(tuple(shape)).astype(np.float32)
    t = Tensor(payload)
    u = _roundtrip(t)
    assert u.shape == t.shape
    # bitwise equality, not approx
    assert u.array.tobytes() == t.array.tobytes()


def test_roundtrip_preserves_special_values():
    t = Tensor(np.array([0.0, -0.0, 1e-38, np.float32(np.pi)], dtype=np.float32))
    u = _roundtrip(t)
    assert u.array.tobytes() == t.array.tobytes()


def test_bad_magic():
    blob = write_tensor(Tensor(np.ones(2, dtype=np.float32)))
    with pytest.raises(BadMagic):
        read_tensor(b"XBT1" + blob[4:])


def test_unsupported_version():
    blob = bytearray(write_tensor(Tensor(np.ones(2, dtype=np.float32))))
    blob[4] = 9
    with pytest.raises(UnsupportedVersion):
        read_tensor(bytes(blob))


def test_unsupported_dtype():
    blob = bytearray(write_tensor(Tensor(np.ones(2, dtype=np.float32))))
    blob[5] = 1
    with pytest.raises(UnsupportedDtype):
        read_tensor(bytes(blob))


def test_bad_rank_in_header():
    blob = bytearray(write_tensor(Tensor(np.ones(2, dtype=np.float32))))
    blob[6] = 5
    with pytest.raises(ValueError):
        read_tensor(bytes(blob))


def test_truncated_payload_short():
    blob = write_tensor(Tensor(np.ones(3, dtype=np.float32)))
    with pytest.raises(TruncatedPayload):
        read_tensor(blob[:-2])


def test_truncated_payload_long():
    # trailing garbage is rejected just like a short payload
    blob = write_tensor(Tensor(np.ones(3, dtype=np.float32)))
    with pytest.raises(TruncatedPayload):
        read_tensor(blob + b"\x00")


def test_truncated_header():
    with pytest.raises(TruncatedPayload):
        read_tensor(b"MBT1\x01\x00")


def test_file_roundtrip(tmp_path):
    from ssmad.tensor import read_tensor_file, write_tensor_file

    t = Tensor(np.linspace(-1, 1, 30, dtype=np.float32).reshape(5, 6))
    path = tmp_path / "t.mbt"
    write_tensor_file(path, t)
    u = read_tensor_file(path)
    assert u.array.tobytes() == t.array.tobytes()


# ------------------------------------------------------------------- mask


@pytest.mark.parametrize("bits", [[[0.5, 1.0]], [[1.2, 0.0]], [[256, 1]]])
def test_binary_mask_rejects_values_before_the_cast(bits):
    with pytest.raises(ValueError, match="mask values must be 0 or 1"):
        BinaryMask(np.array(bits))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.int64, np.uint8])
def test_binary_mask_takes_exact_bits_of_any_dtype(dtype):
    mask = BinaryMask(np.array([[0, 1], [1, 0]], dtype=dtype))
    assert mask.bits.dtype == np.uint8 and mask.bits.tolist() == [[0, 1], [1, 0]]


# -------------------------------------------------------------------- pgm


def test_pgm_roundtrip():
    mask = BinaryMask(np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8))
    blob = write_mask_pgm(mask)
    back = read_mask_pgm(blob)
    np.testing.assert_array_equal(back.bits, mask.bits)
    assert back.positives() == 3


def test_pgm_comments_and_whitespace():
    raster = bytes([0, 200, 0, 255])
    blob = b"P5\n# a comment\n2 # widths\n2\n# another\n255\n" + raster
    mask = read_mask_pgm(blob)
    np.testing.assert_array_equal(mask.bits, [[0, 1], [0, 1]])


def test_pgm_threshold_at_midpoint():
    # values above 127 mean anomaly, everything else background
    raster = bytes([127, 128])
    blob = b"P5\n2 1\n255\n" + raster
    mask = read_mask_pgm(blob)
    np.testing.assert_array_equal(mask.bits, [[0, 1]])


def test_pgm_rejects_wrong_magic():
    with pytest.raises(PgmError):
        read_mask_pgm(b"P2\n1 1\n255\n0")


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(PgmError):
        read_mask_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_pgm_rejects_short_raster():
    with pytest.raises(PgmError):
        read_mask_pgm(b"P5\n2 2\n255\n\x00\x00\x00")


@pytest.mark.parametrize(
    "blob",
    [
        b"P5 1_6 1 255\n" + bytes(16),
        b"P5 2 1 +255\n" + bytes(2),
        b"P5 +2 1 255\n" + bytes(2),
    ],
    ids=["underscore", "plus-maxval", "plus-width"],
)
def test_pgm_header_fields_are_ascii_digits(blob):
    with pytest.raises(PgmError, match="non-numeric header field"):
        read_mask_pgm(blob)


def test_pgm_file_roundtrip(tmp_path):
    from ssmad.tensor import read_mask_pgm_file, write_mask_pgm_file

    rng = np.random.default_rng(0)
    mask = BinaryMask((rng.random((9, 7)) > 0.6).astype(np.uint8))
    path = tmp_path / "m.pgm"
    write_mask_pgm_file(path, mask)
    back = read_mask_pgm_file(path)
    np.testing.assert_array_equal(back.bits, mask.bits)


# ------------------------------------------------------------------- fuzz


@st.composite
def _valid_mbt(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    count = int(np.prod(shape))
    payload = draw(st.binary(min_size=4 * count, max_size=4 * count))
    return write_tensor(Tensor(np.frombuffer(payload, "<f4").reshape(shape)))


@st.composite
def _valid_pgm(draw):
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raster = draw(st.binary(min_size=h * w, max_size=h * w))
    header = draw(st.sampled_from(["P5\n{w} {h}\n255\n", "P5 # c\n{w}\t{h} 255\r"]))
    return header.format(w=w, h=h).encode("ascii") + raster


@st.composite
def _damaged(draw, valid):
    """A valid file, cut short or with one byte replaced."""
    blob = draw(valid)
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:at]
    return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(st.binary(max_size=64), _valid_mbt(), _damaged(_valid_mbt())))
@example(blob=b"MBT1\x01\x00\x04\x00" + b"\xff" * 32)
def test_read_tensor_fuzz_gives_tensor_or_mbt_error(blob):
    try:
        t = read_tensor(blob)
    except MbtError:
        return
    assert isinstance(t, Tensor) and t.array.dtype == np.float32


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(st.binary(max_size=64), _valid_pgm(), _damaged(_valid_pgm())))
@example(blob=b"P5 " + b"9" * 5000 + b" 1 255\n\x00")
@example(blob=b"P5 \xd9\xa3 1 255\n\x00")
def test_read_mask_pgm_fuzz_gives_mask_or_pgm_error(blob):
    try:
        m = read_mask_pgm(blob)
    except PgmError:
        return
    assert isinstance(m, BinaryMask) and set(np.unique(m.bits)) <= {0, 1}


# --------------------------------------------------------------- bilinear


def test_bilinear_known_row():
    t = Tensor(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=np.float32))
    out = bilinear_resize(t, 2, 4)
    np.testing.assert_allclose(out.array[0], [0.0, 0.25, 0.75, 1.0], atol=1e-7)
    np.testing.assert_allclose(out.array[1], [0.0, 0.25, 0.75, 1.0], atol=1e-7)


def test_bilinear_identity():
    rng = np.random.default_rng(3)
    t = Tensor(rng.random((5, 7)).astype(np.float32))
    out = bilinear_resize(t, 5, 7)
    np.testing.assert_allclose(out.array, t.array, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    oh=st.integers(1, 9),
    ow=st.integers(1, 9),
    value=st.floats(-10, 10, allow_nan=False, width=32),
)
def test_bilinear_constant_preserved(h, w, oh, ow, value):
    t = Tensor(np.full((h, w), value, dtype=np.float32))
    out = bilinear_resize(t, oh, ow)
    assert out.shape == (oh, ow)
    np.testing.assert_allclose(out.array, value, atol=1e-5)


def test_bilinear_output_within_input_range():
    rng = np.random.default_rng(11)
    t = Tensor(rng.random((4, 4)).astype(np.float32))
    out = bilinear_resize(t, 13, 3)
    assert out.array.min() >= t.array.min() - 1e-6
    assert out.array.max() <= t.array.max() + 1e-6


# -------------------------------------------------------------------- rng


def test_splitmix64_reference_vector():
    # first outputs for seed 0, cross-checked against the published sequence
    r = Rng(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_rng_determinism():
    a = Rng(99)
    b = Rng(99)
    for _ in range(100):
        assert a.next_u64() == b.next_u64()


def test_rng_float_range():
    r = Rng(5)
    vals = [r.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # crude uniformity sanity
    assert 0.4 < float(np.mean(vals)) < 0.6


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), lo=st.floats(-5, 0), hi=st.floats(1, 5))
def test_rng_uniform_bounds(seed, lo, hi):
    r = Rng(seed)
    vals = r.uniform(64, lo, hi)
    assert vals.shape == (64,)
    assert np.all(vals >= lo)
    assert np.all(vals < hi)


def _scalar_uniform(r, n, lo, hi):
    return np.array([lo + r.next_float() * (hi - lo) for _ in range(n)], dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1])
def test_rng_uniform_matches_scalar_stream(seed):
    # the vectorised draw is the scalar stream, byte for byte, and leaves the
    # state where n next_u64 calls would; interleaved calls check continuity
    vec, ref = Rng(seed), Rng(seed)
    for n, lo, hi in [(0, 0.0, 1.0), (1, -1.0, 1.0), (17, np.log(1e-3), np.log(1e-1)),
                      (4096, -0.25, 0.5)]:
        assert vec.uniform(n, lo, hi).tobytes() == _scalar_uniform(ref, n, lo, hi).tobytes()
        assert vec.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n, lo, hi", [(-1, 0.0, 1.0), (4, 1.0, 1.0), (4, 2.0, 1.0)])
def test_rng_uniform_rejects_bad_arguments(n, lo, hi):
    with pytest.raises(ValueError):
        Rng(0).uniform(n, lo, hi)
