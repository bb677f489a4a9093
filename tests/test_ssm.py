"""State-space kernel tests.

`_convolution` below is the recurrence unrolled into a causal convolution
with kernel K[k] = <c, a_bar^k b_bar>, written with numpy alone and sharing
no code with the module. It is the oracle for the sequential scan, which
in turn is the oracle for the chunked bank scan.  The bank scan is also
held to closed forms of its own: the impulse response is the kernel K and
the step response a geometric sum; it is causal, linear and row by row
independent.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ssmad.ssm import (
    SCAN_CHUNK,
    SERIES_THRESHOLD,
    _carry_scan,
    scan_recurrent,
    ssm_bank_scan,
    zoh,
)


def _convolution(a_bar, b_bar, c, x):
    """y_t = sum_{j<=t} K[j] x_{t-j}, K[k] = <c, a_bar^k b_bar>, in float64."""
    k = np.arange(len(x))[:, None]
    kernel = (c * b_bar * a_bar ** k).sum(axis=1)
    return np.convolve(x, kernel)[: len(x)]


def _rel(err_got, err_want):
    denom = max(float(np.max(np.abs(err_want))), 1e-30)
    return float(np.max(np.abs(np.asarray(err_got) - np.asarray(err_want)))) / denom


# -------------------------------------------------------- zero-order hold


def test_discretize_zero_rate_limit():
    a_bar, b_bar = zoh(np.array([0.0]), 1.0, np.array([1.0]))
    np.testing.assert_allclose(a_bar, [1.0])
    np.testing.assert_allclose(b_bar, [1.0])


def test_discretize_half_life():
    a_bar, b_bar = zoh(np.array([-math.log(2)]), 1.0, np.array([1.0]))
    np.testing.assert_allclose(a_bar, [0.5], rtol=1e-12)
    np.testing.assert_allclose(b_bar, [0.5 / math.log(2)], rtol=1e-12)


def test_zoh_series_branch_is_continuous():
    # values straddling the series threshold must agree to near machine eps
    b = np.array([1.0])
    for eps in (SERIES_THRESHOLD * 0.5, SERIES_THRESHOLD * 2):
        a = np.array([-eps])
        _, bb_small = zoh(a, 1.0, b)
        exact = math.expm1(-eps) / -eps
        np.testing.assert_allclose(bb_small, [exact], rtol=1e-10)


def test_zoh_stability_bound():
    rng = np.random.default_rng(0)
    a = -rng.uniform(0.01, 5.0, 16)
    a_bar, _ = zoh(a, 0.7, np.ones(16))
    assert np.all(np.abs(a_bar) <= 1.0)


# ------------------------------------------------------- recurrent kernel


def test_recurrent_cumsum():
    y = scan_recurrent([[1.0]], [[1.0]], [[1.0]], [[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(y, [[1.0, 3.0, 6.0]])


def test_recurrent_decay():
    y = scan_recurrent([[0.5]], [[1.0]], [[1.0]], [[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(y, [[1.0, 0.5, 0.25]])


def test_recurrent_zero_input():
    y = scan_recurrent([[0.9, 0.5]], [[1.0, 2.0]], [[1.0, 1.0]], np.zeros((1, 5)))
    np.testing.assert_array_equal(y, np.zeros((1, 5)))


def _recurrence_per_row(a_bar, b_bar, c, x):
    """One row's recurrence, step by step, with the vector ``c @ h`` readout:
    the oracle's own oracle."""
    h, y = np.zeros(a_bar.size), np.empty(x.size)
    for t in range(x.size):
        h = a_bar * h + b_bar * x[t]
        y[t] = c @ h
    return y


@pytest.mark.parametrize("length", [1, 17, 300])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_recurrent_bank_rows_match_single_rows(rows, length):
    # a broadcasting slip (x[:, t] without None, c @ h over the bank) or a
    # reduction whose summation order differs shows up as a changed byte
    rng = np.random.default_rng(rows * 1000 + length)
    n = 1 + rows % 5
    a_bar, _ = zoh(-rng.uniform(0.01, 2.0, (rows, n)), rng.uniform(0.1, 1.0, (rows, 1)), 1.0)
    b_bar = rng.uniform(-1, 1, (rows, n))
    c = rng.uniform(-1, 1, (rows, n))
    x = rng.uniform(-1, 1, (rows, length))
    got = scan_recurrent(a_bar, b_bar, c, x)
    assert got.shape == (rows, length) and got.dtype == np.float64
    for r in range(rows):
        want = _recurrence_per_row(a_bar[r], b_bar[r], c[r], x[r])
        assert got[r].tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    length=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_lti_recurrent_equals_convolutional(n, length, seed):
    rng = np.random.default_rng(seed)
    a = -rng.uniform(0.01, 2.0, n)
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a_bar, b_bar = zoh(a, float(rng.uniform(0.1, 1.0)), b)
    x = rng.uniform(-1, 1, length)
    y_rec = scan_recurrent(a_bar[None], b_bar[None], c[None], x[None])[0]
    assert _rel(_convolution(a_bar, b_bar, c, x), y_rec) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**31))
@example(length=1, seed=5902243)  # the mixed signal nearly cancels
def test_scan_linearity(length, seed):
    rng = np.random.default_rng(seed)
    bank = (rng.uniform(0, 1, (1, 3)), rng.standard_normal((1, 3)), rng.standard_normal((1, 3)))
    x1 = rng.standard_normal((1, length))
    x2 = rng.standard_normal((1, length))
    alpha, beta = 0.7, -1.3
    y1 = scan_recurrent(*bank, x1)
    y2 = scan_recurrent(*bank, x2)
    lhs = scan_recurrent(*bank, alpha * x1 + beta * x2)
    rhs = alpha * y1 + beta * y2
    # each output carries rounding relative to its own magnitude, so the
    # bound scales with the terms of the combination, not with rhs, which
    # can nearly cancel
    scale = abs(alpha) * np.max(np.abs(y1)) + abs(beta) * np.max(np.abs(y2))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(float(scale), 1e-30)


def test_output_bound_for_stable_modes():
    rng = np.random.default_rng(9)
    n, length = 4, 200
    a = -rng.uniform(0.01, 2, n)
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a_bar, b_bar = zoh(a, 0.5, b)
    x = rng.uniform(-1, 1, length)
    y = scan_recurrent(a_bar[None], b_bar[None], c[None], x[None])
    bound = np.linalg.norm(c, 1) * np.linalg.norm(b_bar, np.inf) * np.max(np.abs(x)) * length
    assert np.all(np.abs(y) <= bound + 1e-9)


# ------------------------------------------- bank scan byte-identity oracle


def _affine_scan(a, b):
    """Inclusive prefix of h -> a*h + b along axis 0, h before step 0 is 0.

    Blelloch up/down sweep on a balanced binary tree padded to a power of
    two with identity elements (a=1, b=0); the tree shape depends only on
    the sequence length.  The carry the chunked core ran before
    ``_carry_scan``, kept as its oracle.
    """
    length = a.shape[0]
    n = 1 << max(length - 1, 0).bit_length() if length > 1 else 1
    acc_a = np.ones((n,) + a.shape[1:], dtype=np.float64)
    acc_b = np.zeros((n,) + b.shape[1:], dtype=np.float64)
    acc_a[:length] = a
    acc_b[:length] = b

    # hi and lo are disjoint strided views, so the in-place updates are safe
    step = 1
    while step < n:
        hi = slice(2 * step - 1, n, 2 * step)
        lo = slice(step - 1, n, 2 * step)
        acc_b[hi] += acc_a[hi] * acc_b[lo]
        acc_a[hi] *= acc_a[lo]
        step *= 2

    step = n
    while step >= 2:
        half = step // 2
        hi = slice(step + half - 1, n, step)
        lo = slice(step - 1, n - half, step)
        acc_b[hi] += acc_a[hi] * acc_b[lo]
        acc_a[hi] *= acc_a[lo]
        step = half

    return acc_b[:length]


@pytest.mark.parametrize("channels, n", [(3, 4), (17, 1)])
@pytest.mark.parametrize("chunks", list(range(1, 71)) + [127, 128, 129, 1024])
def test_carry_bytes_match_padded_tree(chunks, channels, n):
    # channel 0 never decays (a_bar^T = 1 exactly, so every power is 1),
    # channel 1 forgets at once (a_bar^T = exp(T delta a) underflows to 0)
    # and channel 2's powers underflow to 0 from the first squaring
    rng = np.random.default_rng(chunks * 31 + channels)
    step = rng.uniform(0.0, 1.0, (channels, n))
    step[0] = 1.0
    step[1] = np.exp(SCAN_CHUNK * -50.0)
    step[2] = 1e-200
    assert step[1, 0] == 0.0 and step[2, 0] ** 2 == 0.0
    states = rng.standard_normal((chunks, channels, n))
    want = _affine_scan(np.broadcast_to(step, states.shape), states)
    got = states.copy()
    _carry_scan(step, got)
    assert got.tobytes() == want.tobytes()


def _two_matmul_chunked_scan(powers, b_bar, c, seq):
    """The chunked core as it was before the [M^T | W] fusion: powers laid
    out (C, T+1, N), a zero-padded copy of every sequence, and separate
    matmuls for the in-chunk outputs and the chunk-end states."""
    chunk = SCAN_CHUNK
    channels, length = seq.shape
    n_chunks = -(-length // chunk)
    x = np.zeros((channels, n_chunks * chunk), dtype=np.float64)
    x[:, :length] = seq
    x = x.reshape(channels, n_chunks, chunk)
    kernel = np.einsum("cn,ckn->ck", c * b_bar, powers[:, :chunk])
    padded = np.concatenate([np.zeros((channels, chunk - 1)), kernel], axis=1)
    toeplitz = sliding_window_view(padded, chunk, axis=1)[:, :, ::-1]
    y = x @ toeplitz.transpose(0, 2, 1)
    ends = x @ (b_bar[:, None, :] * powers[:, chunk - 1::-1])
    step = np.broadcast_to(powers[:, chunk], (n_chunks,) + b_bar.shape)
    states = _affine_scan(step, np.moveaxis(ends, 1, 0))
    carried = np.zeros_like(ends)
    carried[:, 1:] = np.moveaxis(states[:-1], 0, 1)
    y += carried @ (c[:, :, None] * powers[:, 1:].transpose(0, 2, 1))
    return y.reshape(channels, n_chunks * chunk)[:, :length]


def _two_matmul_bank_scan(a, b, c, delta, seq):
    a64 = np.asarray(a, dtype=np.float64)
    d64 = np.asarray(delta, dtype=np.float64)
    _, b_bar = zoh(a64, d64[:, None], b)
    z = d64[:, None] * a64
    powers = np.exp(np.arange(SCAN_CHUNK + 1.0)[None, :, None] * z[:, None, :])
    return _two_matmul_chunked_scan(powers, b_bar, np.asarray(c, dtype=np.float64), seq)


def _decoder_bank(rng, rows, n=4):
    """A bank drawn the way the decoder initialises one, in float32."""
    a = -np.broadcast_to(np.arange(1.0, n + 1.0), (rows, n)).astype(np.float32)
    s = 1.0 / np.sqrt(n)
    b = rng.uniform(-s, s, (rows, n)).astype(np.float32)
    c = rng.uniform(-s, s, (rows, n)).astype(np.float32)
    delta = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), rows)).astype(np.float32)
    return a, b, c, delta


# the decode workload's bank shapes (K*E*C rows, L = H*W steps), then ragged
# lengths: one chunk (1, 15), one step past a chunk (17) and a long tail (53);
# a float64 bank with full-precision b, c and delta as well as the decoder's
# float32 one
@pytest.mark.parametrize("bank", ["decoder", "float64"])
@pytest.mark.parametrize("layout", ["float32", "float64", "float64-strided"])
@pytest.mark.parametrize(
    "rows, length", [(512, 64), (256, 256), (128, 1024), (8, 1), (8, 15), (8, 17), (8, 53)]
)
def test_bank_scan_bytes_match_two_matmul_form(rows, length, layout, bank):
    rng = np.random.default_rng(rows * 7919 + length)
    a, b, c, delta = _decoder_bank(rng, rows)
    if bank == "float64":
        a = -rng.uniform(0.01, 4.0, a.shape)
        b, c = rng.uniform(-0.5, 0.5, (2,) + a.shape)
        delta = rng.uniform(1e-3, 0.5, rows)
    seq = rng.standard_normal((rows, 2 * length))
    seq = seq[:, ::2] if layout == "float64-strided" else seq[:, :length].copy()
    if layout == "float32":
        seq = seq.astype(np.float32)
    before = seq.tobytes()
    got = ssm_bank_scan(a, b, c, delta, seq)
    want = _two_matmul_bank_scan(a, b, c, delta, seq)
    assert got.shape == want.shape == (rows, length) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert seq.tobytes() == before  # the unpadded path only reads its input


# ------------------------------------------------ bank scan closed forms


def _bank(rng, rows, n=4):
    """A stable float64 bank: a (C, N) < 0, b and c (C, N), delta (C,)."""
    a = -rng.uniform(0.01, 2.0, (rows, n))
    b = rng.uniform(-1, 1, (rows, n))
    c = rng.uniform(-1, 1, (rows, n))
    delta = rng.uniform(0.05, 1.0, rows)
    return a, b, c, delta


def _bank_kernel(a, b, c, delta, length):
    """K[c, k] = <c, b_bar a_bar^k>, k < length, in float64."""
    a_bar, b_bar = zoh(a, delta[:, None], b)
    k = np.arange(length)[:, None, None]
    return np.einsum("cn,kcn->ck", c * b_bar, a_bar[None] ** k)


@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 32, 33, 100, 1024])
def test_bank_scan_impulse_response_is_the_kernel(length):
    # a unit impulse at step 0 reads the kernel out, across chunk ends
    rng = np.random.default_rng(400 + length)
    a, b, c, delta = _bank(rng, 3)
    x = np.zeros((3, length))
    x[:, 0] = 1.0
    want = _bank_kernel(a, b, c, delta, length)
    assert _rel(ssm_bank_scan(a, b, c, delta, x), want) <= 1e-12


@pytest.mark.parametrize("start", [0, 1, 15, 16, 17, 40])
def test_bank_scan_delayed_impulse(start):
    # an impulse at step s leaves every earlier output exactly 0 and shifts
    # the kernel by s, whether or not s starts a chunk
    length = 64
    rng = np.random.default_rng(17)
    a, b, c, delta = _bank(rng, 3)
    x = np.zeros((3, length))
    x[:, start] = 1.0
    y = ssm_bank_scan(a, b, c, delta, x)
    want = _bank_kernel(a, b, c, delta, length)
    assert not y[:, :start].any()
    assert _rel(y[:, start:], want[:, : length - start]) <= 1e-12


@pytest.mark.parametrize("length", [1, 16, 17, 100, 1024, 4096])
def test_bank_scan_step_response_is_geometric(length):
    # x = 1 everywhere: y_t = sum_n c b_bar (1 - a_bar^(t+1)) / (1 - a_bar)
    rng = np.random.default_rng(500 + length)
    a, b, c, delta = _bank(rng, 3)
    y = ssm_bank_scan(a, b, c, delta, np.ones((3, length)))
    _, b_bar = zoh(a, delta[:, None], b)
    z = (delta[:, None] * a)[:, None, :]
    t = np.arange(1.0, length + 1)[None, :, None]
    want = ((c * b_bar)[:, None, :] * np.expm1(t * z) / np.expm1(z)).sum(axis=2)
    assert _rel(y, want) <= 1e-12


@pytest.mark.parametrize("last", [0, 14, 15, 16, 31, 47])
def test_bank_scan_is_causal(last):
    # redrawing the input after step `last` leaves every output up to it
    # byte for byte unchanged
    length = 64
    rng = np.random.default_rng(31)
    a, b, c, delta = _bank(rng, 3)
    x = rng.standard_normal((3, length))
    y = ssm_bank_scan(a, b, c, delta, x)
    x[:, last + 1:] = rng.standard_normal((3, length - last - 1))
    y2 = ssm_bank_scan(a, b, c, delta, x)
    assert y2[:, : last + 1].tobytes() == y[:, : last + 1].tobytes()


@pytest.mark.parametrize("rows, length", [(2, 16), (3, 17), (5, 64), (8, 100)])
def test_bank_scan_rows_are_independent(rows, length):
    # every row's bytes depend only on that row's parameters and sequence
    rng = np.random.default_rng(rows * 101 + length)
    a, b, c, delta = _bank(rng, rows)
    x = rng.standard_normal((rows, length))
    y = ssm_bank_scan(a, b, c, delta, x)
    for r in range(rows):
        one = ssm_bank_scan(a[r:r + 1], b[r:r + 1], c[r:r + 1], delta[r:r + 1], x[r:r + 1])
        assert one.tobytes() == y[r:r + 1].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bank_scan_single_step(dtype):
    # one step carries no state: y_0 = <c, b_bar> x_0
    rng = np.random.default_rng(8)
    a, b, c, delta = _bank(rng, 3)
    x = rng.standard_normal((3, 1)).astype(dtype)
    y = ssm_bank_scan(a, b, c, delta, x)
    _, b_bar = zoh(a, delta[:, None], b)
    assert y.shape == (3, 1) and y.dtype == np.float64
    np.testing.assert_allclose(y[:, 0], (c * b_bar).sum(axis=1) * x[:, 0], rtol=1e-14)


@pytest.mark.parametrize("length", [1, 17, 64])
@pytest.mark.parametrize("zeroed", ["input", "b", "c"])
def test_bank_scan_zero_input_or_weights_give_zero(zeroed, length):
    rng = np.random.default_rng(length)
    a, b, c, delta = _bank(rng, 3)
    x = rng.standard_normal((3, length))
    if zeroed == "input":
        x[:] = 0.0
    elif zeroed == "b":
        b[:] = 0.0
    else:
        c[:] = 0.0
    y = ssm_bank_scan(a, b, c, delta, x)
    assert y.shape == (3, length) and not y.any()


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**31))
def test_bank_scan_linearity(length, seed):
    rng = np.random.default_rng(seed)
    a, b, c, delta = _bank(rng, 3)
    x1 = rng.standard_normal((3, length))
    x2 = rng.standard_normal((3, length))
    alpha, beta = 0.7, -1.3
    y1 = ssm_bank_scan(a, b, c, delta, x1)
    y2 = ssm_bank_scan(a, b, c, delta, x2)
    lhs = ssm_bank_scan(a, b, c, delta, alpha * x1 + beta * x2)
    # bounded by the terms of the combination, as in test_scan_linearity
    scale = abs(alpha) * np.max(np.abs(y1)) + abs(beta) * np.max(np.abs(y2))
    assert np.max(np.abs(lhs - (alpha * y1 + beta * y2))) <= 1e-12 * max(float(scale), 1e-30)


# -------------------------------------------------------- input checks


@pytest.mark.parametrize(
    "a_bar, b_bar, c",
    [
        (np.empty((1, 0)), np.empty((1, 0)), np.empty((1, 0))),
        ([[[0.5]]], [[[1.0]]], [[[1.0]]]),
        ([[0.5, 0.5]], [[1.0]], [[1.0, 1.0]]),
    ],
    ids=["empty", "matrix", "mismatched"],
)
def test_scan_recurrent_rejects_bad_banks(a_bar, b_bar, c):
    # "matrix" is one axis too many for a (C, N) bank
    with pytest.raises(ValueError, match="a_bar, b_bar, c"):
        scan_recurrent(np.array(a_bar), np.array(b_bar), np.array(c), [[1.0]])


@pytest.mark.parametrize(
    "x", [np.empty((1, 0)), [[[1.0, 2.0]]], [[1.0], [2.0]]], ids=["empty", "matrix", "rows"]
)
def test_scan_recurrent_rejects_non_vector_sequence(x):
    # "matrix" has one axis too many; "rows" gives two rows to a one-row bank
    with pytest.raises(ValueError, match=r"\(1, L\) sequence"):
        scan_recurrent([[0.5]], [[1.0]], [[1.0]], np.array(x))
