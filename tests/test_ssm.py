"""State-space kernel tests.

`_reference_selective` below is a deliberately naive per-step loop written
straight from the recurrence definition (math.expm1, python floats, no
shared code with the module). It is the oracle for the selective scan and,
through the constant-parameter special case, for the LTI paths as well.
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
    SelectiveInputs,
    SsmDiscrete,
    SsmParams,
    _carry_scan,
    build_conv_kernel,
    discretize,
    gradcheck,
    random_selective_inputs,
    scan_convolutional,
    scan_parallel,
    scan_recurrent,
    selective_scan,
    selective_scan_backward,
    ssm_bank_scan,
    zoh,
)
from ssmad.tensor import Rng


def _reference_selective(x, delta, b, c, a):
    """Per-step hand loop: h_t = exp(d a) h + zoh(d, a) b x, y_t = <c, h>."""
    length = len(x)
    n = len(a)
    h = [0.0] * n
    ys = []
    for t in range(length):
        d = float(delta[t])
        for i in range(n):
            z = d * float(a[i])
            abar = math.exp(z)
            if a[i] == 0.0:
                bbar = d * float(b[t][i])
            else:
                bbar = math.expm1(z) / float(a[i]) * float(b[t][i])
            h[i] = abar * h[i] + bbar * float(x[t])
        ys.append(sum(float(c[t][i]) * h[i] for i in range(n)))
    return np.array(ys)


def _out(t):
    """Unwrap a kernel's Tensor return into its flat float array."""
    return t.data


def _rel(err_got, err_want):
    denom = max(float(np.max(np.abs(err_want))), 1e-30)
    return float(np.max(np.abs(np.asarray(err_got) - np.asarray(err_want)))) / denom


# ------------------------------------------------------------- discretize


def test_discretize_zero_rate_limit():
    d = discretize(SsmParams(a=np.array([0.0]), b=np.array([1.0]), c=np.array([1.0]), delta=1.0))
    np.testing.assert_allclose(d.a_bar, [1.0])
    np.testing.assert_allclose(d.b_bar, [1.0])


def test_discretize_half_life():
    d = discretize(
        SsmParams(a=np.array([-math.log(2)]), b=np.array([1.0]), c=np.array([1.0]), delta=1.0)
    )
    np.testing.assert_allclose(d.a_bar, [0.5], rtol=1e-12)
    np.testing.assert_allclose(d.b_bar, [0.5 / math.log(2)], rtol=1e-12)


def test_discretize_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        SsmParams(a=np.array([-1.0]), b=np.array([1.0]), c=np.array([1.0]), delta=0.0)


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


# ------------------------------------------------ recurrent / conv kernels


def test_recurrent_cumsum():
    d = SsmDiscrete(a_bar=np.array([1.0]), b_bar=np.array([1.0]), c=np.array([1.0]))
    y = _out(scan_recurrent(d, [1.0, 2.0, 3.0]))
    np.testing.assert_allclose(y, [1.0, 3.0, 6.0])


def test_recurrent_decay():
    d = SsmDiscrete(a_bar=np.array([0.5]), b_bar=np.array([1.0]), c=np.array([1.0]))
    y = _out(scan_recurrent(d, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(y, [1.0, 0.5, 0.25])


def test_recurrent_zero_input():
    d = SsmDiscrete(a_bar=np.array([0.9, 0.5]), b_bar=np.array([1.0, 2.0]), c=np.array([1.0, 1.0]))
    y = _out(scan_recurrent(d, np.zeros(5)))
    np.testing.assert_array_equal(y, np.zeros(5))


def test_conv_kernel_single_mode():
    d = SsmDiscrete(a_bar=np.array([0.5]), b_bar=np.array([1.0]), c=np.array([1.0]))
    np.testing.assert_allclose(_out(build_conv_kernel(d, 3)), [1.0, 0.5, 0.25])


def test_conv_kernel_zero_readout():
    d = SsmDiscrete(a_bar=np.array([0.5]), b_bar=np.array([1.0]), c=np.array([0.0]))
    assert not _out(build_conv_kernel(d, 4)).any()


def test_conv_kernel_matches_per_mode_sum():
    rng = np.random.default_rng(7)
    a_bar = rng.uniform(0, 1, 4)
    b_bar = rng.standard_normal(4)
    c = rng.standard_normal(4)
    d = SsmDiscrete(a_bar=a_bar, b_bar=b_bar, c=c)
    k = _out(build_conv_kernel(d, 6))
    want = [sum(c[i] * a_bar[i] ** t * b_bar[i] for i in range(4)) for t in range(6)]
    np.testing.assert_allclose(k, want, rtol=1e-6)


def test_convolutional_hand_example():
    y = _out(scan_convolutional([1.0, 0.5, 0.25], [1.0, 1.0, 1.0]))
    np.testing.assert_allclose(y, [1.0, 1.5, 1.75])


def test_convolutional_identity_kernel():
    x = np.array([3.0, -1.0, 2.0, 0.5])
    y = _out(scan_convolutional([1.0, 0.0, 0.0, 0.0], x))
    np.testing.assert_allclose(y, x)


def test_convolutional_impulse_response():
    k = np.array([0.3, -0.2, 0.9])
    y = _out(scan_convolutional(k, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(y, k)


def test_convolutional_length_mismatch():
    with pytest.raises(ValueError):
        scan_convolutional([1.0, 2.0], [1.0])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    length=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_lti_recurrent_equals_convolutional(n, length, seed):
    rng = np.random.default_rng(seed)
    p = SsmParams(
        a=-rng.uniform(0.01, 2.0, n),
        b=rng.uniform(-1, 1, n),
        c=rng.uniform(-1, 1, n),
        delta=float(rng.uniform(0.1, 1.0)),
    )
    d = discretize(p)
    x = rng.uniform(-1, 1, length)
    y_rec = _out(scan_recurrent(d, x))
    y_conv = _out(scan_convolutional(build_conv_kernel(d, length), x))
    assert _rel(y_conv, y_rec) <= 1e-5


# ----------------------------------------------------------- parallel scan


@pytest.mark.parametrize("edges", [False, True], ids=["open", "zero-and-one"])
@pytest.mark.parametrize("length", [1, 2, 3, 5, 15, 16, 17, 33, 100, 1023, 4096])
def test_parallel_matches_recurrent(length, edges):
    # lengths 15, 16, 17 and 33 sit at SCAN_CHUNK = 16 boundaries; with
    # edges, one state forgets at once (a_bar = 0, where 0**0 must be 1)
    # and one never decays (a_bar = 1)
    rng = np.random.default_rng(length)
    a_bar = rng.uniform(0, 1, 6)
    if edges:
        a_bar[:2] = (0.0, 1.0)
    d = SsmDiscrete(
        a_bar=a_bar,
        b_bar=rng.standard_normal(6),
        c=rng.standard_normal(6),
    )
    x = rng.standard_normal(length)
    y_seq = _out(scan_recurrent(d, x))
    y_par = _out(scan_parallel(d, x))
    assert _rel(y_par, y_seq) <= 1e-6


def test_parallel_cumsum_case():
    d = SsmDiscrete(a_bar=np.array([1.0]), b_bar=np.array([1.0]), c=np.array([1.0]))
    x = np.ones(1024)
    y = _out(scan_parallel(d, x))
    np.testing.assert_allclose(y, np.arange(1, 1025), rtol=1e-12)


def test_parallel_single_step_exact():
    d = SsmDiscrete(a_bar=np.array([0.3]), b_bar=np.array([2.0]), c=np.array([0.5]))
    y_par = _out(scan_parallel(d, [1.5]))
    y_seq = _out(scan_recurrent(d, [1.5]))
    assert y_par[0] == y_seq[0]


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 300), seed=st.integers(0, 2**31))
@example(length=1, seed=5902243)  # the mixed signal nearly cancels
def test_scan_linearity(length, seed):
    rng = np.random.default_rng(seed)
    d = SsmDiscrete(
        a_bar=rng.uniform(0, 1, 3),
        b_bar=rng.standard_normal(3),
        c=rng.standard_normal(3),
    )
    x1 = rng.standard_normal(length)
    x2 = rng.standard_normal(length)
    alpha, beta = 0.7, -1.3
    y1 = _out(scan_recurrent(d, x1))
    y2 = _out(scan_recurrent(d, x2))
    lhs = _out(scan_recurrent(d, alpha * x1 + beta * x2))
    rhs = alpha * y1 + beta * y2
    # each float32 output carries rounding relative to its own magnitude, so
    # the bound scales with the terms of the combination, not with rhs,
    # which can nearly cancel
    scale = abs(alpha) * np.max(np.abs(y1)) + abs(beta) * np.max(np.abs(y2))
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(float(scale), 1e-30)


def test_output_bound_for_stable_modes():
    rng = np.random.default_rng(9)
    n, length = 4, 200
    p = SsmParams(
        a=-rng.uniform(0.01, 2, n),
        b=rng.uniform(-1, 1, n),
        c=rng.uniform(-1, 1, n),
        delta=0.5,
    )
    d = discretize(p)
    x = rng.uniform(-1, 1, length)
    y = _out(scan_recurrent(d, x))
    bound = np.linalg.norm(d.c, 1) * np.linalg.norm(d.b_bar, np.inf) * np.max(np.abs(x)) * length
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


@pytest.mark.parametrize("length", [1, 15, 16, 17, 53, 1024])
def test_parallel_bytes_match_two_matmul_form(length):
    rng = np.random.default_rng(length)
    d = SsmDiscrete(a_bar=rng.uniform(0, 1, 4), b_bar=rng.standard_normal(4), c=rng.standard_normal(4))
    x = rng.standard_normal(length)
    powers = d.a_bar[None, None, :] ** np.arange(SCAN_CHUNK + 1.0)[None, :, None]
    want = _two_matmul_chunked_scan(powers, d.b_bar[None], d.c[None], x[None])[0]
    assert _out(scan_parallel(d, x)).tobytes() == want.astype(np.float32).tobytes()


# --------------------------------------------------------- selective scan


def test_selective_hand_unroll():
    s = SelectiveInputs(
        x=np.array([1.0, 1.0]),
        delta=np.array([1.0, 1.0]),
        b=np.array([[1.0], [2.0]]),
        c=np.array([[1.0], [1.0]]),
        a=np.array([0.0]),
    )
    y = _out(selective_scan(s))
    np.testing.assert_allclose(y, [1.0, 3.0])


def test_selective_zero_input():
    s = random_selective_inputs(6, 3, Rng(4))
    zeroed = SelectiveInputs(
        x=np.zeros_like(s.x), delta=s.delta, b=s.b, c=s.c, a=s.a
    )
    assert not _out(selective_scan(zeroed)).any()


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 48), n=st.integers(1, 6), seed=st.integers(0, 2**31))
def test_selective_constant_inputs_reduce_to_lti(length, n, seed):
    rng = np.random.default_rng(seed)
    a = -rng.uniform(0.01, 2, n)
    b_row = rng.uniform(-1, 1, n)
    c_row = rng.uniform(-1, 1, n)
    delta = float(rng.uniform(0.1, 1))
    x = rng.uniform(-1, 1, length)
    s = SelectiveInputs(
        x=x,
        delta=np.full(length, delta),
        b=np.tile(b_row, (length, 1)),
        c=np.tile(c_row, (length, 1)),
        a=a,
    )
    d = discretize(SsmParams(a=a, b=b_row, c=c_row, delta=delta))
    assert _rel(_out(selective_scan(s)), _out(scan_recurrent(d, x))) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 24), n=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_selective_matches_reference_loop(length, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, length)
    delta = rng.uniform(0.1, 1, length)
    b = rng.uniform(-1, 1, (length, n))
    c = rng.uniform(-1, 1, (length, n))
    a = -rng.uniform(0.01, 2, n)
    s = SelectiveInputs(x=x, delta=delta, b=b, c=c, a=a)
    want = _reference_selective(x, delta, b, c, a)
    # outputs are float32 carriers, so the bar is single-precision
    assert _rel(_out(selective_scan(s)), want) <= 1e-6


# ---------------------------------------------------------------- backward


def test_backward_zero_cotangent():
    s = random_selective_inputs(8, 3, Rng(11))
    g = selective_scan_backward(s, np.zeros(8))
    for field in (g.d_x, g.d_delta, g.d_b, g.d_c, g.d_a):
        assert not np.asarray(field).any()


def test_backward_cumsum_configuration():
    # with a=0, delta=1, b=c=1 the output is the running sum, so the
    # gradient of y_L w.r.t. every x_t is 1
    length = 6
    s = SelectiveInputs(
        x=np.arange(1.0, length + 1),
        delta=np.ones(length),
        b=np.ones((length, 1)),
        c=np.ones((length, 1)),
        a=np.array([0.0]),
    )
    dy = np.zeros(length)
    dy[-1] = 1.0
    g = selective_scan_backward(s, dy)
    np.testing.assert_allclose(g.d_x, np.ones(length), rtol=1e-12)


def _central_difference_dx(s, dy, step=1e-6):
    grads = np.zeros_like(s.x)
    for t in range(len(s.x)):
        for sign in (+1.0, -1.0):
            xs = s.x.copy()
            xs[t] += sign * step
            bumped = SelectiveInputs(x=xs, delta=s.delta, b=s.b, c=s.c, a=s.a)
            grads[t] += sign * float(np.dot(dy, _reference_selective(
                bumped.x, bumped.delta, bumped.b, bumped.c, bumped.a)))
    return grads / (2 * step)


def test_backward_dx_against_reference_fd():
    # finite differences against the in-file reference loop, fully
    # independent of the module's own gradcheck plumbing
    rng = np.random.default_rng(21)
    length, n = 7, 2
    s = SelectiveInputs(
        x=rng.uniform(-1, 1, length),
        delta=rng.uniform(0.1, 1, length),
        b=rng.uniform(-1, 1, (length, n)),
        c=rng.uniform(-1, 1, (length, n)),
        a=-rng.uniform(0.1, 2, n),
    )
    dy = rng.uniform(-1, 1, length)
    g = selective_scan_backward(s, dy)
    fd = _central_difference_dx(s, dy)
    np.testing.assert_allclose(g.d_x, fd, rtol=1e-5, atol=1e-8)


def test_gradcheck_small_instance():
    report = gradcheck(8, 2, seed=1)
    assert report["max_rel_error"] <= 1e-4


def test_gradcheck_scalar_case():
    report = gradcheck(1, 1, seed=0)
    assert report["max_rel_error"] <= 1e-6


def test_gradcheck_deterministic():
    assert gradcheck(6, 3, seed=42) == gradcheck(6, 3, seed=42)


@pytest.mark.parametrize("seed", range(8))
def test_gradcheck_random_instances(seed):
    rng = Rng(seed * 7919 + 13)
    length = 1 + rng.next_u64() % 16
    n = 1 + rng.next_u64() % 4
    report = gradcheck(int(length), int(n), seed=seed)
    assert report["max_rel_error"] <= 1e-4, report
