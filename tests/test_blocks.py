"""Block-level tests: convolution primitives against nested-loop oracles,
residual identities, initialization contracts, and the permutation
consistency of the gather/scan/scatter path."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssmad import blocks
from ssmad.blocks import (
    ALLOWED_DIRECTION_COUNTS,
    ConvBParams,
    HssParams,
    LocalBranchParams,
    SsmBankParams,
    conv_block,
    dwconv2d,
    hss_forward,
    instance_norm,
    layer_norm,
    lss_forward,
    pointwise_conv,
    silu,
)
from ssmad.pipeline import (
    DecoderConfig,
    FeaturePyramid,
    anomaly_map,
    init_block_params,
    init_conv_block,
    init_decoder_params,
    init_hss_params,
    mse_loss,
    pipeline_forward,
)
from ssmad.scans import ScanDirection, ScanMethod, make_schedule
from ssmad.ssm import scan_recurrent, ssm_bank_scan, zoh
from ssmad.tensor import Rng, Tensor


def _naive_conv2d(x, weight, bias):
    """Nested-loop same-padding convolution, the oracle for the 1x1 layers."""
    out_ch, in_ch, k, _ = weight.shape
    _, h, w = x.shape
    pad = k // 2
    out = np.zeros((out_ch, h, w), dtype=np.float64)
    for o in range(out_ch):
        for r in range(h):
            for c in range(w):
                acc = float(bias[o])
                for i in range(in_ch):
                    for dr in range(k):
                        for dc in range(k):
                            rr, cc = r + dr - pad, c + dc - pad
                            if 0 <= rr < h and 0 <= cc < w:
                                acc += float(weight[o, i, dr, dc]) * float(x[i, rr, cc])
                out[o, r, c] = acc
    return out


def _naive_dwconv2d(x, weight, bias):
    ch, k, _ = weight.shape
    _, h, w = x.shape
    pad = k // 2
    out = np.zeros((ch, h, w), dtype=np.float64)
    for c0 in range(ch):
        for r in range(h):
            for c in range(w):
                acc = float(bias[c0])
                for dr in range(k):
                    for dc in range(k):
                        rr, cc = r + dr - pad, c + dc - pad
                        if 0 <= rr < h and 0 <= cc < w:
                            acc += float(weight[c0, dr, dc]) * float(x[c0, rr, cc])
                out[c0, r, c] = acc
    return out


def _einsum_dwconv2d(x, weight, bias):
    """The einsum-over-sliding-windows depthwise convolution that
    ``dwconv2d`` replaced; the decoder's maps were built from it."""
    k = weight.shape[1]
    pad = k // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    out = np.einsum("ckl,chwkl->chw", weight, win, optimize=True)
    return (out + bias[:, None, None]).astype(np.float32)


def _float32_sum_bound(terms, scale):
    """Worst-case error of float32 sums of ``terms`` products plus a bias,
    rounded to float32, in any order: (terms + 2) unit roundoffs times
    the sum of absolute values ``scale``."""
    return (terms + 2) * np.finfo(np.float32).eps / 2 * scale


def _micro_config(**kw):
    defaults = dict(
        state_size=2,
        expansion=2,
        scan_method=ScanMethod.SWEEP,
        directions=(ScanDirection.FORWARD, ScanDirection.REVERSE),
    )
    defaults.update(kw)
    return DecoderConfig(**defaults)


# ------------------------------------------------------------- primitives


def test_silu_known_points():
    np.testing.assert_allclose(silu(np.array([0.0])), [0.0])
    np.testing.assert_allclose(silu(np.array([20.0])), [20.0], rtol=1e-6)
    # x * sigmoid(x) at 1
    np.testing.assert_allclose(silu(np.array([1.0])), [1.0 / (1 + np.exp(-1))], rtol=1e-6)


def test_silu_handles_extreme_inputs():
    # below about -108.7, x * sigmoid(x) rounds to float32 -0.0; above
    # about 17, exp(-x) is below half a float32 step of 1, so silu(x) = x
    x = np.array([-3.4e38, -1e30, -1e4, -200.0, 20.0, 1e4, 1e30, 3.4e38], np.float32)
    out = silu(x)
    assert out.dtype == np.float32
    assert (out[:4] == 0.0).all() and np.signbit(out[:4]).all()
    assert out[4:].tobytes() == x[4:].tobytes()


def test_layer_norm_normalizes_channel_axis():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3, 3)).astype(np.float32)
    out = layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
    mean = out.astype(np.float64).mean(axis=0)
    var = out.astype(np.float64).var(axis=0)
    np.testing.assert_allclose(mean, 0, atol=1e-5)
    np.testing.assert_allclose(var, 1, atol=1e-3)


def test_instance_norm_constant_channel_is_shift():
    x = np.full((2, 4, 4), 7.0, dtype=np.float32)
    out = instance_norm(x, np.ones(2, np.float32), np.full(2, 0.5, np.float32))
    np.testing.assert_allclose(out, 0.5, atol=1e-6)


def _allocating_silu(x):
    """Oracle: silu in float64, with fresh arrays for the clip, the exp
    and the quotient, returned unrounded."""
    z = x.astype(np.float64)
    return z / (1.0 + np.exp(-np.clip(z, -700.0, 700.0)))


def _mean_var_norm(x, scale, shift, eps, axis):
    """Oracle: layer_norm (axis 0) and instance_norm (axes 1, 2) in
    float64 through np.mean and np.var, returned unrounded."""
    z = x.astype(np.float64)
    mean = z.mean(axis=axis, keepdims=True)
    var = z.var(axis=axis, keepdims=True)
    out = (z - mean) / np.sqrt(var + eps)
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    out = out * scale.astype(np.float64).reshape(per_channel)
    return out + shift.astype(np.float64).reshape(per_channel)


_EPS32 = float(np.finfo(np.float32).eps)


def _np_pad_columns(x, k):
    """The tap columns as they were, from an np.pad copy of the input."""
    c, h, w = x.shape
    pad = k // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c, k * k, h, w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i * k + j] = padded[:, i:i + h, j:j + w]
    return cols.reshape(c, k * k, h * w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6, 7, 5), (3, 1, 1), (1, 4, 9)])
def test_silu_within_bound_of_float64_form(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = (rng.standard_normal(shape) * 30.0).astype(dtype)
    # the old float64 clip edges, float32 exp's overflow edge near -88.7,
    # values whose silu is a float32 subnormal or rounds to -0.0, float32's
    # largest magnitudes, signed zeros and a float64 denormal
    edges = [-3.4e38, -1e30, -1e6, -1e4, -701.0, -700.5, -700.0, -110.0, -100.0,
             -90.0, -88.0, -0.0, 0.0, 1e-310, 88.0, 700.0, 700.5, 701.0, 1e4, 3.4e38]
    x.flat[:len(edges)] = np.array(edges[:x.size], dtype=dtype)
    got = silu(x)
    assert got.dtype == np.float32
    # silu works in float32, so a float64 input is rounded to float32 first
    want = _allocating_silu(x.astype(np.float32))
    assert (np.abs(got - want) <= 4 * _EPS32 * np.abs(want) + 1e-35).all()


def _norm_cases():
    rng = np.random.default_rng(31)
    offset = 1e4 + rng.standard_normal((5, 6, 6))      # mean far from zero
    constant = rng.standard_normal((4, 5, 5))
    constant[1] = 3.25                                  # a zero-variance channel
    # a few float32 steps around 1e4, variance below eps: centring on the
    # float32-rounded mean alone moves the output by up to 0.17 here
    near_constant = 1e4 * (1.0 + 3e-7 * rng.standard_normal((3, 11, 13)))
    # |x - mean| past 1.8e19, whose float32 square would overflow
    huge = 1e30 * rng.standard_normal((4, 5, 6))
    # |x - mean| past float32's range, along the channels and within each
    # channel, from float32 data
    wide = 3e38 * rng.uniform(0.9, 1.0, (4, 5, 6))
    wide[0] *= -1.0
    wide[1:, 0, 0] *= -1.0
    return {
        "random": rng.standard_normal((8, 6, 5)),
        "offset": offset,
        "offset-1e6": 1e6 + rng.standard_normal((6, 7, 5)),
        "near-constant": near_constant,
        "constant-channel": constant,
        "one-channel": rng.standard_normal((1, 4, 4)),
        "one-by-one": rng.standard_normal((6, 1, 1)),
        "all-constant": np.full((3, 4, 4), -2.5),
        "huge": huge,
        "wide": wide,
    }


@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_norms_within_bound_of_mean_var_form(case):
    x = _norm_cases()[case].astype(np.float32)
    c = x.shape[0]
    rng = np.random.default_rng(c)
    scale = rng.uniform(0.5, 2.0, c).astype(np.float32)
    shift = rng.uniform(-1.0, 1.0, c).astype(np.float32)
    flat = x.reshape(c, -1)  # layer_norm over a (C, L) sequence
    for got, want in [
        (layer_norm(x, scale, shift), _mean_var_norm(x, scale, shift, blocks.LN_EPS, 0)),
        (layer_norm(flat, scale, shift), _mean_var_norm(flat, scale, shift, blocks.LN_EPS, 0)),
        (instance_norm(x, scale, shift),
         _mean_var_norm(x, scale, shift, blocks.IN_EPS, (1, 2))),
    ]:
        assert got.dtype == np.float32
        assert (np.abs(got - want) <= 4 * _EPS32 * (np.abs(want) + 1.0)).all()


def test_elementwise_passes_leave_their_input_alone():
    x = np.random.default_rng(5).standard_normal((4, 5, 6)).astype(np.float32)
    before = x.tobytes()
    x.flags.writeable = False  # a write into x raises
    scale, shift = np.full(4, 1.5, np.float32), np.full(4, 0.25, np.float32)
    for out in (silu(x), layer_norm(x, scale, shift), instance_norm(x, scale, shift)):
        assert not np.shares_memory(out, x)
    assert x.tobytes() == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "k, shape", [(1, (3, 4, 5)), (3, (2, 8, 8)), (5, (3, 1, 9)), (7, (2, 3, 12)), (7, (4, 1, 1))]
)
def test_columns_bytes_match_np_pad_form(k, shape, dtype):
    x = np.random.default_rng(k).standard_normal(shape).astype(dtype)
    got = blocks._columns(x, k)
    assert got.dtype == dtype and got.tobytes() == _np_pad_columns(x, k).tobytes()


def test_dwconv2d_matches_naive():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 4, 7)).astype(np.float32)
    w = rng.standard_normal((5, 5, 5)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    got = dwconv2d(x, w, b)
    want = _naive_dwconv2d(x, w, b)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_dwconv2d_delta_kernel_is_identity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5, 5)).astype(np.float32)
    w = np.zeros((3, 3, 3), dtype=np.float32)
    w[:, 1, 1] = 1.0
    out = dwconv2d(x, w, np.zeros(3, np.float32))
    np.testing.assert_allclose(out, x, atol=1e-7)


def test_dwconv2d_box_filter_interior():
    x = np.full((1, 5, 5), 2.0, dtype=np.float32)
    w = np.ones((1, 3, 3), dtype=np.float32)
    out = dwconv2d(x, w, np.zeros(1, np.float32))
    np.testing.assert_allclose(out[0, 1:4, 1:4], 18.0, atol=1e-5)


def test_pointwise_conv_is_matrix_product():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 2)).astype(np.float32)
    w = rng.standard_normal((5, 3)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    got = pointwise_conv(x, w, b)
    want = np.einsum("oi,ihw->ohw", w.astype(np.float64), x.astype(np.float64))
    want += b.astype(np.float64)[:, None, None]
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5, 7]),
    c=st.integers(1, 6),
    out=st.integers(1, 6),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=7, c=2, out=3, h=3, w=12, seed=0)  # kernel taller than the map
@example(k=5, c=3, out=2, h=1, w=9, seed=1)   # 1 x N
@example(k=3, c=4, out=1, h=10, w=1, seed=2)  # N x 1
@example(k=7, c=6, out=6, h=1, w=1, seed=3)   # every tap but the centre padded
def test_convs_match_naive_oracles(k, c, out, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    bias = rng.standard_normal(out).astype(np.float32)
    dw_weight = rng.standard_normal((c, k, k)).astype(np.float32)
    dw_bias = rng.standard_normal(c).astype(np.float32)
    pw_weight = rng.standard_normal((out, c)).astype(np.float32)
    ax = np.abs(x)

    got = dwconv2d(x, dw_weight, dw_bias)
    assert got.dtype == np.float32 and got.shape == (c, h, w)
    bound = _float32_sum_bound(k * k, _naive_dwconv2d(ax, np.abs(dw_weight), np.abs(dw_bias)))
    assert (np.abs(got - _naive_dwconv2d(x, dw_weight, dw_bias)) <= bound).all()

    got = pointwise_conv(x, pw_weight, bias)
    assert got.dtype == np.float32 and got.shape == (out, h, w)
    bound = _float32_sum_bound(c, _naive_conv2d(ax, np.abs(pw_weight)[:, :, None, None], np.abs(bias)))
    assert (np.abs(got - _naive_conv2d(x, pw_weight[:, :, None, None], bias)) <= bound).all()


@pytest.mark.parametrize(
    "conv, x_shape, w_shape",
    [
        (dwconv2d, (3, 5, 5), (3, 2, 2)),
        (dwconv2d, (3, 5, 5), (3, 3, 5)),
        (dwconv2d, (3, 5, 5), (4, 3, 3)),
        (pointwise_conv, (3, 5, 5), (2, 4)),
    ],
    ids=[
        "dwconv2d-even", "dwconv2d-non-square", "dwconv2d-channels",
        "pointwise-channels",
    ],
)
def test_convs_reject_bad_kernels(conv, x_shape, w_shape):
    x = np.zeros(x_shape, np.float32)
    with pytest.raises(ValueError) as info:
        conv(x, np.zeros(w_shape, np.float32), np.zeros(w_shape[0], np.float32))
    msg = str(info.value)
    assert "\n" not in msg and str(x_shape) in msg and str(w_shape) in msg


@pytest.mark.parametrize(
    "c, h, w, k", [(16, 32, 32, 3), (8, 32, 32, 5), (8, 32, 32, 7), (3, 5, 9, 7), (2, 1, 6, 5)]
)
def test_dwconv2d_within_bound_of_einsum_oracle(c, h, w, k):
    rng = np.random.default_rng(c * 1000 + h * 10 + k)
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    weight = rng.uniform(-1 / k, 1 / k, (c, k, k)).astype(np.float32)
    bias = rng.standard_normal(c).astype(np.float32)
    got = dwconv2d(x, weight, bias).astype(np.float64)
    want = _einsum_dwconv2d(x, weight, bias).astype(np.float64)
    scale = _naive_dwconv2d(np.abs(x), np.abs(weight), np.abs(bias))
    assert (np.abs(got - want) <= 1e-6 * scale).all()


def _rect_pyramid(seed, channels, h, w):
    rng = np.random.default_rng(seed)
    return FeaturePyramid(tuple(
        Tensor(rng.uniform(0.2, 1.0, (channels * 2**i, h // 2**i, w // 2**i)).astype(np.float32))
        for i in range(3)
    ))


# two small decoders: Hilbert with all eight directions, and sweep on a
# non-square grid with the four non-rot directions
_REFERENCE_CASES = pytest.mark.parametrize(
    "method, directions, h, w",
    [
        (ScanMethod.HILBERT, tuple(ScanDirection), 16, 16),
        (ScanMethod.SWEEP, (ScanDirection.FORWARD, ScanDirection.REVERSE,
                            ScanDirection.WH_FORWARD, ScanDirection.WH_REVERSE), 8, 16),
    ],
    ids=["hilbert-8dir", "sweep-non-square"],
)


def _reference_config(method, directions):
    return DecoderConfig(stage_depths=(1, 1, 1, 1), hss_per_stage=(1, 1, 1, 1),
                         scan_method=method, directions=directions, state_size=2, seed=5)


@_REFERENCE_CASES
def test_pipeline_within_bound_of_einsum_dwconv(monkeypatch, method, directions, h, w):
    # the decoder's bytes moved only through dwconv2d; running it again on
    # the old depthwise form bounds how far map, loss and image score moved
    cfg = _reference_config(method, directions)
    pyr = _rect_pyramid(6, 2, h, w)
    params = init_decoder_params(cfg, pyr.channels)
    loss, amap = pipeline_forward(pyr, cfg, params)
    monkeypatch.setattr(blocks, "dwconv2d", _einsum_dwconv2d)
    old_loss, old_map = pipeline_forward(pyr, cfg, params)
    tol = 1e-5 * np.abs(old_map.scores).max()
    assert np.abs(amap.scores.astype(np.float64) - old_map.scores).max() <= tol
    assert abs(loss - old_loss) <= 1e-5 * abs(old_loss)
    assert abs(amap.image_score - old_map.image_score) <= 1e-5 * abs(old_map.image_score)


# ------------------------------------------------------- reference decoder
# A straight-line float64 decoder: loop convolutions, the float64 norm and
# silu forms, and one step-by-step scan per direction over its whole bank.
# Nothing is rounded to float32 until the reconstruction is scored.


def _ref_conv_block(x, p):
    conv = _naive_conv2d(x, p.weight, p.bias)
    return _allocating_silu(_mean_var_norm(conv, p.norm_scale, p.norm_shift, blocks.IN_EPS, (1, 2)))


def _ref_pointwise(x, weight, bias):
    return _naive_conv2d(x, weight[:, :, None, None], bias)


def _ref_hss(x, p):
    _, h, w = x.shape
    u = _mean_var_norm(x, p.ln_pre_scale, p.ln_pre_shift, blocks.LN_EPS, 0)
    main = _naive_dwconv2d(_ref_pointwise(u, p.in_weight, p.in_bias), p.dw_weight, p.dw_bias)
    main = _allocating_silu(main).reshape(p.inner_channels, h * w)
    scans = np.zeros_like(main)
    for k, direction in enumerate(p.directions):
        order = make_schedule(p.method, direction, h, w).order
        a_bar, b_bar = zoh(p.bank.a[k], p.bank.delta[k][:, None], p.bank.b[k])
        scans[:, order] += scan_recurrent(a_bar, b_bar, p.bank.c[k], main[:, order])
    scans = scans.reshape(p.inner_channels, h, w)
    normed = _mean_var_norm(scans, p.ln_post_scale, p.ln_post_shift, blocks.LN_EPS, 0)
    gate = _allocating_silu(_ref_pointwise(u, p.gate_weight, p.gate_bias))
    return _ref_pointwise(normed * gate, p.out_weight, p.out_bias) + x


def _ref_lss(x, p):
    g = x
    for hp in p.hss:
        g = _ref_hss(g, hp)
    branches = [
        _ref_conv_block(_naive_dwconv2d(_ref_conv_block(x, br.pre), br.dw_weight, br.dw_bias),
                        br.post)
        for br in (p.local5, p.local7)
    ]
    cat = np.concatenate([g] + branches, axis=0)
    return _ref_pointwise(cat, p.fuse_weight, p.fuse_bias) + x


def _ref_forward(pyr, params):
    """(loss, map) of the reference decoder on ``pyr``: its float64
    reconstruction, rounded to float32 once, scored as pipeline_forward
    scores."""
    def pool(z):
        c, h, w = z.shape
        return z.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def up(z):
        return np.repeat(np.repeat(z, 2, axis=1), 2, axis=2)

    def stage(z, modules):
        for module in modules:
            z = _ref_lss(z, module)
        return z

    s0, s1, s2 = (t.array.astype(np.float64) for t in pyr.scales)
    t = _ref_conv_block(np.concatenate([pool(pool(s0)), pool(s1), s2]), params.fuse)
    deep = stage(stage(t, params.stages[0]), params.stages[1])
    mid = stage(_ref_conv_block(up(deep), params.adapters[0]), params.stages[2])
    shallow = stage(_ref_conv_block(up(mid), params.adapters[1]), params.stages[3])
    recon = FeaturePyramid(tuple(Tensor(z) for z in (shallow, mid, deep)))
    return mse_loss(pyr, recon), anomaly_map(pyr, recon)


def _reference_distance(pyr, cfg):
    """Distances of pipeline_forward from the reference decoder: map (as a
    share of the reference map's largest value), loss and image score
    (each relative)."""
    params = init_decoder_params(cfg, pyr.channels)
    loss, amap = pipeline_forward(pyr, cfg, params)
    ref_loss, ref_map = _ref_forward(pyr, params)
    map_dist = np.abs(amap.scores.astype(np.float64) - ref_map.scores).max()
    return (map_dist / np.abs(ref_map.scores).max(),
            abs(loss - ref_loss) / abs(ref_loss),
            abs(amap.image_score - ref_map.image_score) / abs(ref_map.image_score))


# float32 activations between layers against float64 throughout: map, loss
# and image score each within REFERENCE_TOL of the reference, relative
REFERENCE_TOL = 1e-5


@_REFERENCE_CASES
def test_pipeline_within_bound_of_reference_decoder(method, directions, h, w):
    dist = _reference_distance(_rect_pyramid(6, 2, h, w), _reference_config(method, directions))
    assert max(dist) <= REFERENCE_TOL, dist


def _wide_fuse_pyramid(pyr, cfg):
    """``pyr`` with whole input channels of the fuse ConvB at +-3.4e38,
    signed as fuse output channel 0's weights and taken, largest weight
    first, while their |weights| sum to at most 0.9; one cell of the fused
    grid is negated.  That output channel then holds about +-0.9 * 3.4e38:
    finite, but spread wider than float32's range."""
    weights = init_decoder_params(cfg, pyr.channels).fuse.weight[0, :, 0, 0]
    arrays = [t.array.copy() for t in pyr.scales]
    inputs = [(s, c) for s, a in enumerate(arrays) for c in range(a.shape[0])]
    total = 0.0
    for j in np.argsort(-np.abs(weights)):
        if total + abs(weights[j]) <= 0.9:
            s, c = inputs[j]
            arrays[s][c] = np.float32(3.4e38) * np.sign(weights[j])
            total += abs(weights[j])
    assert total > 0.6  # the negated cell sits past float32's range from the mean
    for s, a in enumerate(arrays):
        a[:, :4 >> s, :4 >> s] *= -1.0
    return FeaturePyramid(tuple(Tensor(a) for a in arrays))


@_REFERENCE_CASES
def test_pipeline_extreme_magnitudes_within_bound_of_reference(method, directions, h, w):
    # 4 x 4 blocks of +-3e38 and +-1e25 in one top-scale channel survive the
    # two 2 x 2 pools into the fuse ConvB, whose norm then centres values
    # whose float32 squares would overflow
    cfg = _reference_config(method, directions)
    pyr = _rect_pyramid(6, 2, h, w)
    top = pyr.scales[0].array.copy()
    for (r, c), value in zip([(0, 0), (0, 4), (4, 0), (4, 4)], [3e38, -3e38, 1e25, -1e25]):
        top[0, r:r + 4, c:c + 4] = value
    blocks_pyr = FeaturePyramid((Tensor(top),) + pyr.scales[1:])
    for extreme in (blocks_pyr, _wide_fuse_pyramid(pyr, cfg)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = _reference_distance(extreme, cfg)
        assert max(dist) <= REFERENCE_TOL, dist


def test_conv_block_constant_input_zeroes_out():
    # instance norm of a constant channel is zero, and SiLU(0) = 0
    p = ConvBParams(
        weight=np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1),
        bias=np.zeros(2, np.float32),
        norm_scale=np.ones(2, np.float32),
        norm_shift=np.zeros(2, np.float32),
    )
    out = conv_block(np.full((2, 3, 3), 5.0, dtype=np.float32), p)
    np.testing.assert_allclose(out, 0.0, atol=1e-6)


def test_conv_block_zero_weights_zero_output():
    p = ConvBParams(
        weight=np.zeros((3, 2, 1, 1), np.float32),
        bias=np.zeros(3, np.float32),
        norm_scale=np.ones(3, np.float32),
        norm_shift=np.zeros(3, np.float32),
    )
    rng = np.random.default_rng(1)
    out = conv_block(rng.standard_normal((2, 4, 4)).astype(np.float32), p)
    np.testing.assert_allclose(out, 0.0, atol=1e-7)


def test_conv_block_matches_composed_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5, 5)).astype(np.float32)
    w = rng.standard_normal((3, 2, 1, 1)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    scale = rng.standard_normal(3).astype(np.float32)
    shift = rng.standard_normal(3).astype(np.float32)
    p = ConvBParams(weight=w, bias=b, norm_scale=scale, norm_shift=shift)
    got = conv_block(x, p)

    conv = _naive_conv2d(x, w, b)
    mu = conv.mean(axis=(1, 2), keepdims=True)
    var = conv.var(axis=(1, 2), keepdims=True)
    normed = (conv - mu) / np.sqrt(var + 1e-5)
    normed = normed * scale[:, None, None] + shift[:, None, None]
    want = normed * (1 / (1 + np.exp(-normed)))
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


def test_conv_block_rejects_even_kernel():
    # every ConvB is 1x1, so an odd kernel larger than 1 is refused as well
    for k in (2, 3):
        with pytest.raises(ValueError, match=r"\(out, in, 1, 1\)"):
            ConvBParams(
                weight=np.zeros((1, 1, k, k), np.float32),
                bias=np.zeros(1, np.float32),
                norm_scale=np.ones(1, np.float32),
                norm_shift=np.zeros(1, np.float32),
            )


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", 0.0),
        ("a", 0.5),
        ("a", np.nan),
        ("a", -np.inf),
        ("b", np.nan),
        ("c", np.inf),
        ("delta", np.nan),
        ("delta", np.inf),
    ],
)
def test_bank_params_reject_unstable_or_non_finite(field, value):
    good = dict(
        a=np.full((2, 3, 2), -0.5),
        b=np.ones((2, 3, 2)),
        c=np.ones((2, 3, 2)),
        delta=np.full((2, 3), 0.1),
    )
    SsmBankParams(**good)
    bad = dict(good)
    bad[field] = good[field].copy()
    bad[field].flat[-1] = value
    with pytest.raises(ValueError):
        SsmBankParams(**bad)


# -------------------------------------------------- scan path consistency


def _identity_bank(channels, delta_val=1.0):
    """Bank whose scan is the identity map: a so negative the state has no
    memory, and c chosen as 1/b_bar so each step returns its own input."""
    n = 1
    a = np.full((channels, n), -40.0)
    b = np.ones((channels, n))
    delta = np.full(channels, delta_val)
    a_bar, b_bar = zoh(a, delta[:, None], b)
    c = 1.0 / b_bar
    return a, b, c, delta


@pytest.mark.parametrize("method", list(ScanMethod))
@pytest.mark.parametrize("direction", list(ScanDirection))
def test_scan_path_permutation_consistency(method, direction):
    # with identity dynamics, gather -> bank scan -> scatter must return
    # the input map for every schedule
    h = w = 8
    channels = 3
    rng = np.random.default_rng(17)
    x = rng.standard_normal((channels, h * w))
    a, b, c, delta = _identity_bank(channels)
    sched = make_schedule(method, direction, h, w)
    seq = x[:, sched.order]
    y = ssm_bank_scan(a, b, c, delta, seq)
    out = np.empty_like(y)
    out[:, sched.order] = y
    np.testing.assert_allclose(out, x, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize(
    "length", [1, 2, 3, 5, 15, 16, 17, 33, 53, 100, 1023, 1024, 4096]
)
def test_bank_scan_matches_single_channel_kernel(length, n):
    # lengths below, at, one past and between multiples of the chunk, and
    # many chunks; channel 0 has a = 0, the series branch of zoh, where every
    # power of a_bar is exactly 1; the last of the n + 1 states of every
    # channel has a = -1e5, where every power of a_bar but the zeroth
    # underflows to exactly 0; the last channel is a running sum
    rng = np.random.default_rng(23 + length + n)
    channels = 5
    a = -rng.uniform(0.1, 2, (channels, n + 1))
    a[0] = 0.0
    a[:, -1] = -1e5
    b = rng.uniform(-1, 1, (channels, n + 1))
    c = rng.uniform(-1, 1, (channels, n + 1))
    delta = rng.uniform(0.05, 1.0, channels)
    seq = rng.standard_normal((channels, length))
    # a = 0, b = c = delta = x = 1 in state 0; the other states are read out
    # with c = 0
    a[-1, :-1] = 0.0
    b[-1, 0] = c[-1, 0] = delta[-1] = 1.0
    c[-1, 1:] = 0.0
    seq[-1] = 1.0
    got = ssm_bank_scan(a, b, c, delta, seq)
    assert got.shape == (channels, length)
    assert np.all(np.exp(a[:, -1] * delta) == 0.0)
    assert got[-1].tobytes() == np.arange(1.0, length + 1).tobytes()
    want = scan_recurrent(*zoh(a, delta[:, None], b), c, seq)
    for ch in range(channels):
        assert np.max(np.abs(got[ch] - want[ch])) <= 1e-12 * np.max(np.abs(want[ch]))


# ------------------------------------------------------ residual identities


def _zero_hss_output(p: HssParams) -> HssParams:
    return replace(p, out_weight=np.zeros_like(p.out_weight), out_bias=np.zeros_like(p.out_bias))


def test_hss_residual_identity():
    p = init_hss_params(Rng(5), _micro_config(), channels=4)
    p = _zero_hss_output(p)
    x = Tensor(np.random.default_rng(0).standard_normal((4, 6, 6)).astype(np.float32))
    out = hss_forward(x, p)
    assert out.array.tobytes() == x.array.tobytes()


def test_lss_residual_identity():
    params = init_block_params(Rng(3), _micro_config(), channels=4, hss_blocks=1)
    params = replace(
        params,
        hss=tuple(_zero_hss_output(h) for h in params.hss),
        fuse_weight=np.zeros_like(params.fuse_weight),
        fuse_bias=np.zeros_like(params.fuse_bias),
    )
    x = Tensor(np.random.default_rng(1).standard_normal((4, 8, 8)).astype(np.float32))
    out = lss_forward(x, params)
    assert out.array.tobytes() == x.array.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_residual_identity_random_configs(seed):
    rng = np.random.default_rng(seed + 100)
    channels = int(rng.choice([2, 3, 4, 8]))
    k = int(rng.choice([1, 2, 4]))
    directions = tuple(list(ScanDirection)[:k])
    hss_blocks = int(rng.integers(1, 3))
    cfg = _micro_config(
        state_size=int(rng.integers(1, 4)),
        scan_method=ScanMethod(rng.choice([m.value for m in ScanMethod])),
        directions=directions,
    )
    params = init_block_params(Rng(seed), cfg, channels, hss_blocks)
    params = replace(
        params,
        hss=tuple(_zero_hss_output(h) for h in params.hss),
        fuse_weight=np.zeros_like(params.fuse_weight),
        fuse_bias=np.zeros_like(params.fuse_bias),
    )
    h = w = 8
    x = Tensor(rng.standard_normal((channels, h, w)).astype(np.float32))
    out = lss_forward(x, params)
    assert out.array.tobytes() == x.array.tobytes()


# -------------------------------------------------------------- dataflow


def test_hss_shape_preservation():
    cfg = _micro_config(scan_method=ScanMethod.SCAN,
                        directions=(ScanDirection.FORWARD, ScanDirection.WH_FORWARD))
    p = init_hss_params(Rng(9), cfg, channels=3)
    x = Tensor(np.random.default_rng(3).standard_normal((3, 4, 6)).astype(np.float32))
    out = hss_forward(x, p)
    assert out.shape == (3, 4, 6)


def test_hss_non_square_with_wh_directions():
    # wh directions traverse the transposed geometry but stay addressed to
    # the caller's grid, so non-square maps are fine without rot90
    cfg = _micro_config(directions=(ScanDirection.FORWARD, ScanDirection.REVERSE,
                                    ScanDirection.WH_FORWARD, ScanDirection.WH_REVERSE))
    p = init_hss_params(Rng(2), cfg, channels=2)
    x = Tensor(np.random.default_rng(4).standard_normal((2, 2, 6)).astype(np.float32))
    out = hss_forward(x, p)
    assert out.shape == (2, 2, 6)
    assert np.isfinite(out.array).all()


def test_hss_rot90_rejects_non_square():
    cfg = _micro_config(state_size=1, expansion=1,
                        directions=(ScanDirection.FORWARD, ScanDirection.ROT90_FORWARD))
    p = init_hss_params(Rng(2), cfg, channels=2)
    x = Tensor(np.zeros((2, 2, 4), dtype=np.float32))
    with pytest.raises(Exception):
        hss_forward(x, p)


def test_hss_forward_reverse_memoryless_equality():
    # with memoryless dynamics the scan is pointwise, so scanning the same
    # map forward or backward lands every value back on its own cell
    channels, expansion = 2, 1
    inner = channels * expansion
    cfg = _micro_config(state_size=1, expansion=expansion, scan_method=ScanMethod.HILBERT,
                        directions=(ScanDirection.FORWARD,))
    base = init_hss_params(Rng(6), cfg, channels=channels)
    a, b, c, delta = _identity_bank(inner)
    bank = SsmBankParams(
        a=a[None, :, :], b=b[None, :, :], c=c[None, :, :], delta=delta[None, :]
    )
    fwd = replace(base, bank=bank, directions=(ScanDirection.FORWARD,))
    rev = replace(base, bank=bank, directions=(ScanDirection.REVERSE,))
    x = Tensor(np.random.default_rng(8).standard_normal((channels, 4, 4)).astype(np.float32))
    out_f = hss_forward(x, fwd)
    out_r = hss_forward(x, rev)
    np.testing.assert_allclose(out_f.array, out_r.array, rtol=1e-6, atol=1e-7)


def test_hss_worker_bit_identity():
    p = init_hss_params(Rng(12), DecoderConfig(state_size=2), channels=4)
    x = Tensor(np.random.default_rng(12).standard_normal((4, 8, 8)).astype(np.float32))
    base = hss_forward(x, p, workers=1)
    for workers in (2, 4, 8):
        other = hss_forward(x, p, workers=workers)
        assert other.array.tobytes() == base.array.tobytes()


def _per_direction_hss(g: Tensor, p: HssParams) -> np.ndarray:
    """Oracle: the block with one bank scan per direction, each scattered
    back through its visit order and summed in direction order."""
    x = g.array
    _, h, w = x.shape
    u = layer_norm(x, p.ln_pre_scale, p.ln_pre_shift)
    main = silu(dwconv2d(pointwise_conv(u, p.in_weight, p.in_bias), p.dw_weight, p.dw_bias))
    main_flat = main.reshape(p.inner_channels, h * w)
    acc = np.zeros((p.inner_channels, h * w), dtype=np.float64)
    for k, direction in enumerate(p.directions):
        sched = make_schedule(p.method, direction, h, w)
        y = ssm_bank_scan(p.bank.a[k], p.bank.b[k], p.bank.c[k], p.bank.delta[k],
                          main_flat[:, sched.order])
        part = np.empty_like(y)
        part[:, sched.order] = y
        acc += part
    scans = acc.astype(np.float32).reshape(p.inner_channels, h, w)
    normed = layer_norm(scans, p.ln_post_scale, p.ln_post_shift)
    gate = silu(pointwise_conv(u, p.gate_weight, p.gate_bias))
    return pointwise_conv(normed * gate, p.out_weight, p.out_bias) + x


_NON_ROT = (ScanDirection.FORWARD, ScanDirection.REVERSE,
            ScanDirection.WH_FORWARD, ScanDirection.WH_REVERSE)


@pytest.mark.parametrize(
    "method, directions, h, w",
    [(ScanMethod.HILBERT, tuple(ScanDirection)[:k], 8, 8) for k in (1, 2, 4, 8)]
    + [(ScanMethod.SWEEP, _NON_ROT, 6, 10)],
)
def test_hss_stacked_scan_matches_per_direction_oracle(method, directions, h, w):
    channels, n = 3, 4
    cfg = _micro_config(state_size=n, scan_method=method, directions=directions)
    p = init_hss_params(Rng(21), cfg, channels=channels)
    # every (direction, channel) row gets its own a, b, c and delta, so a
    # bank row paired with the wrong sequence row changes the output
    rng = np.random.default_rng(22)
    shape = (len(directions), p.inner_channels, n)
    bank = SsmBankParams(
        a=rng.uniform(-2.0, -0.01, shape),
        b=rng.uniform(-1.0, 1.0, shape),
        c=rng.uniform(-1.0, 1.0, shape),
        delta=rng.uniform(0.05, 0.5, shape[:2]),
    )
    p = replace(p, bank=bank)
    x = Tensor(rng.standard_normal((channels, h, w)).astype(np.float32))
    got = hss_forward(x, p).array
    assert got.tobytes() == _per_direction_hss(x, p).tobytes()


def _take_per_direction_hss(g: Tensor, p: HssParams) -> np.ndarray:
    """Oracle: the stacked block with every direction's rows gathered by its
    own ``np.take``, the form before reverse gathers were mirrored."""
    x = g.array
    _, h, w = x.shape
    u = layer_norm(x, p.ln_pre_scale, p.ln_pre_shift)
    main = silu(dwconv2d(pointwise_conv(u, p.in_weight, p.in_bias), p.dw_weight, p.dw_bias))
    inner = p.inner_channels
    main64 = main.reshape(inner, h * w).astype(np.float64)
    rows = len(p.directions) * inner
    scheds = [make_schedule(p.method, d, h, w) for d in p.directions]
    seq = np.empty((rows, h * w), dtype=np.float64)
    for k, s in enumerate(scheds):
        np.take(main64, s.order, axis=1, out=seq[k * inner:(k + 1) * inner], mode="clip")
    y = ssm_bank_scan(p.bank.a.reshape(rows, -1), p.bank.b.reshape(rows, -1),
                      p.bank.c.reshape(rows, -1), p.bank.delta.reshape(rows), seq)
    acc = np.zeros((inner, h * w), dtype=np.float64)
    for k, s in enumerate(scheds):
        acc += np.take(y[k * inner:(k + 1) * inner], s.inverse, axis=1)
    scans = acc.astype(np.float32).reshape(inner, h, w)
    normed = layer_norm(scans, p.ln_post_scale, p.ln_post_shift)
    gate = silu(pointwise_conv(u, p.gate_weight, p.gate_bias))
    return pointwise_conv(normed * gate, p.out_weight, p.out_bias) + x


_D = ScanDirection


# a reverse before its forward partner, a reverse with no partner (alone or
# beside another pair's forward), all eight, and a non-square sweep pair
@pytest.mark.parametrize(
    "method, directions, h, w",
    [
        (ScanMethod.HILBERT, (_D.REVERSE, _D.FORWARD), 8, 8),
        (ScanMethod.HILBERT, (_D.REVERSE,), 8, 8),
        (ScanMethod.HILBERT, (_D.REVERSE, _D.WH_FORWARD), 8, 8),
        (ScanMethod.HILBERT, tuple(ScanDirection), 8, 8),
        (ScanMethod.SWEEP, (_D.FORWARD, _D.REVERSE), 4, 6),
    ],
)
def test_hss_mirrored_gathers_match_take_per_direction(method, directions, h, w):
    channels = 3
    cfg = _micro_config(state_size=4, scan_method=method, directions=directions)
    p = init_hss_params(Rng(31), cfg, channels=channels)
    x = Tensor(np.random.default_rng(32).standard_normal((channels, h, w)).astype(np.float32))
    assert hss_forward(x, p).array.tobytes() == _take_per_direction_hss(x, p).tobytes()


def test_lss_zeroed_branches_reduce_to_fuse():
    params = init_block_params(Rng(3), _micro_config(), channels=4, hss_blocks=1)
    local5 = params.local5
    local7 = params.local7

    def _zero_branch(br: LocalBranchParams) -> LocalBranchParams:
        post = replace(br.post, weight=np.zeros_like(br.post.weight),
                       bias=np.zeros_like(br.post.bias),
                       norm_shift=np.zeros_like(br.post.norm_shift))
        return replace(br, post=post)

    params = replace(
        params,
        hss=tuple(_zero_hss_output(h) for h in params.hss),
        local5=_zero_branch(local5),
        local7=_zero_branch(local7),
    )
    rng = np.random.default_rng(30)
    x = Tensor(rng.standard_normal((4, 8, 8)).astype(np.float32))
    out = lss_forward(x, params)

    cat = np.concatenate([x.array, np.zeros_like(x.array), np.zeros_like(x.array)], axis=0)
    want = pointwise_conv(cat, params.fuse_weight, params.fuse_bias) + x.array
    np.testing.assert_allclose(out.array, want, rtol=1e-5, atol=1e-6)


def test_lss_shape_preservation():
    params = init_block_params(Rng(3), _micro_config(), channels=3, hss_blocks=1)
    x = Tensor(np.random.default_rng(31).standard_normal((3, 8, 8)).astype(np.float32))
    assert lss_forward(x, params).shape == (3, 8, 8)


# ------------------------------------------------------------------- init


def test_init_deterministic():
    a = init_block_params(Rng(77), _micro_config(), channels=4, hss_blocks=1)
    b = init_block_params(Rng(77), _micro_config(), channels=4, hss_blocks=1)
    assert a.fuse_weight.tobytes() == b.fuse_weight.tobytes()
    for ha, hb in zip(a.hss, b.hss):
        assert ha.in_weight.tobytes() == hb.in_weight.tobytes()
        assert ha.bank.delta.tobytes() == hb.bank.delta.tobytes()


def test_init_different_seeds_differ():
    a = init_block_params(Rng(1), _micro_config(), channels=4, hss_blocks=1)
    b = init_block_params(Rng(2), _micro_config(), channels=4, hss_blocks=1)
    assert a.fuse_weight.tobytes() != b.fuse_weight.tobytes()


def test_init_fan_in_scaling():
    # a 1x1 conv over 16 input channels draws from [-0.25, 0.25]
    p = init_conv_block(Rng(0), in_ch=16, out_ch=8)
    assert np.abs(p.weight).max() <= 0.25
    assert np.abs(p.weight).max() > 0.2  # the bound is actually approached
    np.testing.assert_array_equal(p.bias, 0)
    np.testing.assert_array_equal(p.norm_scale, 1)
    np.testing.assert_array_equal(p.norm_shift, 0)


def test_init_bank_conventions():
    p = init_hss_params(Rng(3), DecoderConfig(state_size=3), channels=2)
    inner = p.inner_channels
    k = len(p.directions)
    assert p.bank.a.shape == (k, inner, 3)
    for i in range(3):
        np.testing.assert_array_equal(p.bank.a[:, :, i], -(i + 1))
    assert p.bank.delta.min() >= 1e-3
    assert p.bank.delta.max() <= 1e-1


def test_direction_count_validation():
    # the config and the block parameters each reject the count
    bad = (ScanDirection.FORWARD, ScanDirection.REVERSE, ScanDirection.WH_FORWARD)
    with pytest.raises(ValueError, match="direction count"):
        DecoderConfig(directions=bad)
    p = init_hss_params(Rng(0), _micro_config(), channels=2)
    with pytest.raises(ValueError, match="direction count"):
        replace(p, directions=bad)
    assert 3 not in ALLOWED_DIRECTION_COUNTS


def test_duplicate_directions_rejected():
    bad = (ScanDirection.FORWARD, ScanDirection.FORWARD)
    with pytest.raises(ValueError, match="distinct"):
        DecoderConfig(directions=bad)
    p = init_hss_params(Rng(0), _micro_config(), channels=2)
    with pytest.raises(ValueError, match="distinct"):
        replace(p, directions=bad)
