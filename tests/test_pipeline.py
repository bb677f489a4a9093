"""Pipeline assembly tests: fusion, decoder wiring, loss, anomaly scoring,
and parameter serialization round-trips."""

import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from ssmad.pipeline import (
    MAX_DECODER_CELLS,
    MAX_MAP_CELLS,
    AnomalyScoreMap,
    DecoderConfig,
    FeaturePyramid,
    _map_tensors,
    anomaly_map,
    decoder_forward,
    hfpn_fuse,
    init_decoder_params,
    load_decoder_params,
    mse_loss,
    pipeline_forward,
    save_decoder_params,
)
from ssmad.scans import ScanDirection, ScanMethod
from ssmad.tensor import Tensor, read_tensor_file


def _pyramid(seed=0, channels=4, size=16, fill=None):
    rng = np.random.default_rng(seed)
    scales = []
    for level in range(3):
        c = channels * 2**level
        s = size // 2**level
        if fill is None:
            arr = rng.uniform(0.2, 1.0, (c, s, s)).astype(np.float32)
        else:
            arr = np.full((c, s, s), fill, dtype=np.float32)
        scales.append(Tensor(arr))
    return FeaturePyramid(tuple(scales))


def _micro_cfg(**kw):
    defaults = dict(
        stage_depths=(1, 1, 1, 1),
        hss_per_stage=(1, 1, 1, 1),
        scan_method=ScanMethod.SWEEP,
        directions=(ScanDirection.FORWARD, ScanDirection.REVERSE),
        state_size=2,
        seed=11,
    )
    defaults.update(kw)
    return DecoderConfig(**defaults)


def _naive_cosine_map(enc, dec):
    c, h, w = enc.shape
    out = np.zeros((h, w))
    for r in range(h):
        for col in range(w):
            e = enc[:, r, col].astype(np.float64)
            d = dec[:, r, col].astype(np.float64)
            ne, nd = np.linalg.norm(e), np.linalg.norm(d)
            if ne < 1e-12 and nd < 1e-12:
                cos = 1.0
            elif ne < 1e-12 or nd < 1e-12:
                cos = 0.0
            else:
                cos = float(e @ d) / (ne * nd)
            out[r, col] = max(1.0 - cos, 0.0)
    return out


# ------------------------------------------------------------------ types


def test_pyramid_validates_halving():
    with pytest.raises(ValueError):
        FeaturePyramid((
            Tensor(np.zeros((2, 8, 8), np.float32)),
            Tensor(np.zeros((4, 5, 5), np.float32)),
            Tensor(np.zeros((8, 2, 2), np.float32)),
        ))


@pytest.mark.parametrize(
    "extents", [((9, 8), (4, 4), (2, 2)), ((10, 8), (5, 4), (2, 2))], ids=["scale0", "scale1"]
)
def test_pyramid_refuses_odd_pooled_extents(extents):
    # hfpn_fuse pools scale 0 twice and scale 1 once, 2x2 each, so both must
    # have even extents; this check is the only one that keeps them even
    (h0, w0), (h1, w1), (h2, w2) = extents
    with pytest.raises(ValueError, match="must halve"):
        FeaturePyramid((
            Tensor(np.zeros((2, h0, w0), np.float32)),
            Tensor(np.zeros((4, h1, w1), np.float32)),
            Tensor(np.zeros((8, h2, w2), np.float32)),
        ))


def test_pyramid_needs_three_scales():
    with pytest.raises(ValueError):
        FeaturePyramid((Tensor(np.zeros((2, 4, 4), np.float32)),))


def test_anomaly_map_type_rejects_negative_scores():
    with pytest.raises(ValueError):
        AnomalyScoreMap(scores=np.array([[-0.5]], np.float32), image_score=0.0)


def test_config_resolved_channels():
    cfg = _micro_cfg()
    assert cfg.resolved_channels((8, 16, 32)) == (32, 32, 16, 8)


def test_config_rejects_bad_depths():
    with pytest.raises(ValueError):
        _micro_cfg(stage_depths=(1, 1, 1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("scan_method", "hilbert"),
        ("directions", ("forward", "reverse")),
        ("stage_depths", (1.5, 1, 1, 1)),
        ("hss_per_stage", [1, 1, "1", 1]),
        ("state_size", 2.5),
        ("expansion", np.float64(2.0)),
        ("local_kernels", (5, True)),
        ("seed", True),
    ],
)
def test_config_rejects_values_of_the_wrong_type(field, value):
    # each would build a config that then fails deep inside the decoder,
    # or, for a bool seed, be taken as 0 or 1 without a word
    with pytest.raises(TypeError, match=field):
        DecoderConfig(**{field: value})


def test_config_takes_numpy_integers_and_lists():
    cfg = DecoderConfig(stage_depths=[1, 1, 1, 1], state_size=np.int64(3), seed=np.uint8(7))
    assert cfg.state_size == 3 and cfg.seed == 7


@pytest.mark.parametrize("field", ["state_size", "expansion"])
def test_config_rejects_empty_banks(field):
    with pytest.raises(ValueError, match=field):
        _micro_cfg(**{field: 0})


@pytest.mark.parametrize(
    "cfg, channels, top",
    [
        (DecoderConfig(), (4, 8, 16), (16, 16)),
        (DecoderConfig(stage_depths=(1, 2, 1, 1), hss_per_stage=(2, 1, 1, 3), state_size=3,
                       expansion=3, local_kernels=(3, 9),
                       directions=(ScanDirection.FORWARD, ScanDirection.REVERSE)),
         (2, 6, 5), (8, 8)),
    ],
    ids=["default", "uneven"],
)
def test_footprint_counts_every_parameter(cfg, channels, top):
    sizes = []
    _map_tensors(init_decoder_params(cfg, channels), lambda _, arr: sizes.append(arr.size) or arr)
    assert cfg.footprint(channels, top)[0] == sum(sizes)


def test_footprint_admits_the_paper_widths():
    # a 64/128/256-channel pyramid at 64 x 64: the top stage's 7 x 7 tap
    # columns are the largest array
    params, cells = DecoderConfig().footprint((64, 128, 256), (64, 64))
    assert (params, cells) == (14_791_104, 64 * 49 * 64 * 64)
    assert max(params, cells) <= MAX_DECODER_CELLS


# ----------------------------------------------------------------- fusion


def test_hfpn_shape_contract():
    p = FeaturePyramid((
        Tensor(np.random.default_rng(0).uniform(0.1, 1, (8, 16, 16)).astype(np.float32)),
        Tensor(np.random.default_rng(1).uniform(0.1, 1, (16, 8, 8)).astype(np.float32)),
        Tensor(np.random.default_rng(2).uniform(0.1, 1, (32, 4, 4)).astype(np.float32)),
    ))
    params = init_decoder_params(_micro_cfg(), p.channels)
    fused = hfpn_fuse(p, params.fuse)
    assert fused.shape == (32, 4, 4)


def test_hfpn_zero_pyramid_gives_zero():
    p = _pyramid(fill=0.0)
    params = init_decoder_params(_micro_cfg(), p.channels)
    fused = hfpn_fuse(p, params.fuse)
    np.testing.assert_allclose(fused.array, 0.0, atol=1e-6)


def test_hfpn_constant_pyramid_is_spatially_constant():
    p = _pyramid(fill=0.7)
    params = init_decoder_params(_micro_cfg(), p.channels)
    fused = hfpn_fuse(p, params.fuse).array
    for ch in range(fused.shape[0]):
        assert np.ptp(fused[ch]) <= 1e-5


# ---------------------------------------------------------------- decoder


def test_decoder_reproduces_pyramid_shapes():
    p = _pyramid(seed=5, channels=4, size=16)
    cfg = _micro_cfg()
    params = init_decoder_params(cfg, p.channels)
    fused = hfpn_fuse(p, params.fuse)
    recon = decoder_forward(fused, params)
    assert recon.scales[0].shape == p.scales[0].shape
    assert recon.scales[1].shape == p.scales[1].shape
    assert recon.scales[2].shape == p.scales[2].shape


def test_decoder_deterministic():
    p = _pyramid(seed=6)
    cfg = _micro_cfg()
    params = init_decoder_params(cfg, p.channels)
    fused = hfpn_fuse(p, params.fuse)
    a = decoder_forward(fused, params)
    b = decoder_forward(fused, params)
    for sa, sb in zip(a.scales, b.scales):
        assert sa.array.tobytes() == sb.array.tobytes()


def _params_sha256(params) -> str:
    """sha256 over each tensor's name and bytes, in ``_map_tensors`` order."""
    digest = hashlib.sha256()

    def add(name, arr):
        digest.update(name.encode())
        digest.update(arr.tobytes())
        return arr

    _map_tensors(params, add)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "cfg, channels, want",
    [
        (DecoderConfig(), (8, 16, 32),
         "16317dde162e3c98196fae3b2c0c63a7324e3df85028158450f6ccfe29a549d0"),
        (_micro_cfg(seed=7), (4, 8, 16),
         "4dc00810fa1d21518f17466121a45eba603335022a43ba58532ffd959ebeaac4"),
    ],
)
def test_init_bytes_are_pinned(cfg, channels, want):
    # every weight byte of a seed is part of the contract: a change to the
    # draw order or an initialiser's distribution moves this digest
    assert _params_sha256(init_decoder_params(cfg, channels)) == want


# ------------------------------------------------------------------- loss


def test_mse_self_is_zero():
    p = _pyramid(seed=8)
    assert mse_loss(p, p) == 0.0


def test_mse_constant_difference():
    p = _pyramid(fill=0.5)
    q = _pyramid(fill=0.25)
    d = 0.25
    np.testing.assert_allclose(mse_loss(p, q), 3 * d * d, rtol=1e-6)


def test_mse_matches_naive_loops():
    p = _pyramid(seed=9, size=8)
    q = _pyramid(seed=10, size=8)
    want = 0.0
    for t, r in zip(p.scales, q.scales):
        diff = t.array.astype(np.float64) - r.array.astype(np.float64)
        want += float((diff * diff).sum() / diff.size)
    np.testing.assert_allclose(mse_loss(p, q), want, rtol=1e-10)


def test_mse_shape_mismatch():
    p = _pyramid(size=8)
    q = _pyramid(size=16)
    with pytest.raises(ValueError):
        mse_loss(p, q)


# ------------------------------------------------------------ anomaly map


def test_anomaly_map_self_reconstruction_is_zero():
    p = _pyramid(seed=11)
    amap = anomaly_map(p, p)
    np.testing.assert_allclose(amap.scores, 0.0, atol=1e-6)
    assert amap.image_score <= 1e-6


def test_anomaly_map_flipped_pixel_contributes_two():
    p = _pyramid(seed=12, size=8)
    arrs = [s.array.copy() for s in p.scales]
    # flip the feature vector at one top-scale pixel; that scale is already
    # at output resolution so its contribution arrives unresized
    arrs[0][:, 3, 4] = -arrs[0][:, 3, 4]
    q = FeaturePyramid(tuple(Tensor(a) for a in arrs))
    amap = anomaly_map(p, q, out_h=8, out_w=8)
    np.testing.assert_allclose(amap.scores[3, 4], 2.0, atol=1e-5)
    # far away from the flip nothing changes
    assert amap.scores[0, 0] <= 1e-6


def test_anomaly_map_zero_vector_guards():
    enc = np.zeros((2, 1, 2), dtype=np.float32)
    dec = np.zeros((2, 1, 2), dtype=np.float32)
    enc[:, 0, 1] = 1.0  # exactly one side zero at pixel 1
    from ssmad.pipeline import _cosine_distance_map

    m = _cosine_distance_map(enc, dec)
    assert m[0, 0] == 0.0  # both zero: cos treated as 1
    assert m[0, 1] == 1.0  # one zero: cos treated as 0


def test_anomaly_map_bounds():
    p = _pyramid(seed=13, size=8)
    rng = np.random.default_rng(14)
    q = FeaturePyramid(tuple(
        Tensor(rng.standard_normal(s.shape).astype(np.float32)) for s in p.scales
    ))
    amap = anomaly_map(p, q)
    assert amap.scores.min() >= 0.0
    assert amap.scores.max() <= 6.0 + 1e-6


def test_anomaly_map_matches_naive_oracle():
    p = _pyramid(seed=15, size=8)
    rng = np.random.default_rng(16)
    q = FeaturePyramid(tuple(
        Tensor((s.array + 0.3 * rng.standard_normal(s.shape)).astype(np.float32))
        for s in p.scales
    ))
    got = anomaly_map(p, q, out_h=4, out_w=4)

    from ssmad.tensor import bilinear_resize

    want = np.zeros((4, 4))
    for t, r in zip(p.scales, q.scales):
        m = _naive_cosine_map(t.array, r.array)
        want += bilinear_resize(Tensor(m.astype(np.float32)), 4, 4).array
    np.testing.assert_allclose(got.scores, want, rtol=1e-5, atol=1e-6)


def test_image_score_monotone_under_argmax_bump():
    p = _pyramid(seed=19, size=8)
    rng = np.random.default_rng(20)
    q = FeaturePyramid(tuple(
        Tensor((s.array + 0.4 * rng.standard_normal(s.shape)).astype(np.float32))
        for s in p.scales
    ))
    base = anomaly_map(p, q, out_h=8, out_w=8)
    r, c = np.unravel_index(np.argmax(base.scores), base.scores.shape)
    # push the reconstruction at the argmax pixel of the top scale to the
    # exact opposite of the encoding, maximizing that pixel's contribution
    arrs = [s.array.copy() for s in q.scales]
    arrs[0][:, r, c] = -p.scales[0].array[:, r, c]
    q2 = FeaturePyramid(tuple(Tensor(a) for a in arrs))
    bumped = anomaly_map(p, q2, out_h=8, out_w=8)
    assert bumped.image_score >= base.image_score - 1e-9


def test_image_score_of_constant_map_is_the_constant():
    # smoothing renormalizes truncated kernel mass, so a flat map keeps its
    # level and the image score equals it
    p = _pyramid(seed=21, size=8)
    arrs = [(-s.array) for s in p.scales]
    q = FeaturePyramid(tuple(Tensor(a) for a in arrs))
    amap = anomaly_map(p, q, out_h=8, out_w=8)
    np.testing.assert_allclose(amap.scores, 6.0, atol=1e-5)
    assert math.isclose(amap.image_score, 6.0, rel_tol=1e-5)


# ------------------------------------------------------------ full forward


def test_pipeline_forward_deterministic():
    p = _pyramid(seed=22)
    cfg = _micro_cfg()
    params = init_decoder_params(cfg, p.channels)
    loss1, map1 = pipeline_forward(p, cfg, params)
    loss2, map2 = pipeline_forward(p, cfg, params)
    assert loss1 == loss2
    assert map1.scores.tobytes() == map2.scores.tobytes()
    assert map1.image_score == map2.image_score


def test_pipeline_forward_worker_independent():
    p = _pyramid(seed=23)
    cfg = _micro_cfg(directions=(ScanDirection.FORWARD, ScanDirection.REVERSE,
                                 ScanDirection.WH_FORWARD, ScanDirection.WH_REVERSE))
    params = init_decoder_params(cfg, p.channels)
    loss1, map1 = pipeline_forward(p, cfg, params, workers=1)
    loss2, map2 = pipeline_forward(p, cfg, params, workers=4)
    assert loss1 == loss2
    assert map1.scores.tobytes() == map2.scores.tobytes()


def test_identical_pyramids_give_zero_loss_and_map():
    # a perfect reconstruction scores zero everywhere
    p = _pyramid(seed=24)
    loss, amap = mse_loss(p, p), anomaly_map(p, p)
    assert loss == 0.0
    np.testing.assert_allclose(amap.scores, 0.0, atol=1e-6)
    assert amap.image_score <= 1e-12


@pytest.mark.parametrize("extent", [0, -3])
@pytest.mark.parametrize("name", ["out_h", "out_w"])
def test_anomaly_map_rejects_output_extent_below_one(name, extent):
    p = _pyramid(seed=25)
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        anomaly_map(p, p, **{name: extent})


@pytest.mark.parametrize("out_h, out_w", [(MAX_MAP_CELLS + 1, 1), (2049, 2048), (10**6, 10**6)])
def test_anomaly_map_refuses_too_many_cells_before_allocating(out_h, out_w):
    p = _pyramid(seed=26)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_MAP_CELLS"):
            anomaly_map(p, p, out_h=out_h, out_w=out_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_anomaly_map_takes_the_largest_allowed_map():
    p = _pyramid(seed=26, size=8)
    assert anomaly_map(p, p, out_h=1, out_w=MAX_MAP_CELLS).scores.shape == (1, MAX_MAP_CELLS)


def test_pipeline_outputs_finite_over_seeds():
    cfg = _micro_cfg()
    for seed in range(10):
        p = _pyramid(seed=seed, channels=2, size=8)
        params = init_decoder_params(cfg, p.channels)
        loss, amap = pipeline_forward(p, cfg, params)
        assert math.isfinite(loss) and loss >= 0.0
        assert np.isfinite(amap.scores).all()
        assert amap.scores.min() >= 0.0


# ---------------------------------------------------------- serialization


def test_param_save_load_roundtrip(tmp_path):
    p = _pyramid(seed=25)
    cfg = _micro_cfg(seed=33)
    params = init_decoder_params(cfg, p.channels)
    save_decoder_params(tmp_path, params)
    loaded = load_decoder_params(tmp_path, cfg, p.channels)

    loss_a, map_a = pipeline_forward(p, cfg, params)
    loss_b, map_b = pipeline_forward(p, cfg, loaded)
    assert loss_a == loss_b
    assert map_a.scores.tobytes() == map_b.scores.tobytes()


_CONV_B = ("weight", "bias", "norm_scale", "norm_shift")
_HSS = ("ln_pre_scale", "ln_pre_shift", "in_weight", "in_bias", "gate_weight", "gate_bias",
        "dw_weight", "dw_bias", "ln_post_scale", "ln_post_shift", "out_weight", "out_bias",
        "bank.a", "bank.b", "bank.c", "bank.delta")


def _expected_param_names(depths, hss_per_stage):
    """The file format's tensor names, spelled out from its naming pattern."""
    names = {f"{block}.{f}" for block in ("fuse", "adapter0", "adapter1") for f in _CONV_B}
    for s, (depth, m) in enumerate(zip(depths, hss_per_stage)):
        for j in range(depth):
            module = f"stage{s}.lss{j}"
            names |= {f"{module}.hss{i}.{f}" for i in range(m) for f in _HSS}
            for branch in ("local5", "local7"):
                names |= {f"{module}.{branch}.{part}.{f}" for part in ("pre", "post") for f in _CONV_B}
                names |= {f"{module}.{branch}.dw_weight", f"{module}.{branch}.dw_bias"}
            names |= {f"{module}.fuse_weight", f"{module}.fuse_bias"}
    return names


def test_param_directory_contents(tmp_path):
    # pins the file format: the names, one file per tensor named after it,
    # and the shapes
    cfg = _micro_cfg(stage_depths=(1, 2, 1, 1), hss_per_stage=(2, 1, 1, 1))
    params = init_decoder_params(cfg, (4, 8, 16))
    save_decoder_params(tmp_path, params)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == "mbt-dir/1"
    tensors = manifest["tensors"]
    assert set(tensors) == _expected_param_names((1, 2, 1, 1), (2, 1, 1, 1))
    for name, entry in tensors.items():
        assert entry["file"] == f"{name}.mbt"
        assert read_tensor_file(tmp_path / entry["file"]).shape == tuple(entry["shape"])
    assert sorted(os.listdir(tmp_path)) == sorted(["manifest.json", *(f"{n}.mbt" for n in tensors)])
    assert tensors["stage1.lss1.hss0.bank.a"]["shape"] == [2, 32, 2]
    assert tensors["stage3.lss0.local7.dw_weight"]["shape"] == [4, 7, 7]
