"""Pyramid fusion, the four-stage decoder, and anomaly scoring.

A ``FeaturePyramid`` holds three channel-first maps at dyadic resolutions,
shallowest first: (C1, H, W), (C2, H/2, W/2), (C3, H/4, W/4).

``hfpn_fuse`` squeezes the pyramid to the deepest scale: the two shallower
maps are stride-2 average-pooled down to H/4 x W/4 (twice and once), the
three are concatenated on channels, and a 1x1 ConvB maps the stack to C3.

``decoder_forward`` reconstructs the pyramid from the fused map.  Stages of
consecutive locality-enhanced modules run in sequence; the outputs of the
last three stages are the reconstruction taps, deepest first, and between
taps a 2x nearest-neighbour upsample followed by a 1x1 ConvB adapts
resolution and channel count to the next shallower scale:

    fused -> stage0 -> stage1 -> up+ConvB -> stage2 -> up+ConvB -> stage3
                       |tap C3,H/4          |tap C2,H/2           |tap C1,H

Training signal and scoring:
  * ``mse_loss``: sum over scales of the mean squared difference.
  * ``anomaly_map``: per scale, one minus the channel-vector cosine at each
    pixel (guarded so two zero vectors agree and one zero vector maximally
    disagrees), bilinearly resized and summed; the image score is the max
    of the summed map after 5x5 Gaussian smoothing (sigma 4, kernel
    truncated and renormalised, borders renormalised by in-bounds mass).

Every module is built from the one ``DecoderConfig``; the initialisers draw
all weights, in a fixed order, from one SplitMix64 stream, so a seed pins
every weight on every platform.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .blocks import (
    ConvBParams,
    HssParams,
    LocalBranchParams,
    LssParams,
    SsmBankParams,
    _check_directions,
    conv_block,
    lss_forward,
)
from .scans import ScanDirection, ScanMethod
from .ssm import SCAN_CHUNK
from .tensor import (
    MbtError,
    Rng,
    Tensor,
    bilinear_resize,
    read_tensor_file,
    write_tensor_file,
)

__all__ = [
    "FeaturePyramid",
    "DecoderConfig",
    "DecoderParams",
    "AnomalyScoreMap",
    "hfpn_fuse",
    "decoder_forward",
    "mse_loss",
    "anomaly_map",
    "pipeline_forward",
    "init_conv_block",
    "init_hss_params",
    "init_block_params",
    "init_decoder_params",
    "save_decoder_params",
    "load_decoder_params",
    "ZERO_NORM_EPS",
    "SMOOTH_KERNEL",
    "SMOOTH_SIGMA",
    "MAX_MAP_CELLS",
    "MAX_DECODER_CELLS",
]

ZERO_NORM_EPS = 1e-12
SMOOTH_KERNEL = 5
SMOOTH_SIGMA = 4.0
# largest out_h * out_w an anomaly map may have (2048 x 2048); its float64
# working maps then take 32 MB each, and larger extents are refused before
# any array is made
MAX_MAP_CELLS = 1 << 22
# most parameters, and most cells in one working array, that a decoder may
# have on its pyramid (DecoderConfig.footprint); the paper's widths at 64 x 64
# need 14.8M and 12.8M
MAX_DECODER_CELLS = 1 << 26


@dataclass(frozen=True)
class FeaturePyramid:
    """Three maps, shallowest first, halving resolution at each scale."""

    scales: tuple[Tensor, Tensor, Tensor]

    def __post_init__(self) -> None:
        if len(self.scales) != 3:
            raise ValueError("a pyramid has exactly three scales")
        prev = None
        for t in self.scales:
            if t.ndim != 3:
                raise ValueError("each scale must be a (C, H, W) tensor")
            _, h, w = t.shape
            if prev is not None:
                ph, pw = prev
                if (h, w) != (ph // 2, pw // 2) or ph % 2 or pw % 2:
                    raise ValueError(
                        "scales must halve resolution: "
                        f"{(ph, pw)} then {(h, w)}"
                    )
            prev = (h, w)

    @property
    def channels(self) -> tuple[int, int, int]:
        return tuple(t.shape[0] for t in self.scales)  # type: ignore[return-value]

    @property
    def top_resolution(self) -> tuple[int, int]:
        return self.scales[0].shape[1], self.scales[0].shape[2]


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder layout; stage channels derive from the pyramid."""

    stage_depths: tuple[int, ...] = (3, 4, 6, 3)
    hss_per_stage: tuple[int, ...] = (3, 2, 3, 3)
    scan_method: ScanMethod = ScanMethod.HILBERT
    directions: tuple[ScanDirection, ...] = tuple(ScanDirection)
    state_size: int = 4
    expansion: int = 2
    local_kernels: tuple[int, int] = (5, 7)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.stage_depths) != 4 or any(d < 1 for d in self.stage_depths):
            raise ValueError("stage_depths must be four positive counts")
        if len(self.hss_per_stage) != 4 or any(m < 1 for m in self.hss_per_stage):
            raise ValueError("hss_per_stage must be four positive counts")
        if self.state_size < 1 or self.expansion < 1:
            raise ValueError("state_size and expansion must be >= 1")
        kernels = self.local_kernels
        if len(kernels) != 2 or any(k < 1 or k % 2 == 0 for k in kernels):
            raise ValueError(f"local_kernels must be two odd sizes >= 1, got {kernels}")
        _check_directions(self.directions)

    def resolved_channels(self, pyramid_channels: tuple[int, int, int]) -> tuple[int, ...]:
        c1, c2, c3 = pyramid_channels
        return c3, c3, c2, c1

    def footprint(
        self, pyramid_channels: tuple[int, int, int], top_resolution: tuple[int, int]
    ) -> tuple[int, int]:
        """Parameter count and cells of the largest working array of the
        decoder on such a pyramid, from shapes alone.  Per stage of C
        channels over L cells, the arrays weighed are the tap columns of the
        3x3 and local depthwise convolutions, C L 9E and C L k^2 cells, and
        the bank scan's arrays, each within K E C x max(ceil(L/T), T+1) x
        (T+1+N) cells for K directions and T = SCAN_CHUNK."""
        c1, c2, c3 = pyramid_channels
        k, e, n, t = len(self.directions), self.expansion, self.state_size, SCAN_CHUNK
        k5, k7 = self.local_kernels
        # the sizes init_conv_block, init_hss_params and init_block_params draw
        params = sum(o * i + 3 * o for i, o in ((c1 + c2 + c3, c3), (c3, c2), (c2, c1)))
        cells = 0
        stages = zip(self.stage_depths, self.hss_per_stage,
                     self.resolved_channels(pyramid_channels), (4, 4, 2, 1))
        for depth, m, ch, down in stages:
            hss = 3 * ch + e * ch * (3 * ch + 14 + k * (3 * n + 1))
            params += depth * (m * hss + 7 * ch * ch + ch * (15 + k5 * k5 + k7 * k7))
            length = (top_resolution[0] // down) * (top_resolution[1] // down)
            bank = k * e * ch * max(-(-length // t), t + 1) * (t + 1 + n)
            cells = max(cells, bank, ch * length * max(9 * e, k5 * k5, k7 * k7))
        return params, cells


@dataclass(frozen=True)
class DecoderParams:
    """Fuse ConvB, per-stage module parameters, and the two tap adapters."""

    fuse: ConvBParams
    stages: tuple[tuple[LssParams, ...], ...]
    adapters: tuple[ConvBParams, ConvBParams]


@dataclass(frozen=True)
class AnomalyScoreMap:
    """Non-negative per-pixel scores plus the smoothed-max image score."""

    scores: np.ndarray
    image_score: float

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.scores, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("score map must be two-dimensional")
        if not np.isfinite(arr).all():
            raise ValueError("score map must be finite")
        if (arr < 0).any():
            raise ValueError("score map must be non-negative")
        object.__setattr__(self, "scores", arr)

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


# ---------------------------------------------------------------------------
# fusion


def _avg_pool2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pool; FeaturePyramid's halving check keeps the extents even."""
    c, h, w = x.shape
    z = x.astype(np.float64).reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))
    return z.astype(np.float32)


def hfpn_fuse(p: FeaturePyramid, fuse: ConvBParams) -> Tensor:
    """Pool the shallow scales to the deepest, concat, 1x1 ConvB to C3."""
    s0, s1, s2 = (t.array for t in p.scales)
    s0 = _avg_pool2(_avg_pool2(s0))
    s1 = _avg_pool2(s1)
    stack = np.concatenate([s0, s1, s2], axis=0)
    if fuse.in_channels != stack.shape[0] or fuse.out_channels != p.channels[2]:
        raise ValueError(
            f"fuse block must map {stack.shape[0]} -> {p.channels[2]} channels"
        )
    return Tensor(conv_block(stack, fuse))


# ---------------------------------------------------------------------------
# initialisation


def _draw(rng: Rng, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    n = int(np.prod(shape))
    return rng.uniform(n, -s, s).reshape(shape).astype(np.float32)


def init_conv_block(rng: Rng, in_ch: int, out_ch: int) -> ConvBParams:
    """A 1x1 ConvB: weights uniform in [-s, s], s = 1/sqrt(in_ch); zero
    bias, norm scale 1 and shift 0."""
    return ConvBParams(
        weight=_draw(rng, (out_ch, in_ch, 1, 1), in_ch),
        bias=np.zeros(out_ch, dtype=np.float32),
        norm_scale=np.ones(out_ch, dtype=np.float32),
        norm_shift=np.zeros(out_ch, dtype=np.float32),
    )


def _init_bank(rng: Rng, cfg: DecoderConfig, channels: int) -> SsmBankParams:
    """One bank of ``channels`` per direction: a_i = -(i + 1) on every
    channel; b, c uniform with s = 1/sqrt(N); delta log-uniform over
    [1e-3, 1e-1]."""
    k, n = len(cfg.directions), cfg.state_size
    a = np.broadcast_to(
        -np.arange(1.0, n + 1.0), (k, channels, n)
    ).copy()
    s = 1.0 / np.sqrt(n)
    b = rng.uniform(k * channels * n, -s, s).reshape(k, channels, n)
    c = rng.uniform(k * channels * n, -s, s).reshape(k, channels, n)
    delta = np.exp(
        rng.uniform(k * channels, np.log(1e-3), np.log(1e-1))
    ).reshape(k, channels)
    return SsmBankParams(a=a, b=b, c=c, delta=delta)


def init_hss_params(rng: Rng, cfg: DecoderConfig, channels: int) -> HssParams:
    """One hybrid-scan block at ``channels``, with cfg's expansion, scan
    method, directions and state size."""
    inner = channels * cfg.expansion
    return HssParams(
        channels=channels,
        expansion=cfg.expansion,
        method=cfg.scan_method,
        directions=tuple(cfg.directions),
        ln_pre_scale=np.ones(channels, dtype=np.float32),
        ln_pre_shift=np.zeros(channels, dtype=np.float32),
        in_weight=_draw(rng, (inner, channels), channels),
        in_bias=np.zeros(inner, dtype=np.float32),
        gate_weight=_draw(rng, (inner, channels), channels),
        gate_bias=np.zeros(inner, dtype=np.float32),
        dw_weight=_draw(rng, (inner, 3, 3), 9),
        dw_bias=np.zeros(inner, dtype=np.float32),
        bank=_init_bank(rng, cfg, inner),
        ln_post_scale=np.ones(inner, dtype=np.float32),
        ln_post_shift=np.zeros(inner, dtype=np.float32),
        out_weight=_draw(rng, (channels, inner), inner),
        out_bias=np.zeros(channels, dtype=np.float32),
    )


def _init_local_branch(rng: Rng, channels: int, kernel: int) -> LocalBranchParams:
    return LocalBranchParams(
        pre=init_conv_block(rng, channels, channels),
        dw_weight=_draw(rng, (channels, kernel, kernel), kernel * kernel),
        dw_bias=np.zeros(channels, dtype=np.float32),
        post=init_conv_block(rng, channels, channels),
    )


def init_block_params(
    rng: Rng, cfg: DecoderConfig, channels: int, hss_blocks: int
) -> LssParams:
    """One locality-enhanced module: a cascade of ``hss_blocks`` hybrid-scan
    blocks, then the local branches of cfg.local_kernels, then the fuse."""
    hss = tuple(init_hss_params(rng, cfg, channels) for _ in range(hss_blocks))
    k5, k7 = cfg.local_kernels
    return LssParams(
        hss=hss,
        local5=_init_local_branch(rng, channels, k5),
        local7=_init_local_branch(rng, channels, k7),
        fuse_weight=_draw(rng, (channels, 3 * channels), 3 * channels),
        fuse_bias=np.zeros(channels, dtype=np.float32),
    )


def init_decoder_params(
    cfg: DecoderConfig, pyramid_channels: tuple[int, int, int]
) -> DecoderParams:
    """All decoder weights from one SplitMix64 stream seeded by cfg.seed."""
    c1, c2, c3 = pyramid_channels
    stage_ch = cfg.resolved_channels(pyramid_channels)
    rng = Rng(cfg.seed)
    fuse = init_conv_block(rng, c1 + c2 + c3, c3)
    stages = tuple(
        tuple(init_block_params(rng, cfg, ch, m) for _ in range(depth))
        for depth, m, ch in zip(cfg.stage_depths, cfg.hss_per_stage, stage_ch)
    )
    adapters = (init_conv_block(rng, c3, c2), init_conv_block(rng, c2, c1))
    return DecoderParams(fuse=fuse, stages=stages, adapters=adapters)


# ---------------------------------------------------------------------------
# decoder


def _upsample2(x: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def decoder_forward(fused: Tensor, params: DecoderParams) -> FeaturePyramid:
    """Reconstruct a pyramid whose shapes mirror the encoder's."""
    if fused.ndim != 3:
        raise ValueError("fused input must be (C, H, W)")

    def run_stage(x: Tensor, stage: tuple[LssParams, ...]) -> Tensor:
        for module in stage:
            x = lss_forward(x, module)
        return x

    t = run_stage(fused, params.stages[0])
    t = run_stage(t, params.stages[1])
    deep = t
    t = Tensor(conv_block(_upsample2(t.array), params.adapters[0]))
    t = run_stage(t, params.stages[2])
    mid = t
    t = Tensor(conv_block(_upsample2(t.array), params.adapters[1]))
    t = run_stage(t, params.stages[3])
    shallow = t
    return FeaturePyramid(scales=(shallow, mid, deep))


# ---------------------------------------------------------------------------
# loss and scoring


def mse_loss(target: FeaturePyramid, recon: FeaturePyramid) -> float:
    """Sum over scales of the per-scale mean squared difference (float64)."""
    total = 0.0
    for t, r in zip(target.scales, recon.scales):
        if t.shape != r.shape:
            raise ValueError(f"scale shapes differ: {t.shape} vs {r.shape}")
        diff = t.array.astype(np.float64) - r.array.astype(np.float64)
        total += float(np.mean(diff * diff))
    return total


def _cosine_distance_map(e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-pixel 1 - cos(enc, dec) over channel vectors, with zero guards."""
    e64 = e.astype(np.float64)
    d64 = d.astype(np.float64)
    dot = (e64 * d64).sum(axis=0)
    ne = np.sqrt((e64 * e64).sum(axis=0))
    nd = np.sqrt((d64 * d64).sum(axis=0))
    ez = ne < ZERO_NORM_EPS
    dz = nd < ZERO_NORM_EPS
    denom = np.where(ez | dz, 1.0, ne * nd)
    cos = dot / denom
    cos = np.where(ez & dz, 1.0, cos)
    cos = np.where(ez ^ dz, 0.0, cos)
    return np.clip(1.0 - cos, 0.0, None)


def _gaussian_smooth(x: np.ndarray) -> np.ndarray:
    """Truncated, renormalised Gaussian; border weights renormalised too."""
    half = SMOOTH_KERNEL // 2
    steps = np.arange(SMOOTH_KERNEL) - half
    g = np.exp(-steps ** 2 / (2.0 * SMOOTH_SIGMA * SMOOTH_SIGMA))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    h, w = x.shape
    num = np.zeros((h, w), dtype=np.float64)
    mass = np.zeros((h, w), dtype=np.float64)
    for dy in range(-half, half + 1):
        ys = slice(max(0, dy), min(h, h + dy))
        yd = slice(max(0, -dy), min(h, h - dy))
        for dx in range(-half, half + 1):
            xs = slice(max(0, dx), min(w, w + dx))
            xd = slice(max(0, -dx), min(w, w - dx))
            wgt = kernel[dy + half, dx + half]
            num[yd, xd] += wgt * x[ys, xs]
            mass[yd, xd] += wgt
    return num / mass


def anomaly_map(
    target: FeaturePyramid,
    recon: FeaturePyramid,
    out_h: int | None = None,
    out_w: int | None = None,
) -> AnomalyScoreMap:
    """Sum of per-scale cosine-distance maps at a common resolution: each
    per-scale map is resized to the output resolution, then the maps are
    summed.  The output extents default to the top scale's, must be >= 1
    and may hold at most MAX_MAP_CELLS cells."""
    th, tw = target.top_resolution
    out_h = th if out_h is None else out_h
    out_w = tw if out_w is None else out_w
    for name, extent in (("out_h", out_h), ("out_w", out_w)):
        if extent < 1:
            raise ValueError(f"{name} must be >= 1, got {extent}")
    if out_h * out_w > MAX_MAP_CELLS:
        raise ValueError(
            f"map {out_h}x{out_w} has more than MAX_MAP_CELLS = {MAX_MAP_CELLS} cells"
        )
    total = np.zeros((out_h, out_w), dtype=np.float64)
    for t, r in zip(target.scales, recon.scales):
        if t.shape != r.shape:
            raise ValueError(f"scale shapes differ: {t.shape} vs {r.shape}")
        m = _cosine_distance_map(t.array, r.array)
        total += bilinear_resize(Tensor(m.astype(np.float32)), out_h, out_w).array

    total = np.clip(total, 0.0, None)
    smoothed = _gaussian_smooth(total)
    return AnomalyScoreMap(
        scores=total.astype(np.float32), image_score=float(smoothed.max())
    )


def pipeline_forward(
    p: FeaturePyramid,
    cfg: DecoderConfig,
    params: DecoderParams,
    out_h: int | None = None,
    out_w: int | None = None,
    workers: int = 1,
) -> tuple[float, AnomalyScoreMap]:
    """Fuse, decode and score.  ``cfg`` and ``workers`` are ignored; they
    stay for perfbench/workloads.py's ``pipeline_forward(pyr, cfg, params,
    workers=...)``."""
    recon = decoder_forward(hfpn_fuse(p, params.fuse), params)
    loss = mse_loss(p, recon)
    amap = anomaly_map(p, recon, out_h=out_h, out_w=out_w)
    return loss, amap


# ---------------------------------------------------------------------------
# parameter serialisation: a directory of MBT tensors plus a JSON manifest

# a tuple field's items are named by label and index, one label per level:
# stages[s][m] is stage{s}.lss{m}; a dataclass field adds its own name
_ITEM_LABELS = {"stages": ("stage", "lss"), "hss": ("hss",), "adapters": ("adapter",)}


def _map_tensors(node, fn, name: str = "", labels: tuple[str, ...] = ()):
    """Rebuild a parameter tree with each array replaced by fn(name, array),
    where a name such as ``stage0.lss1.hss0.bank.a`` is the array's path.
    Every dataclass is rebuilt through its constructor, so its checks run
    again; a failure is re-raised with the node's name."""
    if isinstance(node, np.ndarray):
        return fn(name, node)
    base = f"{name}." if name else ""
    if labels:
        return tuple(
            _map_tensors(item, fn, f"{base}{labels[0]}{i}", labels[1:])
            for i, item in enumerate(node)
        )
    if not is_dataclass(node):
        return node
    rebuilt = {}
    for f in fields(node):
        item_labels = _ITEM_LABELS.get(f.name, ())
        child = name if item_labels else base + f.name
        rebuilt[f.name] = _map_tensors(getattr(node, f.name), fn, child, item_labels)
    try:
        return type(node)(**rebuilt)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def save_decoder_params(directory, params: DecoderParams) -> None:
    """One MBT file per tensor, named after it; manifest.json maps each
    tensor name to its file and shape."""
    os.makedirs(directory, exist_ok=True)
    entries = {}

    def write(name: str, arr: np.ndarray) -> np.ndarray:
        fname = f"{name}.mbt"
        write_tensor_file(os.path.join(directory, fname), Tensor(arr))
        entries[name] = {"file": fname, "shape": list(arr.shape)}
        return arr

    _map_tensors(params, write)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump({"format": "mbt-dir/1", "tensors": entries}, fh, indent=2, sort_keys=True)


def load_decoder_params(
    directory, cfg: DecoderConfig, pyramid_channels: tuple[int, int, int]
) -> DecoderParams:
    """Rebuild DecoderParams from a directory saved under the same cfg and
    pyramid channels.  Each tensor of ``init_decoder_params(cfg,
    pyramid_channels)`` is replaced by the saved one of its name, which must
    have its shape and be finite; the manifest may name no other tensor.  A
    malformed manifest, a missing, extra, unreadable, misshapen or non-finite
    tensor, or an unstable bank raises ValueError naming it."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        try:
            manifest = json.load(fh)
        except RecursionError:
            raise ValueError("parameter manifest is nested too deeply") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "mbt-dir/1":
        raise ValueError("unrecognised parameter manifest")
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise ValueError("parameter manifest must map tensor names to entries")
    unread = dict(entries)

    def read(name: str, want: np.ndarray) -> np.ndarray:
        if name not in unread:
            raise ValueError(f"{name} is missing from the parameter manifest")
        entry = unread.pop(name)
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("file"), str)
            and isinstance(entry.get("shape"), list)
        ):
            raise ValueError(f"{name}: manifest entry must hold a file name and a shape list")
        try:
            t = read_tensor_file(os.path.join(directory, entry["file"]))
        except (MbtError, OSError) as exc:
            raise ValueError(f"{name}: cannot read {entry['file']}: {exc}") from None
        if list(t.shape) != entry["shape"]:
            raise ValueError(f"shape mismatch for {name}")
        if t.shape != want.shape:
            raise ValueError(f"{name} has shape {t.shape}, the config needs {want.shape}")
        if not np.isfinite(t.array).all():
            raise ValueError(f"{name} has non-finite values")
        return t.array

    params = _map_tensors(init_decoder_params(cfg, pyramid_channels), read)
    if unread:
        raise ValueError(f"{min(unread)} is in the parameter manifest but not in the config")
    return params
