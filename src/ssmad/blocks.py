"""Forward-only building blocks: ConvB, the hybrid-scan SSM block, and the
locality-enhanced module that wraps it.

Shapes are channel-first throughout: feature maps are (C, H, W), sequences
(C, L).  There is no autodiff here; parameters are plain numpy arrays held
in frozen dataclasses.

ConvB is Conv2D (same padding, stride 1) -> per-channel instance norm
(eps = 1e-5, biased variance) -> SiLU.

The hybrid-scan block (``hss_forward``) runs, from input G:
    u     = LN(G)                          channel-axis layer norm, shared
    main  = SiLU(DWConv3x3(Linear_in(u)))  expansion C -> E*C
    scans = sum over directions d of
              scatter_d(per-channel SSM scan(gather_d(main)))
    out   = Linear_out(LN(scans) * SiLU(Linear_gate(u))) + G

Each direction owns an independent bank of E*C single-channel SSMs.  The K
directions are stacked into one bank of K*E*C channels: the K gathers fill
one float64 (K*E*C, L) buffer, which a single ``ssm_bank_scan`` call scans
without a cast or padded copy, and each direction's slice is taken back
onto the grid through one reused buffer and added in the fixed direction
order.  A direction and its reverse visit the same cells in opposite
orders, so only the first of such a pair is gathered with ``np.take``; the
second is the first's rows read backwards, a mirrored copy.  No threads
are used, so every output byte depends only on the parameters and the
input.

SiLU, layer norm and instance norm each update one float32 working array in
place, the dtype of the maps they read and write; the two norms sum their
means and variances in float64 and form the squares in float64 (see
``_normalise``).  The bank's sequence, its scan and the sum over
directions stay float64.

A bank's discretised a_bar, b_bar and c do not change along the sequence,
so ``ssm_bank_scan`` (in ``ssm``) evaluates it in the chunked form of
Mamba-2's state-space dual; see the ``ssm`` module docstring.

The locality-enhanced module (``lss_forward``) is a cascade of M hybrid-scan
blocks in parallel with two local branches
    ConvB_1x1 -> depthwise k x k -> ConvB_1x1     for k = 5 and k = 7,
fused by a plain 1x1 convolution over the concatenation (3C -> C) plus a
residual connection.

Every convolution is a plain matmul.  A 1x1 layer (``pointwise_conv``, and
every ConvB, whose weights are (out, in, 1, 1)) is one (out, in) @ (in, H*W)
product.  The depthwise k x k layer (``dwconv2d``) first copies the
zero-padded taps, in one copy from a strided view of the padded map, into
contiguous (C, k*k, H*W) columns and multiplies each channel's k*k weights
by its own columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scans import _DIRECTION_PARTS, ScanDirection, ScanMethod, make_schedule
from .ssm import ssm_bank_scan
from .tensor import Tensor

__all__ = [
    "LN_EPS",
    "IN_EPS",
    "ALLOWED_DIRECTION_COUNTS",
    "ConvBParams",
    "SsmBankParams",
    "HssParams",
    "LocalBranchParams",
    "LssParams",
    "silu",
    "layer_norm",
    "instance_norm",
    "dwconv2d",
    "pointwise_conv",
    "conv_block",
    "hss_forward",
    "lss_forward",
]

LN_EPS = 1e-5
IN_EPS = 1e-5

# single-direction configs are allowed for ablation; multi-direction sets
# come in the symmetric sizes
ALLOWED_DIRECTION_COUNTS = (1, 2, 4, 8)


def _check_directions(directions) -> None:
    """Raise ValueError unless ``directions`` are distinct and of an allowed
    count; ``DecoderConfig`` calls it too, to reject a bad config early."""
    k = len(directions)
    if k not in ALLOWED_DIRECTION_COUNTS:
        raise ValueError(
            f"direction count must be one of {ALLOWED_DIRECTION_COUNTS}, got {k}"
        )
    if len(set(directions)) != k:
        raise ValueError("directions must be distinct")


@dataclass(frozen=True)
class ConvBParams:
    """1x1 conv weights (out, in, 1, 1) + bias, and instance-norm scale/shift."""

    weight: np.ndarray
    bias: np.ndarray
    norm_scale: np.ndarray
    norm_shift: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weight, dtype=np.float32)
        if w.ndim != 4 or w.shape[2:] != (1, 1):
            raise ValueError("conv weight must be (out, in, 1, 1)")
        object.__setattr__(self, "weight", w)
        out = w.shape[0]
        for name in ("bias", "norm_scale", "norm_shift"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if arr.shape != (out,):
                raise ValueError(f"{name} must have shape ({out},)")
            object.__setattr__(self, name, arr)

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class SsmBankParams:
    """Per-direction banks of single-channel SSMs.

    a, b, c have shape (K, C, N); delta has shape (K, C).  Direction k uses
    row k; within a direction each channel owns an independent system.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        # float32 at rest so serialization through the tensor container is
        # lossless; the scan casts to float64 before any arithmetic
        for name in ("a", "b", "c"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if arr.ndim != 3:
                raise ValueError(f"{name} must have shape (K, C, N)")
            if not np.isfinite(arr).all():
                raise ValueError(f"bank {name} has non-finite values")
            object.__setattr__(self, name, arr)
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise ValueError("a, b, c must share a shape")
        # a >= 0 gives a_bar = exp(delta * a) >= 1: a recurrence that never decays
        if not (self.a < 0).all():
            raise ValueError("bank a entries must be negative for a stable scan")
        d = np.ascontiguousarray(self.delta, dtype=np.float32)
        if d.shape != self.a.shape[:2]:
            raise ValueError("delta must have shape (K, C)")
        if not (np.isfinite(d) & (d > 0)).all():
            raise ValueError("delta entries must be finite and positive")
        object.__setattr__(self, "delta", d)

    @property
    def directions(self) -> int:
        return self.a.shape[0]

    @property
    def channels(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class HssParams:
    """Everything one hybrid-scan block needs; channels C, expansion E."""

    channels: int
    expansion: int
    method: ScanMethod
    directions: tuple[ScanDirection, ...]
    ln_pre_scale: np.ndarray
    ln_pre_shift: np.ndarray
    in_weight: np.ndarray      # (E*C, C)
    in_bias: np.ndarray
    gate_weight: np.ndarray    # (E*C, C)
    gate_bias: np.ndarray
    dw_weight: np.ndarray      # (E*C, 3, 3)
    dw_bias: np.ndarray
    bank: SsmBankParams        # K banks of E*C channels
    ln_post_scale: np.ndarray
    ln_post_shift: np.ndarray
    out_weight: np.ndarray     # (C, E*C)
    out_bias: np.ndarray

    def __post_init__(self) -> None:
        if self.channels < 1 or self.expansion < 1:
            raise ValueError("channels and expansion must be >= 1")
        _check_directions(self.directions)
        inner = self.channels * self.expansion
        shapes = {
            "ln_pre_scale": (self.channels,),
            "ln_pre_shift": (self.channels,),
            "in_weight": (inner, self.channels),
            "in_bias": (inner,),
            "gate_weight": (inner, self.channels),
            "gate_bias": (inner,),
            "dw_weight": (inner, 3, 3),
            "dw_bias": (inner,),
            "ln_post_scale": (inner,),
            "ln_post_shift": (inner,),
            "out_weight": (self.channels, inner),
            "out_bias": (self.channels,),
        }
        for name, want in shapes.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.bank.directions != len(self.directions) or self.bank.channels != inner:
            raise ValueError("bank shape does not match directions/expansion")

    @property
    def inner_channels(self) -> int:
        return self.channels * self.expansion


@dataclass(frozen=True)
class LocalBranchParams:
    """ConvB 1x1 -> depthwise k x k -> ConvB 1x1, all at C channels."""

    pre: ConvBParams
    dw_weight: np.ndarray
    dw_bias: np.ndarray
    post: ConvBParams

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.dw_weight, dtype=np.float32)
        if w.ndim != 3 or w.shape[1] != w.shape[2] or w.shape[1] % 2 == 0:
            raise ValueError("depthwise weight must be (C, k, k) with odd k")
        b = np.ascontiguousarray(self.dw_bias, dtype=np.float32)
        if b.shape != (w.shape[0],):
            raise ValueError("depthwise bias must have shape (C,)")
        object.__setattr__(self, "dw_weight", w)
        object.__setattr__(self, "dw_bias", b)


@dataclass(frozen=True)
class LssParams:
    """Cascade of hybrid-scan blocks plus two local branches and the fuse."""

    hss: tuple[HssParams, ...]
    local5: LocalBranchParams
    local7: LocalBranchParams
    fuse_weight: np.ndarray   # (C, 3C)
    fuse_bias: np.ndarray

    def __post_init__(self) -> None:
        if not self.hss:
            raise ValueError("need at least one hybrid-scan block")
        c = self.hss[0].channels
        if any(h.channels != c for h in self.hss):
            raise ValueError("all blocks in a cascade must share channels")
        w = np.ascontiguousarray(self.fuse_weight, dtype=np.float32)
        if w.shape != (c, 3 * c):
            raise ValueError(f"fuse weight must be ({c}, {3 * c})")
        b = np.ascontiguousarray(self.fuse_bias, dtype=np.float32)
        if b.shape != (c,):
            raise ValueError("fuse bias must have shape (C,)")
        object.__setattr__(self, "fuse_weight", w)
        object.__setattr__(self, "fuse_bias", b)

    @property
    def channels(self) -> int:
        return self.hss[0].channels


# ---------------------------------------------------------------------------
# primitives


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) = x / (1 + exp(-x)) in one float32 working array.

    Where exp(-x) overflows float32 (x below about -88.7) the quotient is
    x / inf = -0.0; silu's magnitude there is below 3e-37.
    """
    t = np.negative(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t, dtype=np.float32)


def _normalise(
    x: np.ndarray, axes: tuple[int, ...], scale: np.ndarray, shift: np.ndarray,
    eps: float,
) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * scale + shift over ``axes`` in one
    float32 working array, scale and shift per channel (axis 0).

    Mean and biased variance are float64 sums / n.  The data are centred
    in float32 on the mean's float32 rounding and then on its rounding
    residual, so a mean far from zero costs no more than a float32 step of
    the centred values; their squares are formed and summed in float64,
    so they cannot overflow.

    The working array holds x / 2 - mean / 2, which stays in float32's
    range however widely x is spread, and is divided by
    sqrt(var / 4 + eps / 4).  Halving is exact above float32's smallest
    normal, so the output bytes are those of the unhalved form there;
    below it, it moves a value by at most 2^-150, which moves the output
    by less than 5e-43.
    """
    n = math.prod(x.shape[a] for a in axes)
    half_mean = x.sum(axis=axes, keepdims=True, dtype=np.float64) / (2 * n)
    half_mean32 = half_mean.astype(np.float32)
    z = np.multiply(x, np.float32(0.5), dtype=np.float32)
    z -= half_mean32
    z -= (half_mean - half_mean32).astype(np.float32)
    quarter_var = np.square(z, dtype=np.float64).sum(axis=axes, keepdims=True) / n
    z /= np.sqrt(quarter_var + 0.25 * eps).astype(np.float32)
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    z *= scale.reshape(per_channel)
    z += shift.reshape(per_channel)
    return z


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalise over the channel axis at each spatial position."""
    return _normalise(x, (0,), scale, shift, LN_EPS)


def instance_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalise each channel over its spatial extent (biased variance)."""
    return _normalise(x, (1, 2), scale, shift, IN_EPS)


def _columns(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-padded k x k taps laid out contiguously: (C, H, W) -> (C, k*k, H*W).

    Row i*k + j of channel c holds tap (i, j) of every output position, so a
    convolution is one matmul of the flattened kernel against these rows.
    """
    c, h, w = x.shape
    pad = k // 2
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, pad:pad + h, pad:pad + w] = x
    # taps[c, i, j] is the h x w window of padded at offset (i, j): one view,
    # copied into the columns at once
    s0, s1, s2 = padded.strides
    taps = np.ndarray((c, k, k, h, w), x.dtype, padded, 0, (s0, s1, s2, s1, s2))
    cols = np.empty((c, k * k, h * w), dtype=x.dtype)
    cols.reshape(c, k, k, h, w)[...] = taps
    return cols


def _check_kernel(x: np.ndarray, weight: np.ndarray) -> int:
    """Return k for a depthwise weight (C, k, k), k odd, whose C matches the
    channels of the (C, H, W) input."""
    if (x.ndim != 3 or weight.ndim != 3 or weight.shape[1] != weight.shape[2]
            or weight.shape[1] % 2 == 0 or weight.shape[0] != x.shape[0]):
        raise ValueError(
            f"kernel {weight.shape} must be odd and square with {x.shape[0]} "
            f"input channels to convolve input {x.shape}"
        )
    return weight.shape[-1]


def dwconv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Depthwise same-padding convolution, weight (C, k, k): per channel, the
    k*k weights times that channel's tap columns."""
    k = _check_kernel(x, weight)
    c, h, w = x.shape
    out = weight.reshape(c, 1, k * k) @ _columns(x, k) + bias[:, None, None]
    return out.reshape(c, h, w).astype(np.float32, copy=False)


def pointwise_conv(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution, weight (out, in): one matmul over the flattened map."""
    if x.ndim != 3 or weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ValueError(f"pointwise weight {weight.shape} does not match input {x.shape}")
    c, h, w = x.shape
    out = weight @ x.reshape(c, h * w) + bias[:, None]
    return out.reshape(-1, h, w).astype(np.float32, copy=False)


def conv_block(x: np.ndarray, p: ConvBParams) -> np.ndarray:
    """SiLU(InstanceNorm(Conv1x1(x)))."""
    conv = pointwise_conv(x, p.weight.reshape(p.out_channels, p.in_channels), p.bias)
    return silu(instance_norm(conv, p.norm_scale, p.norm_shift))


# ---------------------------------------------------------------------------
# block forwards


def hss_forward(g: Tensor, p: HssParams, workers: int = 1) -> Tensor:
    """One hybrid-scan block; see the module docstring for the dataflow.

    ``workers`` is ignored, as the K directions run as one bank call; it
    stays for perfbench/run.py's ``hss_forward(x, hp, workers=...)``.
    """
    if g.ndim != 3 or g.shape[0] != p.channels:
        raise ValueError(f"expected ({p.channels}, H, W) input, got {g.shape}")
    x = g.array
    _, h, w = x.shape

    u = layer_norm(x, p.ln_pre_scale, p.ln_pre_shift)
    main = pointwise_conv(u, p.in_weight, p.in_bias)
    main = silu(dwconv2d(main, p.dw_weight, p.dw_bias))
    inner = p.inner_channels
    main64 = main.reshape(inner, h * w).astype(np.float64)

    # row k * inner + c of the stacked bank and sequence is channel c of
    # direction k; every order is a permutation of range(h * w), so "clip"
    # never clips and lets np.take write straight into its out.  A reverse
    # direction visits its forward partner's order backwards, so the later
    # of the two is the earlier one's block read backwards.
    rows = len(p.directions) * inner
    scheds = [make_schedule(p.method, d, h, w) for d in p.directions]
    seq = np.empty((rows, h * w), dtype=np.float64)
    gathered = {}  # (transpose, rotate) -> the block gathered along them
    for k, (d, s) in enumerate(zip(p.directions, scheds)):
        block = seq[k * inner:(k + 1) * inner]
        key = _DIRECTION_PARTS[d][:2]
        if key in gathered:
            block[...] = gathered[key][:, ::-1]
        else:
            np.take(main64, s.order, axis=1, out=block, mode="clip")
            gathered[key] = block
    y = ssm_bank_scan(
        p.bank.a.reshape(rows, -1),
        p.bank.b.reshape(rows, -1),
        p.bank.c.reshape(rows, -1),
        p.bank.delta.reshape(rows),
        seq,
    )
    acc = np.zeros((inner, h * w), dtype=np.float64)
    part = main64  # the gathers are done; its buffer takes each direction
    for k, s in enumerate(scheds):  # fixed summation order
        np.take(y[k * inner:(k + 1) * inner], s.inverse, axis=1, out=part, mode="clip")
        acc += part
    scans = acc.astype(np.float32).reshape(inner, h, w)

    normed = layer_norm(scans, p.ln_post_scale, p.ln_post_shift)
    gate = silu(pointwise_conv(u, p.gate_weight, p.gate_bias))
    out = pointwise_conv(normed * gate, p.out_weight, p.out_bias)
    return Tensor(out + x)


def _local_branch(x: np.ndarray, p: LocalBranchParams) -> np.ndarray:
    t = conv_block(x, p.pre)
    t = dwconv2d(t, p.dw_weight, p.dw_bias)
    return conv_block(t, p.post)


def lss_forward(x: Tensor, p: LssParams) -> Tensor:
    """Cascade + local branches + 1x1 fuse + residual."""
    if x.ndim != 3 or x.shape[0] != p.channels:
        raise ValueError(f"expected ({p.channels}, H, W) input, got {x.shape}")
    g = x
    for hp in p.hss:
        g = hss_forward(g, hp)
    l5 = _local_branch(x.array, p.local5)
    l7 = _local_branch(x.array, p.local7)
    cat = np.concatenate([g.array, l5, l7], axis=0)
    fused = pointwise_conv(cat, p.fuse_weight, p.fuse_bias)
    return Tensor(fused + x.array)

