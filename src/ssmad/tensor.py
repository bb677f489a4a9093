"""Dense float32 tensors, a portable RNG, and bit-exact file formats.

Everything downstream (scan schedules, SSM kernels, block forwards, metrics)
moves data through the two carrier types defined here: ``Tensor`` for
real-valued feature maps and sequences, ``BinaryMask`` for ground-truth
anomaly masks.  The file formats are pinned byte-for-byte so that fixtures
and outputs can be diffed across machines.

MBT container (``.mbt``), little-endian throughout::

    bytes 0..3   magic "MBT1"
    byte  4      format version, must be 1
    byte  5      dtype code, 0 = float32
    byte  6      number of axes, 1..4
    byte  7      reserved, must be 0
    next 8*ndim  extents as u64
    rest         row-major float32 payload

Masks are read from 8-bit binary PGM (P5, maxval 255); a pixel counts as
anomalous when its value is strictly greater than 127.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_AXES",
    "Tensor",
    "BinaryMask",
    "Rng",
    "MbtError",
    "BadMagic",
    "UnsupportedVersion",
    "UnsupportedDtype",
    "TruncatedPayload",
    "PgmError",
    "write_tensor",
    "read_tensor",
    "write_tensor_file",
    "read_tensor_file",
    "read_mask_pgm",
    "read_mask_pgm_file",
    "write_mask_pgm",
    "write_mask_pgm_file",
    "bilinear_resize",
]

MAX_AXES = 4

_MAGIC = b"MBT1"
_VERSION = 1
_DTYPE_F32 = 0


def _brief(value) -> str:
    """repr(value) for an error line: its first 24 characters plus "…" when
    it is longer, so untrusted input cannot flood the message."""
    text = repr(value)
    return text if len(text) <= 24 else text[:24] + "…"


class MbtError(ValueError):
    """Malformed MBT container."""


class BadMagic(MbtError):
    pass


class UnsupportedVersion(MbtError):
    pass


class UnsupportedDtype(MbtError):
    pass


class TruncatedPayload(MbtError):
    """Payload shorter (or longer) than the header-declared element count."""


class PgmError(ValueError):
    """Malformed or unsupported PGM mask file."""


class Tensor:
    """Row-major float32 array with 1 to 4 axes, every extent >= 1.

    The wrapped ndarray, ``array``, is C-contiguous float32.
    """

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        arr = np.ascontiguousarray(array, dtype=np.float32)
        if arr.ndim < 1 or arr.ndim > MAX_AXES:
            raise ValueError(f"tensor must have 1..{MAX_AXES} axes, got {arr.ndim}")
        if any(e < 1 for e in arr.shape):
            raise ValueError(f"tensor extents must be >= 1, got {arr.shape}")
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass(frozen=True)
class BinaryMask:
    """Two-dimensional 0/1 mask backed by uint8."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError("mask must be two-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("mask extents must be >= 1")
        # before the cast, which would truncate 0.5 to 0 and wrap 256 to 0
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "bits", np.ascontiguousarray(arr, dtype=np.uint8))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def positives(self) -> int:
        return int(self.bits.sum())


# ---------------------------------------------------------------------------
# deterministic RNG

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """SplitMix64 stream; identical output on every platform for a seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53 high bits -> double in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        """n doubles in [lo, hi), consumed left to right from the stream.

        The same values as n calls of ``next_float``, computed at once: the
        k-th state is state + k * gamma, and uint64 arithmetic wraps modulo
        2**64 just as the scalar form's masks do."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if not lo < hi:
            raise ValueError("need lo < hi")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return lo + (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 * (hi - lo)


# ---------------------------------------------------------------------------
# MBT container


def write_tensor(t: Tensor) -> bytes:
    header = _MAGIC + bytes([_VERSION, _DTYPE_F32, t.ndim, 0])
    dims = b"".join(struct.pack("<Q", e) for e in t.shape)
    payload = np.ascontiguousarray(t.array, dtype="<f4").tobytes()
    return header + dims + payload


def read_tensor(buf: bytes) -> Tensor:
    if buf[:4] != _MAGIC:
        raise BadMagic(f"bad magic {buf[:4]!r}, expected {_MAGIC!r}")
    if len(buf) < 8:
        raise TruncatedPayload("buffer shorter than the fixed header")
    version, dtype, ndim, reserved = buf[4], buf[5], buf[6], buf[7]
    if version != _VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    if dtype != _DTYPE_F32:
        raise UnsupportedDtype(f"dtype code {dtype} not supported")
    if not 1 <= ndim <= MAX_AXES:
        raise MbtError(f"axis count {ndim} outside 1..{MAX_AXES}")
    if reserved != 0:
        raise MbtError("reserved header byte must be 0")
    need = 8 + 8 * ndim
    if len(buf) < need:
        raise TruncatedPayload("header truncated before extents")
    shape = struct.unpack_from(f"<{ndim}Q", buf, 8)
    if any(e < 1 for e in shape):
        raise MbtError(f"extents must be >= 1, got {shape}")
    count = 1
    for e in shape:
        count *= e
    payload = buf[need:]
    if len(payload) != 4 * count:
        raise TruncatedPayload(
            f"payload holds {len(payload) // 4} float32 values, header declares {count}"
        )
    arr = np.frombuffer(payload, dtype="<f4", count=count).reshape(shape)
    return Tensor(arr.astype(np.float32))


def write_tensor_file(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        fh.write(write_tensor(t))


def read_tensor_file(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_tensor(fh.read())


# ---------------------------------------------------------------------------
# PGM masks


def _pgm_tokens(buf: bytes):
    """Header tokens: whitespace separated, '#' starts a comment to EOL."""
    i = 0
    n = len(buf)
    while True:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] not in (0x0A, 0x0D):
                i += 1
            continue
        if i >= n:
            raise PgmError("unexpected end of header")
        start = i
        while i < n and not buf[i : i + 1].isspace() and buf[i] != ord("#"):
            i += 1
        yield buf[start:i].decode("ascii", "replace"), i


def read_mask_pgm(buf: bytes) -> BinaryMask:
    toks = _pgm_tokens(buf)
    magic, _ = next(toks)
    if magic != "P5":
        raise PgmError(f"expected binary PGM magic P5, got {_brief(magic)}")
    fields = []
    end = 0
    for _ in range(3):
        tok, end = next(toks)
        try:
            # int() alone would also take "+5" and "1_6"
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError
            fields.append(int(tok))
        except ValueError:  # also a number too long for int() to convert
            raise PgmError(f"non-numeric header field {_brief(tok)}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError("image extents must be >= 1")
    if maxval != 255:
        raise PgmError(f"only maxval 255 is supported, got {maxval}")
    # exactly one whitespace byte separates the header from the raster
    payload = buf[end + 1 :]
    if len(payload) != width * height:
        raise PgmError(
            f"raster holds {len(payload)} bytes, header declares {width * height}"
        )
    gray = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return BinaryMask((gray > 127).astype(np.uint8))


def read_mask_pgm_file(path) -> BinaryMask:
    with open(path, "rb") as fh:
        return read_mask_pgm(fh.read())


def write_mask_pgm(mask: BinaryMask) -> bytes:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    return header + (mask.bits * np.uint8(255)).tobytes()


def write_mask_pgm_file(path, mask: BinaryMask) -> None:
    with open(path, "wb") as fh:
        fh.write(write_mask_pgm(mask))


# ---------------------------------------------------------------------------
# resampling


def bilinear_resize(t: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize a 2-D tensor with half-pixel-centre sampling and edge clamping.

    Source coordinate of output column j is (j + 0.5) * w_in / w_out - 0.5
    (likewise for rows), so resizing to the same extents is the identity.
    """
    if t.ndim != 2:
        raise ValueError(f"bilinear_resize expects 2 axes, got {t.ndim}")
    if out_h < 1 or out_w < 1:
        raise ValueError("output extents must be >= 1")
    src = t.array.astype(np.float64)
    h, w = src.shape

    sy = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None]
    wx = (sx - x0)[None, :]

    out = (
        src[np.ix_(y0, x0)] * (1.0 - wy) * (1.0 - wx)
        + src[np.ix_(y0, x1)] * (1.0 - wy) * wx
        + src[np.ix_(y1, x0)] * wy * (1.0 - wx)
        + src[np.ix_(y1, x1)] * wy * wx
    )
    return Tensor(out.astype(np.float32))
