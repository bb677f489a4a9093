"""Grid-visit schedules: five scan curves crossed with eight directions.

A schedule is a permutation of the row-major cell indices of an h x w grid,
held in two views: ``order`` lists the cells in visit order and ``inverse``
gives each cell its step.  The decoder gathers a flattened feature map into a
sequence with ``np.take`` over ``order`` and scatters the per-step outputs
back onto the grid with ``np.take`` over ``inverse``.

Curve conventions (fixed so every schedule is reproducible):

  sweep    raster order, every row left to right
  scan     boustrophedon, odd rows traversed right to left
  zigzag   anti-diagonals d = r + c ascending; odd diagonals walk from the
           top-right end downwards, even diagonals from the bottom-left end
           upwards (the 8x8 special case is the classic transform-coding
           coefficient order)
  zorder   Morton order with the row bit above the column bit at each level;
           both extents must be powers of two
  hilbert  ranks of the order-n construction below; requires h = w = 2**n

The Hilbert ranks come from a matrix recursion rather than the usual
state-machine formulation.  With E the all-ones matrix, X^T the transpose,
X^ud the up-down flip, and X^lr the left-right flip:

  H(1) = [[1, 2],
          [4, 3]]

  building H(n+1) from H(n), q = 4**n:
    n even:  [[H,              q*E + H^T        ],
              [(4q+1)*E - H^ud, (3q+1)*E - (H^lr)^T]]
    n odd:   [[H,              (4q+1)*E - H^lr  ],
              [q*E + H^T,      (3q+1)*E - (H^T)^lr]]

Consecutive ranks are always 4-neighbours, which is checked by the tests up
to order 6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ScanMethod",
    "ScanDirection",
    "ScanSchedule",
    "UnsupportedGeometry",
    "NonSquareRotation",
    "hilbert_matrix",
    "base_schedule",
    "make_schedule",
]

# largest h * w a schedule may cover (a 2048 x 2048 grid); its order and
# inverse then take 64 MB, and larger extents are refused before any array
# is made
MAX_GRID_CELLS = 1 << 22
# largest curve order n whose 2**n x 2**n grid MAX_GRID_CELLS admits
MAX_HILBERT_ORDER = (MAX_GRID_CELLS.bit_length() - 1) // 2


class UnsupportedGeometry(ValueError):
    """Grid extents incompatible with the requested curve or direction."""


class NonSquareRotation(UnsupportedGeometry):
    """Rot90-family directions need a square grid."""


class ScanMethod(enum.Enum):
    SWEEP = "sweep"
    SCAN = "scan"
    ZORDER = "zorder"
    ZIGZAG = "zigzag"
    HILBERT = "hilbert"


class ScanDirection(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    WH_FORWARD = "wh-forward"
    WH_REVERSE = "wh-reverse"
    ROT90_FORWARD = "rot90-forward"
    ROT90_REVERSE = "rot90-reverse"
    WH_ROT90_FORWARD = "wh-rot90-forward"
    WH_ROT90_REVERSE = "wh-rot90-reverse"


# direction -> (transpose first, then rotate 90 degrees clockwise, then reverse)
_DIRECTION_PARTS = {
    ScanDirection.FORWARD: (False, False, False),
    ScanDirection.REVERSE: (False, False, True),
    ScanDirection.WH_FORWARD: (True, False, False),
    ScanDirection.WH_REVERSE: (True, False, True),
    ScanDirection.ROT90_FORWARD: (False, True, False),
    ScanDirection.ROT90_REVERSE: (False, True, True),
    ScanDirection.WH_ROT90_FORWARD: (True, True, False),
    ScanDirection.WH_ROT90_REVERSE: (True, True, True),
}


@dataclass(frozen=True)
class ScanSchedule:
    """Visit order over an h x w grid plus its inverse permutation.

    order[t] is the flat row-major cell index visited at step t;
    inverse[cell] is the step at which that cell is visited.
    """

    height: int
    width: int
    order: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise UnsupportedGeometry("grid extents must be >= 1")
        order = np.ascontiguousarray(self.order, dtype=np.int64)
        n = self.height * self.width
        if order.shape != (n,):
            raise ValueError(f"order must have length {n}, got {order.shape}")
        inverse = np.empty(n, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        if order.min() < 0 or order.max() >= n:
            raise ValueError("order entries outside the grid")
        seen[order] = True
        if not seen.all():
            raise ValueError("order is not a permutation")
        inverse[order] = np.arange(n, dtype=np.int64)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "inverse", inverse)


def hilbert_matrix(n: int) -> np.ndarray:
    """Rank matrix of the order-n curve on a 2**n square grid,
    1 <= n <= MAX_HILBERT_ORDER.

    Every level writes its three new quadrants straight into the final
    int64 array from views of the top-left block, H(m), so no level makes
    a temporary.
    """
    if not 1 <= n <= MAX_HILBERT_ORDER:
        raise UnsupportedGeometry(
            f"curve order must be in 1..{MAX_HILBERT_ORDER}, got {n}"
        )
    ranks = np.empty((2**n, 2**n), dtype=np.int64)
    ranks[:2, :2] = [[1, 2], [4, 3]]
    for m in range(1, n):
        q, s = 4**m, 2**m
        t = ranks[:s, :s]
        tr, bl, br = ranks[:s, s:2 * s], ranks[s:2 * s, :s], ranks[s:2 * s, s:2 * s]
        if m % 2 == 0:
            np.add(t.T, q, out=tr)
            np.subtract(4 * q + 1, t[::-1], out=bl)
            np.subtract(3 * q + 1, t[:, ::-1].T, out=br)
        else:
            np.subtract(4 * q + 1, t[:, ::-1], out=tr)
            np.add(t.T, q, out=bl)
            np.subtract(3 * q + 1, t.T[:, ::-1], out=br)
    return ranks


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def _morton_key(r: np.ndarray, c: np.ndarray, bits: int) -> np.ndarray:
    key = np.zeros_like(r)
    for i in range(bits):
        key |= ((c >> i) & 1) << (2 * i)
        key |= ((r >> i) & 1) << (2 * i + 1)
    return key


def base_schedule(method: ScanMethod, h: int, w: int) -> ScanSchedule:
    """Forward-direction schedule of the given curve on an h x w grid."""
    if h < 1 or w < 1:
        raise UnsupportedGeometry("grid extents must be >= 1")
    if h * w > MAX_GRID_CELLS:
        raise UnsupportedGeometry(
            f"grid {h}x{w} has more than MAX_GRID_CELLS = {MAX_GRID_CELLS} cells"
        )

    if method is ScanMethod.SWEEP:
        order = np.arange(h * w, dtype=np.int64)

    elif method is ScanMethod.SCAN:
        rows = np.arange(h * w, dtype=np.int64).reshape(h, w)
        rows[1::2] = rows[1::2, ::-1]
        order = rows.reshape(-1)

    elif method is ScanMethod.ZIGZAG:
        chunks = []
        for d in range(h + w - 1):
            r_lo = max(0, d - w + 1)
            r_hi = min(d, h - 1)
            rs = np.arange(r_lo, r_hi + 1, dtype=np.int64)
            if d % 2 == 0:
                rs = rs[::-1]
            chunks.append(rs * w + (d - rs))
        order = np.concatenate(chunks)

    elif method is ScanMethod.ZORDER:
        if not (_is_pow2(h) and _is_pow2(w)):
            raise UnsupportedGeometry(
                f"zorder requires power-of-two extents, got {h}x{w}"
            )
        cells = np.arange(h * w, dtype=np.int64)
        key = _morton_key(cells // w, cells % w, max(h, w).bit_length())
        order = cells[np.argsort(key, kind="stable")]

    elif method is ScanMethod.HILBERT:
        if h != w or not _is_pow2(h) or h < 2:
            raise UnsupportedGeometry(
                f"hilbert requires square power-of-two extents >= 2, got {h}x{w}"
            )
        ranks = hilbert_matrix(h.bit_length() - 1)
        # the ranks are a permutation of 1..h*w, so one scatter turns them
        # into the visit order
        order = np.empty(h * w, dtype=np.int64)
        order[ranks.reshape(-1) - 1] = np.arange(h * w, dtype=np.int64)

    else:  # pragma: no cover - closed enum
        raise ValueError(f"unknown method {method}")

    return ScanSchedule(height=h, width=w, order=order)


@lru_cache(maxsize=512)
def _cached_schedule(method: ScanMethod, direction: ScanDirection, h: int, w: int):
    transpose, rotate, reverse = _DIRECTION_PARTS[direction]
    # a transposing direction traverses the transposed geometry; every visit
    # is then mapped back into the caller's grid, so the result always
    # addresses an h x w map
    bh, bw = (w, h) if transpose else (h, w)
    order = base_schedule(method, bh, bw).order
    if transpose or rotate:
        if rotate and h != w:
            raise NonSquareRotation(
                f"rot90 directions need a square grid, got {h}x{w}"
            )
        # rows and columns are mapped in place, and the base order and the
        # columns are dropped once read, so at most three full-grid arrays
        # are alive at once
        r, c = np.divmod(order, bw)
        del order
        if transpose:
            r, c = c, r
        if rotate:
            np.subtract(h - 1, r, out=r)
            r, c = c, r
        np.multiply(r, w, out=r)
        r += c
        del c
        order = r
    if reverse:
        order = order[::-1]
    return ScanSchedule(height=h, width=w, order=order)


def make_schedule(
    method: ScanMethod, direction: ScanDirection, h: int, w: int
) -> ScanSchedule:
    """Directed schedule over an h x w grid; memoised since blocks reuse a
    handful of geometries.

    The returned schedule always addresses the requested extents:
    transposing directions traverse the transposed geometry but report
    visits as cells of the caller's grid.
    """
    return _cached_schedule(method, direction, h, w)
