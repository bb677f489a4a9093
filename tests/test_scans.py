"""Schedule generation tests.

The Hilbert construction is checked against an adjacency oracle rather than
literal matrices beyond the first two orders: a correct curve visits every
cell exactly once and every consecutive pair of cells must be 4-neighbors.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmad.scans import (
    MAX_GRID_CELLS,
    MAX_HILBERT_ORDER,
    NonSquareRotation,
    ScanDirection,
    ScanMethod,
    ScanSchedule,
    UnsupportedGeometry,
    _cached_schedule,
    base_schedule,
    hilbert_matrix,
    make_schedule,
)

METHODS = list(ScanMethod)
DIRECTIONS = list(ScanDirection)


def _assert_curve_valid(ranks):
    """Oracle: ranks form a bijection onto 1..n*n and consecutive ranks
    sit on 4-adjacent cells."""
    side = ranks.shape[0]
    flat_sorted = np.sort(ranks.reshape(-1))
    np.testing.assert_array_equal(flat_sorted, np.arange(1, side * side + 1))
    pos = {int(ranks[r, c]): (r, c) for r in range(side) for c in range(side)}
    for k in range(1, side * side):
        r0, c0 = pos[k]
        r1, c1 = pos[k + 1]
        assert abs(r0 - r1) + abs(c0 - c1) == 1, f"rank {k}->{k + 1} not adjacent"


def _block_hilbert(n):
    """Oracle: the order-n rank matrix built level by level with np.block
    from the module docstring's recursion, the form ``hilbert_matrix``
    replaced."""
    h = np.array([[1, 2], [4, 3]], dtype=np.int64)
    for m in range(1, n):
        q = 4**m
        e = np.ones_like(h)
        if m % 2 == 0:
            tr = q * e + h.T
            bl = (4 * q + 1) * e - h[::-1, :]
            br = (3 * q + 1) * e - h[:, ::-1].T
        else:
            tr = (4 * q + 1) * e - h[:, ::-1]
            bl = q * e + h.T
            br = (3 * q + 1) * e - h.T[:, ::-1]
        h = np.block([[h, tr], [bl, br]])
    return h


def _geometry_ok(method, h, w):
    if method is ScanMethod.HILBERT:
        return h == w and h >= 2 and (h & (h - 1)) == 0
    if method is ScanMethod.ZORDER:
        return (h & (h - 1)) == 0 and (w & (w - 1)) == 0
    return True


# ---------------------------------------------------------------- hilbert


def test_hilbert_base_case():
    np.testing.assert_array_equal(hilbert_matrix(1), [[1, 2], [4, 3]])


def test_hilbert_order_two():
    want = [
        [1, 2, 15, 16],
        [4, 3, 14, 13],
        [5, 8, 9, 12],
        [6, 7, 10, 11],
    ]
    np.testing.assert_array_equal(hilbert_matrix(2), want)


@pytest.mark.parametrize("n", range(1, 7))
def test_hilbert_validity(n):
    ranks = hilbert_matrix(n)
    assert ranks.shape == (2**n, 2**n)
    _assert_curve_valid(ranks)


@pytest.mark.parametrize("n", range(1, MAX_HILBERT_ORDER + 1))
def test_hilbert_matches_block_oracle(n):
    got = hilbert_matrix(n)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _block_hilbert(n))


def test_hilbert_order_bounds():
    with pytest.raises(ValueError):
        hilbert_matrix(0)
    with pytest.raises(ValueError):
        hilbert_matrix(MAX_HILBERT_ORDER + 1)


# --------------------------------------------------------- base schedules


def test_sweep_is_raster():
    s = base_schedule(ScanMethod.SWEEP, 2, 3)
    assert list(s.order) == [0, 1, 2, 3, 4, 5]


def test_scan_is_boustrophedon():
    s = base_schedule(ScanMethod.SCAN, 2, 3)
    assert list(s.order) == [0, 1, 2, 5, 4, 3]


def test_hilbert_two_by_two():
    s = base_schedule(ScanMethod.HILBERT, 2, 2)
    assert list(s.order) == [0, 1, 3, 2]


def test_zigzag_two_by_two():
    s = base_schedule(ScanMethod.ZIGZAG, 2, 2)
    assert list(s.order) == [0, 1, 2, 3]


def test_zigzag_three_by_three():
    # anti-diagonals, alternating direction, starting toward the top right
    s = base_schedule(ScanMethod.ZIGZAG, 3, 3)
    assert list(s.order) == [0, 1, 3, 6, 4, 2, 5, 7, 8]


def test_zorder_two_by_two():
    s = base_schedule(ScanMethod.ZORDER, 2, 2)
    assert list(s.order) == [0, 1, 2, 3]


def test_zorder_four_by_four_prefix():
    # Morton order with the row bit above the column bit: the first quad
    # is the 2x2 block at the origin
    s = base_schedule(ScanMethod.ZORDER, 4, 4)
    assert list(s.order[:4]) == [0, 1, 4, 5]


def test_hilbert_rejects_non_square():
    with pytest.raises(UnsupportedGeometry):
        base_schedule(ScanMethod.HILBERT, 2, 4)


def test_hilbert_rejects_non_power_of_two():
    with pytest.raises(UnsupportedGeometry):
        base_schedule(ScanMethod.HILBERT, 3, 3)


@pytest.mark.parametrize("h, w", [(1, MAX_GRID_CELLS + 1), (2049, 2048), (100_000, 100_000)])
@pytest.mark.parametrize("method", [ScanMethod.SWEEP, ScanMethod.ZIGZAG])
def test_schedule_refuses_too_many_cells_before_allocating(method, h, w):
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedGeometry, match="MAX_GRID_CELLS"):
            make_schedule(method, ScanDirection.WH_REVERSE, h, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "method, h, w",
    # the Hilbert order limit follows MAX_GRID_CELLS; 512 x 512 is order 9
    [(ScanMethod.SWEEP, 1, MAX_GRID_CELLS), (ScanMethod.HILBERT, 512, 512)],
)
def test_schedule_takes_the_largest_allowed_grid(method, h, w):
    assert base_schedule(method, h, w).order.size == h * w


@pytest.mark.parametrize("direction", list(ScanDirection))
def test_largest_hilbert_schedule_memory(direction):
    # order and inverse take 32 MB each at 2048 x 2048; building them,
    # rank matrix and the row/column mapping of transposing and rotating
    # directions included, may peak at five times the order
    side = 2048
    assert side * side == MAX_GRID_CELLS
    build = _cached_schedule.__wrapped__  # a cached schedule would cost nothing
    tracemalloc.start()
    try:
        s = build(ScanMethod.HILBERT, direction, side, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.order.size == side * side
    assert peak <= 5 * 8 * side * side


def test_zorder_rejects_non_power_of_two():
    with pytest.raises(UnsupportedGeometry):
        base_schedule(ScanMethod.ZORDER, 3, 2)


def test_schedule_validates_permutation():
    with pytest.raises(ValueError):
        ScanSchedule(2, 2, np.array([0, 1, 1, 3], dtype=np.int64))


# -------------------------------------------------------------- directions


def test_forward_is_identity():
    base = base_schedule(ScanMethod.SWEEP, 3, 5)
    out = make_schedule(ScanMethod.SWEEP, ScanDirection.FORWARD, 3, 5)
    np.testing.assert_array_equal(out.order, base.order)


def test_reverse_two_by_two():
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.REVERSE, 2, 2)
    assert list(s.order) == [3, 2, 1, 0]


def test_wh_is_column_major():
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.WH_FORWARD, 2, 2)
    assert list(s.order) == [0, 2, 1, 3]


def test_rot90_two_by_two():
    # raster visits (0,0),(0,1),(1,0),(1,1); clockwise rotation maps
    # (r,c) -> (c, h-1-r), so the visit list becomes [1,3,0,2]
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.ROT90_FORWARD, 2, 2)
    assert list(s.order) == [1, 3, 0, 2]


def test_sweep_reverse_row():
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.REVERSE, 1, 4)
    assert list(s.order) == [3, 2, 1, 0]


def test_rot90_rejects_non_square():
    with pytest.raises(NonSquareRotation):
        make_schedule(ScanMethod.SWEEP, ScanDirection.ROT90_FORWARD, 2, 3)


def test_wh_on_non_square_keeps_extents():
    # the directed schedule always addresses the requested grid; the wh
    # traversal of a 2x3 raster is plain column-major
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.WH_FORWARD, 2, 3)
    assert (s.height, s.width) == (2, 3)
    assert list(s.order) == [0, 3, 1, 4, 2, 5]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_schedule_is_permutation_with_inverse(method, direction, size):
    s = make_schedule(method, direction, size, size)
    assert sorted(s.order) == list(range(size * size))
    np.testing.assert_array_equal(s.inverse[s.order], np.arange(size * size))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_reverse_is_elementwise_reversal(method, size):
    fwd = make_schedule(method, ScanDirection.FORWARD, size, size)
    rev = make_schedule(method, ScanDirection.REVERSE, size, size)
    np.testing.assert_array_equal(rev.order, fwd.order[::-1])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_wh_twice_returns_base(method, size):
    # the wh schedule visits the transposed cells of the base schedule, so
    # transposing its visits once more gives the base back
    base = base_schedule(method, size, size)
    once = make_schedule(method, ScanDirection.WH_FORWARD, size, size)
    transpose = np.arange(size * size).reshape(size, size).T.reshape(-1)
    np.testing.assert_array_equal(transpose[base.order], once.order)
    np.testing.assert_array_equal(transpose[once.order], base.order)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("size", [2, 4, 8])
def test_rot90_four_times_returns_base(method, size):
    # the rot90 schedule visits the base cells turned clockwise, (r, c) ->
    # (c, size-1-r); three more turns of its visits give the base back
    s = base_schedule(method, size, size)
    once = make_schedule(method, ScanDirection.ROT90_FORWARD, size, size)
    r, c = np.divmod(np.arange(size * size), size)
    turn = c * size + (size - 1 - r)
    np.testing.assert_array_equal(turn[s.order], once.order)
    out = once.order
    for _ in range(3):
        out = turn[out]
    np.testing.assert_array_equal(out, s.order)


def test_non_square_geometry_where_permitted():
    for method in (ScanMethod.SWEEP, ScanMethod.SCAN, ScanMethod.ZIGZAG):
        for h, w in ((2, 5), (5, 2), (3, 4)):
            s = make_schedule(method, ScanDirection.WH_REVERSE, h, w)
            assert sorted(s.order) == list(range(h * w))
    s = make_schedule(ScanMethod.ZORDER, ScanDirection.REVERSE, 2, 8)
    assert sorted(s.order) == list(range(16))


# ----------------------------------------------------------------- inverse


def test_sweep_inverse_equals_order():
    s = base_schedule(ScanMethod.SWEEP, 2, 2)
    np.testing.assert_array_equal(s.inverse, s.order)


def test_inverse_known_self_inverses():
    s = base_schedule(ScanMethod.HILBERT, 2, 2)
    assert list(s.inverse) == [0, 1, 3, 2]
    r = make_schedule(ScanMethod.SWEEP, ScanDirection.REVERSE, 2, 2)
    assert list(r.inverse) == [3, 2, 1, 0]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_inverse_composes_to_identity(method, direction):
    s = make_schedule(method, direction, 4, 4)
    steps = np.arange(16)
    np.testing.assert_array_equal(s.order[s.inverse], steps)
    np.testing.assert_array_equal(s.inverse[s.order], steps)


# --------------------------------------------------------- gather/scatter
# these check the schedule's permutation pair under a plain np.take over
# order, then over inverse; the decoder's own gather and scatter in
# blocks.hss_forward are held by the hss tests in test_blocks.py


def test_gather_reverse_on_vector():
    x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    s = make_schedule(ScanMethod.SWEEP, ScanDirection.REVERSE, 1, 4)
    seq = np.take(x, s.order, axis=1)
    np.testing.assert_array_equal(seq, [[4.0, 3.0, 2.0, 1.0]])


@settings(max_examples=80, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    direction=st.sampled_from(DIRECTIONS),
    h=st.sampled_from([1, 2, 3, 4, 8]),
    w=st.sampled_from([1, 2, 3, 4, 8]),
    channels=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_gather_scatter_roundtrip_bitwise(method, direction, h, w, channels, seed):
    if not _geometry_ok(method, h, w):
        return
    if "rot90" in direction.value and h != w:
        return
    s = make_schedule(method, direction, h, w)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels, h * w)).astype(np.float32)
    back = np.take(np.take(x, s.order, axis=1), s.inverse, axis=1)
    assert back.tobytes() == x.tobytes()


def test_exhaustive_bijection_small_grids():
    # every supported combination up to 8x8
    for method in METHODS:
        for direction in DIRECTIONS:
            for h in range(1, 9):
                for w in range(1, 9):
                    if not _geometry_ok(method, h, w):
                        continue
                    if "rot90" in direction.value and h != w:
                        continue
                    s = make_schedule(method, direction, h, w)
                    assert sorted(s.order) == list(range(h * w))
