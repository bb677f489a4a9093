"""Evaluation protocol: seven metrics over image scores and pixel maps.

Scores are real-valued, higher meaning more anomalous; labels are 0/1.
Threshold semantics everywhere: a sample is predicted positive when its
score is greater than or equal to the threshold, and tied scores move
across a threshold together.

  auroc              trapezoidal ROC area with tie groups collapsed; equals
                     P(s+ > s-) + 0.5 P(s+ = s-)
  average_precision  step interpolation sum_k (R_k - R_{k-1}) P_k over
                     descending unique thresholds
  f1_max             best F1 over all thresholds drawn from the score set
  aupro              per-region overlap averaged over all 8-connected
                     ground-truth regions, swept against the pooled
                     false-positive rate, trapezoid-integrated up to
                     fpr_limit and normalised by it; the overlap sum is
                     exact hit counts grouped by region size, so a
                     perfect detector scores exactly 1
  mad                mean of the seven protocol values

Image-level metrics take one score per image; pixel-level metrics pool
every pixel of every map.  float32 scores are sorted as float32, and all
accumulation is float64.

Every threshold sweep reads integer cumulative counts at the end of each
tie group of one descending sort.  A LabeledScores holds read-only arrays
and sorts itself at most once, so auroc, average_precision, f1_max and
aupro on the same scores share one sweep; evaluate sorts the pooled pixels
once for all four.  The sort is of the values alone: no permutation is
built, and a count per tie group places the scores it counts (the
positives, or the pixels of one region size) among the distinct values by
binary search.  Ground-truth regions are labelled by row runs: each run
of foreground pixels takes the smallest run number in its region by
min-label propagation over 8-adjacent run pairs with pointer jumping, and
its pixels take the run's label.

The sweep and the metrics' temporaries live in five rows of n + 1 float64
values, cut from one block made by the sort of n scores in g tie groups.
The metrics of one evaluate reuse its pages instead of each allocating,
freeing and faulting in arrays of their own:

  tp        0, then the cumulative true positives at each tie-group end; kept
  fpr       0, then the false-positive rate (ends + 1 - tp) / negatives at
            each end; kept, and shared by auroc and aupro
  distinct  the g distinct scores negated, ascending, so that tie group k
            holds the scores equal to -distinct[k]; kept
  work      scratch: the sort of the negated scores, in a view of the row
            in their own dtype; tpr, recall then precision, or 2 tp;
            aupro's overlap curve, 0 first; each trapezoid's widths
  sums      scratch: each metric's terms before their sum; aupro's hit
            counts per tie group

Each value has the bytes of the plain formula on fresh arrays: counts are
exact integers in float64, and _trapezoid repeats np.trapezoid's
operations in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import BinaryMask, Tensor

__all__ = [
    "LabeledScores",
    "RegionSet",
    "MetricsReport",
    "MetricPreconditionError",
    "DEFAULT_FPR_LIMIT",
    "auroc",
    "average_precision",
    "f1_max",
    "connected_components",
    "aupro",
    "mad",
    "evaluate",
]

DEFAULT_FPR_LIMIT = 0.3


class MetricPreconditionError(ValueError):
    """Input set cannot support the requested metric (e.g. single class)."""


def _read_only(given, dtype) -> np.ndarray:
    """``given`` as a contiguous read-only array.  A writeable caller array
    is copied rather than frozen in place; one the caller already made
    read-only is kept as it is."""
    arr = np.ascontiguousarray(given, dtype=dtype)
    if arr.flags.writeable and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


# rows of the block _tie_groups makes, and the float64 values in a 4 KiB page
_TP, _FPR, _DISTINCT, _WORK, _SUMS = range(5)
_PAGE = 512


@dataclass(frozen=True)
class LabeledScores:
    """Parallel read-only vectors of scores and 0/1 labels.

    The metrics of one instance share its sort and the rows of its one
    scratch block (see the module docstring).  The rows are shared
    scratch, so one instance must not be used from two threads at once."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        f32 = np.asarray(self.scores).dtype == np.float32  # sorted as float32
        s = _read_only(self.scores, np.float32 if f32 else np.float64)
        l = np.asarray(self.labels)
        if s.ndim != 1 or l.ndim != 1 or s.size != l.size or s.size < 1:
            raise ValueError("scores and labels must be equal-length vectors")
        if not np.isfinite(s).all():
            raise ValueError("scores must be finite")
        # before the cast, which would truncate 0.7 to 0
        if not np.all((l == 0) | (l == 1)):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", _read_only(l, np.int64))

    @cached_property
    def _tie_order(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The block's rows and the tie-group ends: the one sort of these
        scores."""
        return _tie_groups(self.scores)

    @cached_property
    def _tie_counts(self) -> np.ndarray:
        """The tp row: 0, then the cumulative true positives after each
        descending tie group.  The arrays it is computed from cannot change,
        so the one sweep serves every metric of these scores."""
        g = self._tie_order[1].size
        tp = self._row(_TP, g + 1)
        tp[0] = 0.0
        _group_counts(self._row(_DISTINCT, g), self.scores[self.labels == 1], tp[1:])
        tp.flags.writeable = False
        return tp

    @cached_property
    def _fpr(self) -> np.ndarray:
        """The fpr row: 0, then false positives over negatives after each
        tie group.  Callers check that negatives is not 0."""
        ends, tp = self._tie_order[1], self._tie_counts
        fpr = self._row(_FPR, tp.size)
        fpr[0] = 0.0
        fp = fpr[1:]
        np.add(ends, 1.0, out=fp)
        fp -= tp[1:]
        fp /= self.negatives
        fpr.flags.writeable = False
        return fpr

    def _row(self, row: int, size: int) -> np.ndarray:
        """The first ``size`` values of one row of the block."""
        return self._tie_order[0][row][:size]

    @cached_property
    def positives(self) -> int:
        return int(np.count_nonzero(self.labels))

    @cached_property
    def negatives(self) -> int:
        return self.labels.size - self.positives


@dataclass(frozen=True)
class RegionSet:
    """8-connected regions of one mask, as flat row-major pixel indices."""

    height: int
    width: int
    regions: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MetricsReport:
    image_auroc: float
    image_ap: float
    image_f1_max: float
    pixel_auroc: float
    pixel_ap: float
    pixel_f1_max: float
    pixel_aupro: float

    def values(self) -> tuple[float, ...]:
        return (
            self.image_auroc,
            self.image_ap,
            self.image_f1_max,
            self.pixel_auroc,
            self.pixel_ap,
            self.pixel_f1_max,
            self.pixel_aupro,
        )

    def mad(self) -> float:
        return mad(self.values())

    def to_json(self) -> str:
        """Six-decimal serialisation: every value rounded to 6 places."""
        payload = {
            "image": {
                "auroc": round(self.image_auroc, 6),
                "ap": round(self.image_ap, 6),
                "f1_max": round(self.image_f1_max, 6),
            },
            "pixel": {
                "auroc": round(self.pixel_auroc, 6),
                "ap": round(self.pixel_ap, 6),
                "f1_max": round(self.pixel_f1_max, 6),
                "aupro": round(self.pixel_aupro, 6),
            },
            "mad": round(self.mad(), 6),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_cells(self) -> tuple[str, str, str]:
        """(image, pixel, mad) cells, values x100 at one decimal."""
        fmt = lambda v: f"{100.0 * v:.1f}"
        cells = [fmt(v) for v in self.values()]
        return "/".join(cells[:3]), "/".join(cells[3:]), fmt(self.mad())


# ---------------------------------------------------------------------------
# threshold sweeps: every pixel metric reads its values off one descending
# sort, at the last index of each tie group


def _rows(n: int) -> list[np.ndarray]:
    """The rows tp, fpr, distinct, work and sums, n + 1 float64 values each,
    cut from one block."""
    # each row starts a whole number of 4 KiB pages after the first, as
    # fresh arrays do.  Rows of n + 1 values packed end to end put the
    # row written 8 bytes past the page offset of the row read, and
    # every load then waits on the store before it (4K aliasing): a
    # take into one row from another ran 8 times slower
    span = -(-(n + 1) // _PAGE) * _PAGE
    return list(np.empty((5, span))[:, : n + 1])


def _tie_groups(scores: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """A new block of rows with the distinct scores in its distinct row, and
    the last descending index of each tie group.

    The negated scores are sorted in place in a view of the work row in their
    own dtype, so ascending is the scores' descending order and -0.0 and 0.0
    share a group.  The sort builds no permutation: every caller reads
    integer counts at tie-group ends only, and finds a score's group from
    its value.  The distinct scores pass through the free sums row, and
    reach the distinct row by an exact cast to float64."""
    n = scores.size
    rows = _rows(n)
    descending = np.negative(scores, out=rows[_WORK].view(scores.dtype)[:n])
    descending.sort()
    last = np.empty(n, dtype=bool)
    np.not_equal(descending[:-1], descending[1:], out=last[:-1])
    last[-1] = True
    ends = np.flatnonzero(last)
    # mode="clip" on indices known in range: np.take's default mode
    # fills a copy of out first
    distinct = rows[_SUMS].view(scores.dtype)[: ends.size]
    np.take(descending, ends, out=distinct, mode="clip")
    np.copyto(rows[_DISTINCT][: ends.size], distinct)
    return rows, ends


def _group_counts(distinct: np.ndarray, scores: np.ndarray, out: np.ndarray) -> None:
    """out[k] = how many of ``scores`` lie in tie groups 0 to k, for the
    first out.size groups of the distinct row ``distinct``.  ``scores`` is a
    fresh array drawn from the sorted scores, and is overwritten; float32
    keys compare exactly with the float64 distinct values cast from them."""
    keys = np.negative(scores, out=scores)
    keys.sort()
    # the keys in the first out.size groups are a prefix of the sorted keys
    keys = keys[: np.searchsorted(keys, distinct[out.size - 1], side="right")]
    out[:] = 0.0
    np.add.at(out, np.searchsorted(distinct, keys), 1.0)
    np.cumsum(out, out=out)


def _trapezoid(y: np.ndarray, x: np.ndarray, t: np.ndarray, x_end=None) -> float:
    """np.trapezoid(y, x), or with x_end appended to x, with its operations
    in its order, written into the row t and y's own row."""
    m = y.size - 1
    t, d = t[:m], y[:m]
    np.add(y[1:], y[:-1], out=t)
    # y is spent, so its row takes the widths
    np.subtract(x[1:], x[:-1], out=d[: x.size - 1])
    if x_end is not None:
        d[-1] = x_end - x[-1]
    d *= t
    d /= 2.0
    return float(np.add.reduce(d))


def auroc(ls: LabeledScores) -> float:
    """Tie-aware ROC area: P(s+ > s-) + 0.5 P(s+ = s-)."""
    pos, neg = ls.positives, ls.negatives
    if pos == 0 or neg == 0:
        raise MetricPreconditionError("auroc needs both classes present")
    tp, fpr = ls._tie_counts, ls._fpr
    tpr = np.divide(tp, pos, out=ls._row(_WORK, tp.size))
    return _trapezoid(tpr, fpr, t=ls._row(_SUMS, tp.size))


def average_precision(ls: LabeledScores) -> float:
    pos = ls.positives
    if pos == 0:
        raise MetricPreconditionError("average precision needs a positive")
    ends, tp = ls._tie_order[1], ls._tie_counts
    recall = np.divide(tp, pos, out=ls._row(_WORK, tp.size))
    gain = np.subtract(recall[1:], recall[:-1], out=ls._row(_SUMS, ends.size))
    # tp + fp is ends + 1 exactly; recall is spent, so its row takes it
    precision = np.add(ends, 1.0, out=ls._row(_WORK, ends.size))
    np.divide(tp[1:], precision, out=precision)
    gain *= precision
    return float(np.add.reduce(gain))


def f1_max(ls: LabeledScores) -> float:
    pos = ls.positives
    if pos == 0:
        raise MetricPreconditionError("f1_max needs a positive")
    ends, tp = ls._tie_order[1], ls._tie_counts
    # tp + fp + pos, exact in float64
    f1 = np.add(ends, float(1 + pos), out=ls._row(_SUMS, ends.size))
    np.divide(np.multiply(2.0, tp[1:], out=ls._row(_WORK, ends.size)), f1, out=f1)
    return float(f1.max())


# ---------------------------------------------------------------------------
# regions


def connected_components(mask: BinaryMask) -> RegionSet:
    """8-connected regions in raster order of their first pixel; each region
    holds its sorted flat indices.

    Foreground runs of each row are numbered in raster order and each starts
    as its own label.  Every round hooks the labels at both ends of each pair
    of 8-adjacent runs, one row apart, to the smaller of the two, then jumps
    pointers (``lab = lab[lab]``) until nothing changes.  When every pair
    agrees, each run carries the smallest number, hence the first pixel, of
    its region, and passes it to its pixels.
    """
    h, w = mask.height, mask.width
    flat = np.flatnonzero(mask.bits)
    if flat.size == 0:
        return RegionSet(height=h, width=w, regions=())
    # a run starts where the flat index jumps or a row begins
    first = np.flatnonzero((np.diff(flat, prepend=-2) != 1) | (flat % w == 0))
    length = np.diff(first, append=flat.size)
    # keys row * (w + 1) + column: a column just off either edge is a gap, in no run
    lo = flat[first] + flat[first] // w
    hi = lo + (length - 1)
    # each run v with the runs u of the row above: hi_u >= lo_v - 1, lo_u <= hi_v + 1
    top = np.searchsorted(hi, lo - (w + 2))
    count = np.searchsorted(lo, hi - w, side="right") - top
    v = np.repeat(np.arange(first.size), count)
    u = np.arange(v.size) - np.repeat(np.cumsum(count) - count - top, count)
    lab = np.arange(first.size)
    while True:
        lu, lv = lab[u], lab[v]
        if np.array_equal(lu, lv):
            break
        low = np.minimum(lu, lv)
        np.minimum.at(lab, lu, low)
        np.minimum.at(lab, lv, low)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
    lab = np.repeat(lab, length)
    order = np.argsort(lab, kind="stable")
    starts = np.flatnonzero(np.diff(lab[order])) + 1
    return RegionSet(height=h, width=w, regions=tuple(np.split(flat[order], starts)))


# ---------------------------------------------------------------------------
# region-overlap area


def aupro(
    pixels: LabeledScores,
    masks: list[BinaryMask],
    fpr_limit: float = DEFAULT_FPR_LIMIT,
) -> float:
    """Area under the mean per-region overlap vs pooled FPR, normalised.

    ``pixels`` pools every map's scores, labelled with the masks' bits in
    mask order; the curve walks the unique scores of the sweep it shares
    with the other pixel metrics, starts at (0, 0), and its trapezoid
    integral stops at fpr_limit (interpolating the final segment).  The
    overlap summed over regions is, per distinct region size s, the exact
    hit count in size-s regions divided by s: it never exceeds the region
    count, and a full sweep reaches it exactly.  Each per-size sum reads
    the scores of that size's pixels alone, and stops at the tie group
    crossing fpr_limit.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricPreconditionError("fpr_limit must lie in (0, 1]")
    bits = [m.bits.reshape(-1) for m in masks]
    if not bits or not np.array_equal(pixels.labels, np.concatenate(bits)):
        raise ValueError("pooled labels are not the masks' bits")
    # the pool index of every region pixel, and the size of every region
    index, sizes, start = [], [], 0
    for m in masks:
        regions = connected_components(m).regions
        if regions:
            index.append(np.concatenate(regions) + start)
            sizes.append(np.fromiter(map(len, regions), np.int64, len(regions)))
        start += m.bits.size
    if not sizes:
        raise MetricPreconditionError("aupro needs at least one anomalous region")
    if pixels.negatives == 0:
        raise MetricPreconditionError("aupro needs at least one normal pixel")

    g = pixels._tie_order[1].size
    fpr = pixels._fpr
    # points at or below fpr_limit, then the crossing of the next segment:
    # pro is read up to index inside, so the overlap sums stop at the tie
    # group of that point
    inside = int(np.searchsorted(fpr, fpr_limit, side="right"))
    kept = min(inside, g)
    pro = pixels._row(_WORK, kept + 1)
    pro[:] = 0.0
    overlap, hits = pro[1:], pixels._row(_SUMS, kept)
    distinct = pixels._row(_DISTINCT, g)
    sizes = np.concatenate(sizes)
    scores = pixels.scores[np.concatenate(index)]
    size_of = np.repeat(sizes, sizes)
    for s in np.unique(sizes):
        # size-s pixels in the kept tie groups, counted up to each
        _group_counts(distinct, scores[size_of == s], hits)
        hits /= s
        overlap += hits
    pro /= sizes.size

    t = pixels._row(_SUMS, inside)  # the hit counts are spent
    if inside == fpr.size:
        return _trapezoid(pro, fpr, t) / fpr_limit
    pro[inside] = np.interp(fpr_limit, fpr[inside - 1 : inside + 1], pro[inside - 1 :])
    return _trapezoid(pro, fpr[:inside], t, x_end=fpr_limit) / fpr_limit


# ---------------------------------------------------------------------------
# aggregation


def mad(values) -> float:
    """Mean of the seven protocol metrics, all required in [0, 1]."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (7,):
        raise ValueError("expected exactly seven metric values")
    if (vals < 0).any() or (vals > 1).any():
        raise ValueError("metric values must lie in [0, 1]")
    return float(vals.mean())


def evaluate(
    image_scores: LabeledScores,
    maps: list[Tensor],
    masks: list[BinaryMask],
    fpr_limit: float = DEFAULT_FPR_LIMIT,
) -> MetricsReport:
    """Full protocol: image metrics, pooled pixel metrics, region overlap."""
    if len(maps) != len(masks) or not maps:
        raise MetricPreconditionError("need equally many maps and masks")
    for t, m in zip(maps, masks):
        if t.ndim != 2 or t.shape != (m.height, m.width):
            raise ValueError(f"map shape {t.shape} != mask {m.height}x{m.width}")
    scores = np.concatenate([t.array.reshape(-1) for t in maps], dtype=np.float32)
    labels = np.concatenate([m.bits.reshape(-1) for m in masks], dtype=np.int64)
    # fresh arrays nobody else holds: freezing them spares LabeledScores a copy
    scores.flags.writeable = labels.flags.writeable = False
    pixels = LabeledScores(scores=scores, labels=labels)
    image = (auroc(image_scores), average_precision(image_scores), f1_max(image_scores))
    pixel = (auroc(pixels), average_precision(pixels), f1_max(pixels))
    return MetricsReport(*image, *pixel, aupro(pixels, masks, fpr_limit=fpr_limit))
