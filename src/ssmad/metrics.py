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
every pixel of every map.  All accumulation is float64.

Every threshold sweep reads integer cumulative counts at the end of each
tie group of one descending sort.  A LabeledScores holds read-only arrays
and sorts itself at most once, so auroc, average_precision, f1_max and
aupro on the same scores share one sweep; evaluate sorts the pooled pixels
once for all four.  Ground-truth regions are labelled
without a per-pixel loop: each foreground pixel takes the smallest flat
index in its region by min-label propagation over 8-neighbour pairs with
pointer jumping.

The sweep and the metrics' temporaries live in five rows of one float64
block, made once per LabeledScores of n scores in g tie groups: work and
sums hold n + 1 values, the others g + 1.  The metrics of one evaluate
reuse its pages instead of each allocating, freeing and faulting in
arrays of their own:

  tp    0, then the cumulative true positives at each tie-group end; kept
  fpr   0, then the false-positive rate (ends + 1 - tp) / negatives at
        each end; kept, and shared by auroc and aupro
  work  scratch: the labels in sorted order for the sweep; tpr, recall
        then precision, or 2 tp; aupro's per-pixel region sizes, its hit
        counts per tie group and the abscissae of its last trapezoid
  sums  scratch: the sweep's cumsum; each metric's terms before their sum;
        aupro's region sizes in sorted order
  pro   aupro's overlap curve, 0 first

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


# rows of LabeledScores._rows, and the float64 values in a 4 KiB page
_TP, _FPR, _WORK, _SUMS, _PRO = range(5)
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
        s = _read_only(self.scores, np.float64)
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
    def _tie_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Descending order and tie-group ends: the one sort of these scores.
        Both stay writeable, because np.take copies an index array that is
        not."""
        return _tie_groups(self.scores)

    @cached_property
    def _rows(self) -> list[np.ndarray]:
        """The rows tp, fpr, work, sums and pro, cut from one float64 block:
        one value more than the scores for work and sums, one more than the
        tie groups for the others."""
        scores, groups = self.scores.size + 1, self._tie_order[1].size + 1
        sizes = (groups, groups, scores, scores, groups)
        # each row starts a whole number of 4 KiB pages after the first, as
        # fresh arrays do.  Rows of n + 1 values packed end to end put the
        # row written 8 bytes past the page offset of the row read, and
        # every load then waits on the store before it (4K aliasing): a
        # take into one row from another ran 8 times slower
        spans = [-(-size // _PAGE) * _PAGE for size in sizes]
        block = np.empty(sum(spans))
        starts = np.cumsum([0, *spans[:-1]])
        return [block[start : start + size] for start, size in zip(starts, sizes)]

    @cached_property
    def _tie_counts(self) -> np.ndarray:
        """The tp row: 0, then the cumulative true positives after each
        descending tie group.  The arrays it is computed from cannot change,
        so the one sweep serves every metric of these scores."""
        order, ends = self._tie_order
        hits = _gather(self.labels, order, self._row(_WORK, order.size).view(np.int64))
        cumulative = self._row(_SUMS, order.size)
        cumulative[:] = hits
        np.cumsum(cumulative, out=cumulative)
        tp = self._row(_TP, ends.size + 1)
        tp[0] = 0.0
        # mode="clip" on indices known in range: np.take's default mode
        # fills a copy of out first
        np.take(cumulative, ends, out=tp[1:], mode="clip")
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
        return self._rows[row][:size]

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
        image = "/".join(
            fmt(v) for v in (self.image_auroc, self.image_ap, self.image_f1_max)
        )
        pixel = "/".join(
            fmt(v)
            for v in (
                self.pixel_auroc,
                self.pixel_ap,
                self.pixel_f1_max,
                self.pixel_aupro,
            )
        )
        return image, pixel, fmt(self.mad())


# ---------------------------------------------------------------------------
# threshold sweeps: every pixel metric reads its values off one descending
# sort, at the last index of each tie group


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending sort order and the last sorted index of each tie group.

    The order is the ascending sort read backwards.  It need not be stable:
    every caller reads integer cumulative counts at tie-group ends only, and
    the count at the end of a group is the same whatever order the group's
    members were sorted in."""
    ascending = np.argsort(scores)
    order = ascending[::-1]
    descending = scores[ascending][::-1]
    last = np.empty(scores.size, dtype=bool)
    np.not_equal(descending[:-1], descending[1:], out=last[:-1])
    last[-1] = True
    return order, np.flatnonzero(last)


def _gather(values: np.ndarray, order: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[order], as a view of ``out`` read backwards.  Reading
    _tie_groups' order backwards gives the contiguous ascending sort, and
    np.take copies an index array that is not contiguous."""
    np.take(values, order[::-1], out=out, mode="clip")
    return out[::-1]


def _trapezoid(y: np.ndarray, x: np.ndarray, d: np.ndarray, t: np.ndarray) -> float:
    """np.trapezoid(y, x) with its operations, in its order, written into
    the rows d and t; d may be y's own row."""
    m = x.size - 1
    d, t = d[:m], t[:m]
    np.add(y[1:], y[:-1], out=t)
    np.subtract(x[1:], x[:-1], out=d)
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
    return _trapezoid(tpr, fpr, d=tpr, t=ls._row(_SUMS, tp.size))


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

    Foreground pixels are numbered in raster order and each starts as its
    own label.  Every round hooks the labels at both ends of each
    8-neighbour pair to the smaller of the two, then jumps pointers
    (``lab = lab[lab]``) until nothing changes.  When every pair agrees, each
    pixel carries the smallest number, hence the first pixel, of its region.
    """
    h, w = mask.height, mask.width
    flat = np.flatnonzero(mask.bits)
    if flat.size == 0:
        return RegionSet(height=h, width=w, regions=())
    ids = np.full((h, w), -1, dtype=np.int64)
    ids.flat[flat] = np.arange(flat.size)
    # each 8-neighbour pair once: right, down-left, down, down-right
    ends_a, ends_b = [], []
    for a, b in (
        (ids[:, :-1], ids[:, 1:]),
        (ids[:-1, 1:], ids[1:, :-1]),
        (ids[:-1, :], ids[1:, :]),
        (ids[:-1, :-1], ids[1:, 1:]),
    ):
        both = (a >= 0) & (b >= 0)
        ends_a.append(a[both])
        ends_b.append(b[both])
    u, v = np.concatenate(ends_a), np.concatenate(ends_b)
    lab = np.arange(flat.size)
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
    count, and a full sweep reaches it exactly.  The per-size sums stop at
    the tie group crossing fpr_limit, and run over every pixel at 1.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricPreconditionError("fpr_limit must lie in (0, 1]")
    bits = [m.bits.reshape(-1) for m in masks]
    if not bits or not np.array_equal(pixels.labels, np.concatenate(bits)):
        raise ValueError("pooled labels are not the masks' bits")
    regions = []  # (offset of the region's map in the pool, its flat indices)
    start = 0
    for m in masks:
        regions += [(start, region) for region in connected_components(m).regions]
        start += m.bits.size
    if not regions:
        raise MetricPreconditionError("aupro needs at least one anomalous region")
    if pixels.negatives == 0:
        raise MetricPreconditionError("aupro needs at least one normal pixel")

    order, ends = pixels._tie_order
    # the sweep's false positives are the size-0 pixels at or above each threshold
    fpr = pixels._fpr
    # points at or below fpr_limit, then the crossing of the next segment:
    # pro is read up to index inside, so the overlap sums stop at the
    # tie-group end of that point
    inside = int(np.searchsorted(fpr, fpr_limit, side="right"))
    kept = ends[:inside]
    sizes = pixels._row(_WORK, order.size).view(np.int64)  # 0 for a normal pixel
    sizes[:] = 0
    for offset, region in regions:
        sizes[offset + region] = region.size
    k = kept[-1] + 1
    head = _gather(sizes, order[:k], pixels._row(_SUMS, k).view(np.int64))
    pro = pixels._row(_PRO, kept.size + 1)
    pro[:] = 0.0
    overlap, hits = pro[1:], pixels._row(_WORK, kept.size)  # sizes are spent
    for s in np.unique([region.size for _, region in regions]):
        # size-s pixels per tie group up to kept, then counted up to each end
        hits[:] = 0.0
        np.add.at(hits, np.searchsorted(kept, np.flatnonzero(head == s)), 1.0)
        np.cumsum(hits, out=hits)
        hits /= s
        overlap += hits
    pro /= len(regions)

    x = fpr[:inside]
    if inside < fpr.size:
        crossing = np.interp(fpr_limit, fpr[inside - 1 : inside + 1], pro[inside - 1 :])
        x = pixels._row(_WORK, inside + 1)
        x[:inside] = fpr[:inside]
        x[inside], pro[inside] = fpr_limit, crossing
    return _trapezoid(pro[: x.size], x, d=pro, t=pixels._row(_SUMS, x.size)) / fpr_limit


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
    scores = np.concatenate([t.array.reshape(-1) for t in maps], dtype=np.float64)
    labels = np.concatenate([m.bits.reshape(-1) for m in masks], dtype=np.int64)
    # fresh arrays nobody else holds: freezing them spares LabeledScores a copy
    scores.flags.writeable = labels.flags.writeable = False
    pixels = LabeledScores(scores=scores, labels=labels)
    image = (auroc(image_scores), average_precision(image_scores), f1_max(image_scores))
    pixel = (auroc(pixels), average_precision(pixels), f1_max(pixels))
    return MetricsReport(*image, *pixel, aupro(pixels, masks, fpr_limit=fpr_limit))
