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
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

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


@dataclass(frozen=True)
class LabeledScores:
    """Parallel vectors of scores and 0/1 labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(self.scores, dtype=np.float64)
        l = np.ascontiguousarray(self.labels, dtype=np.int64)
        if s.ndim != 1 or l.ndim != 1 or s.size != l.size or s.size < 1:
            raise ValueError("scores and labels must be equal-length vectors")
        if not np.isfinite(s).all():
            raise ValueError("scores must be finite")
        if not np.isin(l, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", l)

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return int(self.labels.size - self.labels.sum())


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
        """Six-decimal serialisation; from_json round-trips it exactly."""
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

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        d = json.loads(text)
        return cls(
            image_auroc=d["image"]["auroc"],
            image_ap=d["image"]["ap"],
            image_f1_max=d["image"]["f1_max"],
            pixel_auroc=d["pixel"]["auroc"],
            pixel_ap=d["pixel"]["ap"],
            pixel_f1_max=d["pixel"]["f1_max"],
            pixel_aupro=d["pixel"]["aupro"],
        )

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
    """Descending stable sort order and the last sorted index of each tie group."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.concatenate([boundary, [sorted_scores.size - 1]])
    return order, ends


def _tie_grouped_counts(ls: LabeledScores):
    """Cumulative TP/FP after each descending unique-score group."""
    order, ends = _tie_groups(ls.scores)
    tp = np.cumsum(ls.labels[order])[ends].astype(np.float64)
    fp = (ends + 1) - tp
    return tp, fp


def auroc(ls: LabeledScores) -> float:
    """Tie-aware ROC area: P(s+ > s-) + 0.5 P(s+ = s-)."""
    pos, neg = ls.positives, ls.negatives
    if pos == 0 or neg == 0:
        raise MetricPreconditionError("auroc needs both classes present")
    tp, fp = _tie_grouped_counts(ls)
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    return float(_trapezoid(tpr, fpr))


def average_precision(ls: LabeledScores) -> float:
    pos = ls.positives
    if pos == 0:
        raise MetricPreconditionError("average precision needs a positive")
    tp, fp = _tie_grouped_counts(ls)
    recall = tp / pos
    precision = tp / (tp + fp)
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def f1_max(ls: LabeledScores) -> float:
    pos = ls.positives
    if pos == 0:
        raise MetricPreconditionError("f1_max needs a positive")
    tp, fp = _tie_grouped_counts(ls)
    f1 = 2.0 * tp / (tp + fp + pos)
    return float(f1.max())


# ---------------------------------------------------------------------------
# regions


_NEIGHBOURS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)


def connected_components(mask: BinaryMask) -> RegionSet:
    """8-connectivity flood fill; regions keep sorted flat indices."""
    h, w = mask.height, mask.width
    bits = mask.bits
    seen = np.zeros((h, w), dtype=bool)
    regions = []
    for r0 in range(h):
        for c0 in range(w):
            if not bits[r0, c0] or seen[r0, c0]:
                continue
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            cells = []
            while queue:
                r, c = queue.popleft()
                cells.append(r * w + c)
                for dr, dc in _NEIGHBOURS:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bits[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        queue.append((rr, cc))
            regions.append(np.array(sorted(cells), dtype=np.int64))
    return RegionSet(height=h, width=w, regions=tuple(regions))


# ---------------------------------------------------------------------------
# region-overlap area


def aupro(
    maps: list[Tensor],
    masks: list[BinaryMask],
    fpr_limit: float = DEFAULT_FPR_LIMIT,
) -> float:
    """Area under the mean per-region overlap vs pooled FPR, normalised.

    The threshold sweep is pooled over every pixel of every map and walks
    unique scores in descending order; the curve starts at (0, 0) and the
    trapezoid integral stops at fpr_limit (interpolating the final segment).
    The overlap summed over regions is, per distinct region size s, the exact
    hit count in size-s regions divided by s: it never exceeds the region
    count, and a full sweep reaches it exactly.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricPreconditionError("fpr_limit must lie in (0, 1]")
    if len(maps) != len(masks) or not maps:
        raise MetricPreconditionError("need equally many maps and masks")

    pixel_sizes = []    # per pixel: size of its region, 0 for a normal pixel
    region_sizes = []
    scores = []
    for t, m in zip(maps, masks):
        if t.ndim != 2 or t.shape != (m.height, m.width):
            raise ValueError(f"map shape {t.shape} != mask {m.height}x{m.width}")
        sizes = np.zeros(m.height * m.width, dtype=np.int64)
        for region in connected_components(m).regions:
            sizes[region] = region.size
            region_sizes.append(region.size)
        pixel_sizes.append(sizes)
        scores.append(t.array.reshape(-1).astype(np.float64))

    all_sizes = np.concatenate(pixel_sizes)
    negatives = int((all_sizes == 0).sum())
    if not region_sizes:
        raise MetricPreconditionError("aupro needs at least one anomalous region")
    if negatives == 0:
        raise MetricPreconditionError("aupro needs at least one normal pixel")

    order, ends = _tie_groups(np.concatenate(scores))
    sorted_sizes = all_sizes[order]
    overlap = np.zeros(ends.size)
    for s in np.unique(region_sizes):
        overlap += np.cumsum(sorted_sizes == s)[ends] / s
    fpr = np.concatenate([[0.0], np.cumsum(sorted_sizes == 0)[ends] / negatives])
    pro = np.concatenate([[0.0], overlap / len(region_sizes)])

    # points at or below fpr_limit, then the crossing of the next segment
    inside = int(np.searchsorted(fpr, fpr_limit, side="right"))
    x, y = fpr[:inside], pro[:inside]
    if inside < fpr.size:
        seg = slice(inside - 1, inside + 1)
        x = np.append(x, fpr_limit)
        y = np.append(y, np.interp(fpr_limit, fpr[seg], pro[seg]))
    return float(_trapezoid(y, x)) / fpr_limit


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
    pixel_scores = []
    pixel_labels = []
    for t, m in zip(maps, masks):
        if t.ndim != 2 or t.shape != (m.height, m.width):
            raise ValueError(f"map shape {t.shape} != mask {m.height}x{m.width}")
        pixel_scores.append(t.array.reshape(-1).astype(np.float64))
        pixel_labels.append(m.bits.reshape(-1).astype(np.int64))
    pixels = LabeledScores(
        scores=np.concatenate(pixel_scores), labels=np.concatenate(pixel_labels)
    )
    return MetricsReport(
        image_auroc=auroc(image_scores),
        image_ap=average_precision(image_scores),
        image_f1_max=f1_max(image_scores),
        pixel_auroc=auroc(pixels),
        pixel_ap=average_precision(pixels),
        pixel_f1_max=f1_max(pixels),
        pixel_aupro=aupro(maps, masks, fpr_limit=fpr_limit),
    )
