"""Output checks that share no code with ssmad.

The metric functions here are written from the definitions in the ssmad
metrics docstring, by different algorithms: AUROC from average ranks
(Mann-Whitney), AP and F1 by counting positives and negatives at every
distinct threshold, and AUPRO from per-pixel region weights, cumulative
sums and the benchmark's own 8-connected labelling.  Map files are parsed
by a separate MBT reader.
"""

from __future__ import annotations

import struct

import numpy as np

FPR_LIMIT = 0.3
# own metric implementations accumulate in a different order than ssmad's
METRIC_TOLERANCE = 1e-7


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def map_from_mbt(buf: bytes, shape: tuple[int, int]) -> np.ndarray:
    """Parse a 2-D float32 MBT file; the map must be finite and non-negative."""
    if len(buf) < 24 or buf[:4] != b"MBT1" or buf[4:8] != bytes([1, 0, 2, 0]):
        raise CheckFailed("map file is not a 2-D float32 MBT tensor")
    dims = struct.unpack_from("<2Q", buf, 8)
    if dims != tuple(shape):
        raise CheckFailed(f"map shape {dims}, expected {tuple(shape)}")
    payload = buf[24:]
    if len(payload) != 4 * shape[0] * shape[1]:
        raise CheckFailed("map payload length does not match its shape")
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
    if not np.isfinite(arr).all():
        raise CheckFailed("map holds a non-finite score")
    if (arr < 0).any():
        raise CheckFailed("map holds a negative score")
    return arr


def rank_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U over average ranks, divided by P * N."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    below = np.cumsum(counts) - counts
    avg_rank = below + (counts + 1) / 2.0
    pos = int(labels.sum())
    neg = labels.size - pos
    rank_sum = avg_rank[inverse][labels == 1].sum()
    return float((rank_sum - pos * (pos + 1) / 2.0) / (pos * neg))


def counted_ap_f1(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """AP and best F1, counting hits at each distinct threshold directly."""
    pos_sorted = np.sort(scores[labels == 1])
    neg_sorted = np.sort(scores[labels == 0])
    thresholds = np.unique(scores)[::-1]
    tp = pos_sorted.size - np.searchsorted(pos_sorted, thresholds, side="left")
    fp = neg_sorted.size - np.searchsorted(neg_sorted, thresholds, side="left")
    tp = tp.astype(np.float64)
    recall = tp / pos_sorted.size
    precision = tp / (tp + fp)
    ap = float(np.sum(np.diff(recall, prepend=0.0) * precision))
    f1 = float(np.max(2.0 * tp / (tp + fp + pos_sorted.size)))
    return ap, f1


def label_regions(bits: np.ndarray) -> np.ndarray:
    """8-connected labels by min-label propagation; background is -1."""
    h, w = bits.shape
    fg = bits.astype(bool)
    big = h * w
    lab = np.where(fg, np.arange(h * w).reshape(h, w), big)
    while True:
        padded = np.pad(lab, 1, constant_values=big)
        low = lab.copy()
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                np.minimum(low, padded[dr : dr + h, dc : dc + w], out=low)
        low = np.where(fg, low, big)
        if np.array_equal(low, lab):
            break
        lab = low
    _, ids = np.unique(lab, return_inverse=True)
    ids = ids.reshape(h, w)
    return np.where(fg, ids, -1)


def vectorised_aupro(maps, masks, fpr_limit: float = FPR_LIMIT) -> float:
    """Region-overlap area: the mean overlap at a threshold is the sum of
    1 / (regions * region size) over the region pixels scoring above it."""
    weights, negative, scores = [], [], []
    sizes = []
    for score, bits in zip(maps, masks):
        lab = label_regions(bits).reshape(-1)
        n = int(lab.max()) + 1
        counts = np.bincount(lab[lab >= 0], minlength=n).astype(np.float64)
        per_pixel = np.zeros(lab.size)
        per_pixel[lab >= 0] = 1.0 / counts[lab[lab >= 0]]
        weights.append(per_pixel)
        negative.append((lab < 0).astype(np.float64))
        scores.append(np.asarray(score, dtype=np.float64).reshape(-1))
        sizes.append(n)
    regions = sum(sizes)
    w = np.concatenate(weights) / regions
    neg = np.concatenate(negative)
    s = np.concatenate(scores)
    order = np.argsort(-s)
    s_sorted = s[order]
    ends = np.append(np.nonzero(np.diff(s_sorted))[0], s.size - 1)
    pro = np.concatenate([[0.0], np.cumsum(w[order])[ends]])
    fpr = np.concatenate([[0.0], np.cumsum(neg[order])[ends] / neg.sum()])
    k = int(np.searchsorted(fpr, fpr_limit, side="right"))
    area = float(np.sum(np.diff(fpr[:k]) * (pro[1:k] + pro[: k - 1]) / 2.0))
    if k < fpr.size and fpr[k - 1] < fpr_limit:
        frac = (fpr_limit - fpr[k - 1]) / (fpr[k] - fpr[k - 1])
        p_lim = pro[k - 1] + frac * (pro[k] - pro[k - 1])
        area += (fpr_limit - fpr[k - 1]) * (pro[k - 1] + p_lim) / 2.0
    return area / fpr_limit


def expected_report(image_scores, image_labels, maps, masks) -> tuple[float, ...]:
    """The seven protocol values in MetricsReport.values() order."""
    img_s = np.asarray(image_scores, dtype=np.float64)
    img_l = np.asarray(image_labels, dtype=np.int64)
    pix_s = np.concatenate([np.asarray(m, dtype=np.float64).reshape(-1) for m in maps])
    pix_l = np.concatenate([np.asarray(m, dtype=np.int64).reshape(-1) for m in masks])
    img_ap, img_f1 = counted_ap_f1(img_s, img_l)
    pix_ap, pix_f1 = counted_ap_f1(pix_s, pix_l)
    return (
        rank_auroc(img_s, img_l), img_ap, img_f1,
        rank_auroc(pix_s, pix_l), pix_ap, pix_f1,
        vectorised_aupro(maps, masks),
    )


def compare_report(got, want, tolerance: float = METRIC_TOLERANCE) -> None:
    names = ("image_auroc", "image_ap", "image_f1_max", "pixel_auroc",
             "pixel_ap", "pixel_f1_max", "pixel_aupro")
    for name, g, w in zip(names, got, want, strict=True):
        if not abs(g - w) <= tolerance:
            raise CheckFailed(f"{name} = {g!r}, independent value {w!r}")
