"""Metric tests built around four brute-force oracles:

- `_pair_count_auroc`: P(score+ > score-) + half the ties, by enumeration.
- `_enumerate_pr`: precision/recall/F1 at every threshold in the score set.
- `_flood_fill_regions`: 8-connected regions by a breadth-first flood fill.
- `_exhaustive_aupro`: the PRO/FPR curve computed one threshold at a time
  with nothing shared with the module implementation.
"""

import json
import tracemalloc
import warnings
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmad import metrics
from ssmad.metrics import (
    DEFAULT_FPR_LIMIT,
    LabeledScores,
    MetricPreconditionError,
    MetricsReport,
    RegionSet,
    aupro,
    auroc,
    average_precision,
    connected_components,
    evaluate,
    f1_max,
    mad,
)
from ssmad.tensor import BinaryMask, Tensor

_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# ---------------------------------------------------------------- oracles


def _pair_count_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = len(pos) * len(neg)
    acc = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                acc += 1.0
            elif p == n:
                acc += 0.5
    return acc / total


def _enumerate_pr(scores, labels):
    """(precision, recall, f1) at every distinct threshold, descending."""
    order = sorted(set(scores), reverse=True)
    p_total = sum(labels)
    rows = []
    for t in order:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        precision = tp / (tp + fp)
        recall = tp / p_total
        f1 = 2 * tp / (tp + fp + p_total) if tp + fp + p_total else 0.0
        rows.append((precision, recall, f1))
    return rows


def _oracle_ap(scores, labels):
    rows = _enumerate_pr(scores, labels)
    ap, prev_r = 0.0, 0.0
    for precision, recall, _ in rows:
        ap += (recall - prev_r) * precision
        prev_r = recall
    return ap


def _oracle_f1max(scores, labels):
    return max(f1 for _, _, f1 in _enumerate_pr(scores, labels))


def _flood_fill_regions(bits):
    """Breadth-first flood fill with 8-connectivity, one pixel at a time;
    regions in raster order of their first pixel, cells sorted."""
    h, w = bits.shape
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
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w and bits[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            queue.append((rr, cc))
            regions.append(np.array(sorted(cells), dtype=np.int64))
    return RegionSet(height=h, width=w, regions=tuple(regions))


def _exhaustive_aupro(maps, masks, fpr_limit):
    all_regions = []       # (map_index, set of flat cells)
    for idx, m in enumerate(masks):
        for cells in _flood_fill_regions(m).regions:
            all_regions.append((idx, set(cells.tolist())))
    pooled = np.concatenate([t.reshape(-1) for t in maps])
    neg_total = sum(int((m == 0).sum()) for m in masks)

    points = [(0.0, 0.0)]
    for t in sorted(set(pooled.tolist()), reverse=True):
        pro_sum = 0.0
        for idx, cells in all_regions:
            flat = maps[idx].reshape(-1)
            hit = sum(1 for cell in cells if flat[cell] >= t)
            pro_sum += hit / len(cells)
        pro = pro_sum / len(all_regions)
        fp = 0
        for m_idx, m in enumerate(masks):
            flat = maps[m_idx].reshape(-1)
            mflat = m.reshape(-1)
            fp += int(((flat >= t) & (mflat == 0)).sum())
        fpr = fp / neg_total
        points.append((fpr, pro))

    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= fpr_limit:
            area += (x1 - x0) * (y0 + y1) / 2
        else:
            if x0 >= fpr_limit:
                break
            # interpolate the crossing
            frac = (fpr_limit - x0) / (x1 - x0)
            y_cross = y0 + frac * (y1 - y0)
            area += (fpr_limit - x0) * (y0 + y_cross) / 2
            break
    return area / fpr_limit


def _random_labeled(rng, n, tie_prob=0.3):
    scores = rng.standard_normal(n)
    if rng.random() < tie_prob:
        # force duplicated scores so the tie paths get exercised
        scores = np.round(scores, 1)
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[rng.integers(0, n)] = 1
    if labels.sum() == n:
        labels[rng.integers(0, n)] = 0
    return scores, labels


# ------------------------------------------------------------------ auroc


def test_auroc_perfect():
    assert auroc(LabeledScores([0.9, 0.1], [1, 0])) == 1.0


def test_auroc_tie_symmetry():
    assert auroc(LabeledScores([0.5, 0.5], [1, 0])) == 0.5


def test_auroc_worked_example():
    got = auroc(LabeledScores([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]))
    assert got == 0.75


def test_auroc_needs_both_classes():
    with pytest.raises(MetricPreconditionError):
        auroc(LabeledScores([0.1, 0.2], [1, 1]))
    with pytest.raises(MetricPreconditionError):
        auroc(LabeledScores([0.1, 0.2], [0, 0]))


@pytest.mark.parametrize("seed", range(40))
def test_auroc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    scores, labels = _random_labeled(rng, int(rng.integers(2, 60)))
    got = auroc(LabeledScores(scores, labels))
    want = _pair_count_auroc(scores.tolist(), labels.tolist())
    assert abs(got - want) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 40))
def test_auroc_invariant_under_monotone_transform(seed, n):
    rng = np.random.default_rng(seed)
    scores, labels = _random_labeled(rng, n)
    base = auroc(LabeledScores(scores, labels))
    warped = auroc(LabeledScores(np.exp(scores * 0.5) + 3, labels))
    assert abs(base - warped) <= 1e-12


def test_auroc_permutation_invariant():
    rng = np.random.default_rng(77)
    scores, labels = _random_labeled(rng, 31)
    perm = rng.permutation(31)
    a = auroc(LabeledScores(scores, labels))
    b = auroc(LabeledScores(scores[perm], labels[perm]))
    assert a == b


# --------------------------------------------------------------------- ap


def test_ap_perfect():
    assert average_precision(LabeledScores([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0


def test_ap_worked_example():
    got = average_precision(LabeledScores([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]))
    np.testing.assert_allclose(got, 0.5 * 1.0 + 0.5 * (2 / 3), rtol=1e-12)


def test_ap_all_positive():
    assert average_precision(LabeledScores([0.2, 0.9, 0.5], [1, 1, 1])) == 1.0


def test_ap_needs_a_positive():
    with pytest.raises(MetricPreconditionError):
        average_precision(LabeledScores([0.2, 0.9], [0, 0]))


@pytest.mark.parametrize("seed", range(40))
def test_ap_matches_enumeration(seed):
    rng = np.random.default_rng(seed + 1000)
    scores, labels = _random_labeled(rng, int(rng.integers(2, 60)))
    got = average_precision(LabeledScores(scores, labels))
    want = _oracle_ap(scores.tolist(), labels.tolist())
    assert abs(got - want) <= 1e-12


# ----------------------------------------------------------------- f1 max


def test_f1_perfect_balanced():
    assert f1_max(LabeledScores([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0


def test_f1_worked_example():
    got = f1_max(LabeledScores([0.9, 0.8, 0.1], [1, 0, 1]))
    np.testing.assert_allclose(got, 0.8, rtol=1e-12)


def test_f1_single_top_positive():
    assert f1_max(LabeledScores([0.9, 0.3, 0.2], [1, 0, 0])) == 1.0


@pytest.mark.parametrize("seed", range(40))
def test_f1_matches_enumeration(seed):
    rng = np.random.default_rng(seed + 2000)
    scores, labels = _random_labeled(rng, int(rng.integers(2, 60)))
    got = f1_max(LabeledScores(scores, labels))
    want = _oracle_f1max(scores.tolist(), labels.tolist())
    assert abs(got - want) <= 1e-12


# ----------------------------------------------------------- shared sweep


def _count_tie_groups(monkeypatch):
    """Replace metrics._tie_groups by a wrapper recording each sort's size."""
    calls = []
    real = metrics._tie_groups

    def counting(scores):
        calls.append(scores.size)
        return real(scores)

    monkeypatch.setattr(metrics, "_tie_groups", counting)
    return calls


def _tie_heavy_inputs(seed):
    """Fresh evaluate inputs whose scores take at most five levels."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(1, 6))
    maps, masks = [], []
    for _ in range(4):
        h, w = (int(v) for v in rng.integers(6, 24, 2))
        bits = (rng.random((h, w)) < 0.3).astype(np.uint8)
        bits[0, 0], bits[-1, -1] = 1, 0
        maps.append(Tensor((rng.integers(0, levels, (h, w)) / 4).astype(np.float32)))
        masks.append(BinaryMask(bits))
    image = LabeledScores(rng.integers(0, levels, 4) / 4, [1, 0, 1, 0])
    return image, maps, masks


def test_metrics_of_one_score_set_share_one_sweep(monkeypatch):
    calls = _count_tie_groups(monkeypatch)
    scores, labels = _random_labeled(np.random.default_rng(5), 200, tie_prob=1.0)
    ls = LabeledScores(scores, labels)
    auroc(ls), average_precision(ls), f1_max(ls), auroc(ls)
    assert calls == [200]


def test_evaluate_sorts_each_score_set_once(monkeypatch):
    image, maps, masks = _tie_heavy_inputs(0)
    calls = _count_tie_groups(monkeypatch)
    evaluate(image, maps, masks)
    pixels = sum(t.array.size for t in maps)
    # image metrics, then the pooled pixels that aupro shares
    assert calls == [4, pixels]


def test_evaluate_calls_each_metric_through_the_module(monkeypatch):
    # perfbench times each metric by wrapping these module attributes
    calls = []
    for name in ("auroc", "average_precision", "f1_max", "aupro"):
        real = getattr(metrics, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(metrics, name, counting)
    evaluate(*_tie_heavy_inputs(0))
    # image and pooled pixels each, then aupro once
    assert Counter(calls) == {"auroc": 2, "average_precision": 2, "f1_max": 2, "aupro": 1}


# --------------------------------------------- byte identity of the sweep


def _parent_curve_metrics(maps, masks, fpr_limit):
    """auroc, average_precision, f1_max and aupro of the pooled pixels by
    the plain formulas the block rows replace: argsort of the negated
    scores, an int64 cumsum, a leading zero by concatenate and np.trapezoid.
    A metric whose precondition fails is missing from the dict."""
    scores = np.concatenate([t.reshape(-1) for t in maps]).astype(np.float64)
    labels = np.concatenate([m.reshape(-1) for m in masks]).astype(np.int64)
    pos, neg = int(labels.sum()), int(labels.size - labels.sum())
    order = np.argsort(-scores)
    sorted_scores = scores[order]
    ends = np.concatenate([np.nonzero(np.diff(sorted_scores))[0], [scores.size - 1]])
    tp = np.cumsum(labels[order])[ends].astype(np.float64)
    fp = (ends + 1) - tp
    fpr = np.concatenate([[0.0], fp / neg]) if neg else None
    out = {}
    if pos and neg:
        tpr = np.concatenate([[0.0], tp / pos])
        out["auroc"] = float(_np_trapezoid(tpr, fpr))
    if pos:
        recall, precision = tp / pos, tp / (tp + fp)
        prev = np.concatenate([[0.0], recall[:-1]])
        out["average_precision"] = float(np.sum((recall - prev) * precision))
        out["f1_max"] = float((2.0 * tp / (tp + fp + pos)).max())
    sizes = np.zeros(labels.size, dtype=np.int64)
    region_sizes, start = [], 0
    for m in masks:
        for region in connected_components(BinaryMask(m)).regions:
            sizes[start + region] = region.size
            region_sizes.append(region.size)
        start += m.size
    if region_sizes and neg:
        inside = int(np.searchsorted(fpr, fpr_limit, side="right"))
        kept = ends[:inside]
        head = sizes[order[: kept[-1] + 1]]
        overlap = np.zeros(kept.size)
        for s in np.unique(region_sizes):
            overlap += np.cumsum(head == s)[kept] / s
        pro = np.concatenate([[0.0], overlap / len(region_sizes)])
        x, y = fpr[:inside], pro[:inside]
        if inside < fpr.size:
            seg = slice(inside - 1, inside + 1)
            x = np.append(x, fpr_limit)
            y = np.append(y, np.interp(fpr_limit, fpr[seg], pro[seg]))
        out["aupro"] = float(_np_trapezoid(y, x)) / fpr_limit
    return out


_CURVE_METRICS = {
    "auroc": lambda px, masks, limit: auroc(px),
    "average_precision": lambda px, masks, limit: average_precision(px),
    "f1_max": lambda px, masks, limit: f1_max(px),
    "aupro": lambda px, masks, limit: aupro(px, masks, limit),
}


def _assert_curve_metrics_match_parent(maps, masks, limit, names=tuple(_CURVE_METRICS)):
    """Each metric, called in the order of ``names`` on one LabeledScores,
    equals the parent formula by float.hex, or raises
    MetricPreconditionError where the formula has no value; no call emits a
    RuntimeWarning."""
    want = _parent_curve_metrics(maps, masks, limit)
    bit_masks = [BinaryMask(m) for m in masks]
    pixels = _pooled([Tensor(t) for t in maps], bit_masks)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in names:
            if name in want:
                got = _CURVE_METRICS[name](pixels, bit_masks, limit)
                assert got.hex() == want[name].hex(), name
            else:
                with pytest.raises(MetricPreconditionError):
                    _CURVE_METRICS[name](pixels, bit_masks, limit)


@st.composite
def _curve_case(draw):
    """Pooled maps whose scores are tie-free, tie-heavy or all tied, random
    masks, an fpr_limit of 0.05, 0.3 or 1, and an order to call the four
    metrics in."""
    side = st.integers(1, 7)
    shapes = draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))
    n = sum(h * w for h, w in shapes)
    ties = draw(st.sampled_from(["tie-free", "tie-heavy", "all-tied"]))
    if ties == "tie-free":
        pooled = np.array(draw(st.permutations(range(n)))) / n
    elif ties == "tie-heavy":
        pooled = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))) / 2
    else:
        pooled = np.full(n, 0.5)
    bits = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), np.uint8)
    maps, masks, start = [], [], 0
    for h, w in shapes:
        maps.append(pooled[start : start + h * w].reshape(h, w).astype(np.float32))
        masks.append(bits[start : start + h * w].reshape(h, w))
        start += h * w
    limit = draw(st.sampled_from([0.05, 0.3, 1.0]))
    return maps, masks, limit, draw(st.permutations(list(_CURVE_METRICS)))


@settings(max_examples=300, deadline=None)
@given(case=_curve_case())
def test_curve_metrics_bytes_match_parent_formulas(case):
    _assert_curve_metrics_match_parent(*case)


@pytest.mark.parametrize("limit", [0.05, 0.3, 1.0])
@pytest.mark.parametrize(
    "scores, labels",
    [
        ([0.5], [0]), ([0.5], [1]),
        ([0.5, 0.5], [0, 1]), ([0.9, 0.1], [0, 1]), ([0.9, 0.1], [1, 0]),
        ([0.9, 0.1], [1, 1]), ([0.5, 0.5], [0, 0]),
    ],
)
def test_curve_metrics_of_one_and_two_pixels_match_parent(scores, labels, limit):
    maps = [np.array([scores], np.float32)]
    masks = [np.array([labels], np.uint8)]
    _assert_curve_metrics_match_parent(maps, masks, limit)


@pytest.mark.parametrize("seed", range(12))
def test_curve_metrics_of_tie_heavy_pools_match_parent(seed):
    _, maps, masks = _tie_heavy_inputs(seed)
    maps, masks = [t.array for t in maps], [m.bits for m in masks]
    for limit in (0.05, 0.3, 1.0):
        # aupro first as well: its scratch rows must not disturb tp and fpr
        _assert_curve_metrics_match_parent(maps, masks, limit, ["aupro", *_CURVE_METRICS])


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_bytes_match_parent_formulas(seed):
    image, maps, masks = _tie_heavy_inputs(seed)
    got = evaluate(image, maps, masks)
    limit = DEFAULT_FPR_LIMIT
    image_want = _parent_curve_metrics([image.scores[None]], [image.labels[None]], limit)
    pixel_want = _parent_curve_metrics([t.array for t in maps], [m.bits for m in masks], limit)
    want = [image_want[name] for name in ("auroc", "average_precision", "f1_max")]
    want += [pixel_want[name] for name in _CURVE_METRICS]
    assert [v.hex() for v in got.values()] == [v.hex() for v in want]


def _edge_pool(kind, seed):
    """One map of 12x12 whose scores and labels take an edge of the sweep."""
    rng = np.random.default_rng(seed)
    bits = (rng.random((12, 12)) < 0.3).astype(np.uint8)
    bits[0, 0], bits[-1, -1] = 1, 0
    if kind == "signed zeros":
        score = rng.choice(np.array([-0.0, 0.0, 0.25]), (12, 12))
    elif kind == "negative":
        score = np.round(rng.normal(-2.0, 1.0, (12, 12)), 1)
    elif kind == "subnormal":
        # float32 subnormals, 0 and the smallest normal
        score = rng.integers(0, 5, (12, 12)) * np.float32(2.0**-149)
        score[rng.random((12, 12)) < 0.2] = np.finfo(np.float32).tiny
    else:  # every pixel positive but one
        score = np.round(rng.random((12, 12)), 1)
        bits[:] = 1
        bits.flat[int(rng.integers(0, bits.size))] = 0
    return [score.astype(np.float32)], [bits]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["signed zeros", "negative", "subnormal", "all positive but one"])
def test_curve_metrics_of_edge_pools_match_parent(kind, seed):
    maps, masks = _edge_pool(kind, seed)
    for limit in (0.05, 0.3, 1.0):
        _assert_curve_metrics_match_parent(maps, masks, limit)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["signed zeros", "negative", "subnormal", "all positive but one"])
def test_curve_metrics_of_edge_pools_match_as_float32_and_float64(kind, seed):
    # the float32 pool is sorted as float32, its float64 cast as float64
    (score,), (bits,) = _edge_pool(kind, seed)
    masks = [BinaryMask(bits)]
    for limit in (0.05, 0.3, 1.0):
        got = {}
        for dtype in (np.float32, np.float64):
            pixels = LabeledScores(score.reshape(-1).astype(dtype), bits.reshape(-1))
            got[dtype] = [f(pixels, masks, limit).hex() for f in _CURVE_METRICS.values()]
        assert got[np.float32] == got[np.float64], limit


@pytest.mark.parametrize(
    "dtype, kept",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64),
     (np.int64, np.float64), (np.uint8, np.float64)],
)
def test_labeled_scores_keep_float32_and_widen_other_dtypes(dtype, kept):
    ls = LabeledScores(np.array([3, 1, 2], dtype=dtype), [1, 0, 1])
    assert ls.scores.dtype == kept and ls.scores.tolist() == [3.0, 1.0, 2.0]
    assert LabeledScores([0.5, 0.25], [1, 0]).scores.dtype == np.float64


@pytest.mark.parametrize("label", [0, 1])
def test_single_class_raises_without_runtime_warning(label):
    ls = LabeledScores([0.3, 0.3, 0.8, 0.1], [label] * 4)
    bits = np.full((2, 2), label, np.uint8)
    scores = Tensor(np.array([[0.3, 0.3], [0.8, 0.1]], np.float32))
    pixels = _pooled([scores], [BinaryMask(bits)])
    calls = [lambda: auroc(ls), lambda: aupro(pixels, [BinaryMask(bits)])]
    if label == 0:
        calls += [lambda: average_precision(ls), lambda: f1_max(ls)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(MetricPreconditionError):
                call()


@pytest.mark.parametrize("labels", [[0.7, 1.2, 1.0], [0.0, 1.0, 0.5]])
def test_labeled_scores_reject_labels_before_the_cast(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        LabeledScores([0.9, 0.1, 0.5], labels)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_, np.uint8, np.int64])
def test_labeled_scores_take_exact_labels_of_any_dtype(dtype):
    ls = LabeledScores([0.9, 0.1, 0.5], np.array([1, 0, 1], dtype=dtype))
    assert ls.labels.dtype == np.int64 and ls.labels.tolist() == [1, 0, 1]


def test_labeled_scores_hold_read_only_copies():
    scores, labels = np.array([0.1, 0.9, 0.4]), np.array([0, 1, 1])
    ls = LabeledScores(scores, labels)
    with pytest.raises(ValueError, match="read-only"):
        ls.scores[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        ls.labels[0] = 1
    # the caller's arrays stay writeable, and writing them leaves ls alone
    scores[1], labels[1] = -1.0, 0
    assert ls.scores[1] == 0.9 and ls.labels[1] == 1


# ------------------------------------------------------------- components


def test_components_empty_mask():
    rs = connected_components(BinaryMask(np.zeros((3, 3), np.uint8)))
    assert len(rs.regions) == 0


def test_components_diagonal_join():
    mask = BinaryMask(np.array([[1, 0], [0, 1]], np.uint8))
    rs = connected_components(mask)
    assert len(rs.regions) == 1
    assert sorted(rs.regions[0].tolist()) == [0, 3]


def test_components_separated_rows():
    mask = BinaryMask(np.array([[1, 1], [0, 0], [1, 1]], np.uint8))
    rs = connected_components(mask)
    assert len(rs.regions) == 2


def _assert_same_regions(bits):
    """Whole-RegionSet equality with the flood fill: extents, region order,
    and each region's sorted int64 flat indices."""
    got = connected_components(BinaryMask(bits))
    want = _flood_fill_regions(bits)
    assert (got.height, got.width) == (want.height, want.width)
    assert len(got.regions) == len(want.regions)
    for g, w in zip(got.regions, want.regions):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
    return got


@pytest.mark.parametrize("seed", range(15))
def test_components_match_flood_fill(seed):
    rng = np.random.default_rng(seed + 3000)
    _assert_same_regions((rng.random((9, 9)) > 0.6).astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    density=st.sampled_from([0.05, 0.3, 0.5, 0.6, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_components_property_match_flood_fill(h, w, density, seed):
    rng = np.random.default_rng(seed)
    _assert_same_regions((rng.random((h, w)) < density).astype(np.uint8))


def _serpentine(n):
    """One-pixel-wide path filling n x n: every even row, joined at
    alternating ends through the odd row between them."""
    bits = np.zeros((n, n), np.uint8)
    bits[::2] = 1
    for r in range(1, n - 1, 2):
        bits[r, n - 1 if r % 4 == 1 else 0] = 1
    return bits


def _spiral(n):
    """Square spiral walked inwards, arms one blank row or column apart."""
    bits = np.zeros((n, n), np.uint8)
    r, c, dr, dc = 0, 0, 0, 1
    bits[r, c] = 1
    inside = lambda y, x: 0 <= y < n and 0 <= x < n
    while True:
        for _ in range(2):  # straight on, else one turn to the right
            nr, nc = r + dr, c + dc
            ahead = inside(nr + dr, nc + dc) and bits[nr + dr, nc + dc]
            if inside(nr, nc) and not bits[nr, nc] and not ahead:
                r, c = nr, nc
                bits[r, c] = 1
                break
            dr, dc = dc, -dr
        else:
            return bits


def _bits(rows):
    """A mask drawn as rows of '#' (foreground) and '.', joined by '/'."""
    return np.array([[c == "#" for c in row] for row in rows.split("/")], np.uint8)


_STRESS_MASKS = {
    "serpentine-64": (_serpentine(64), 1),
    "spiral-40": (_spiral(40), 1),
    "checkerboard-64": ((np.indices((64, 64)).sum(axis=0) % 2 == 0).astype(np.uint8), 1),
    "all-ones": (np.ones((33, 17), np.uint8), 1),
    "all-zeros": (np.zeros((17, 33), np.uint8), 0),
    "one-by-n": ((np.arange(50) % 7 < 3).astype(np.uint8).reshape(1, 50), 8),
    "n-by-one": ((np.arange(50) % 7 < 3).astype(np.uint8).reshape(50, 1), 8),
    "one-by-one": (np.ones((1, 1), np.uint8), 1),
    # row runs: (r, w - 1) and (r + 1, 0) are adjacent in flat order only
    "row-wrap": (_bits("..#/#../..#"), 3),
    "row-wrap-runs": (_bits("..##/#.../...#/##.."), 4),
    # runs one row apart whose ends meet only at a corner, or miss by one
    "corner-right": (_bits("##.../..##./....#"), 1),
    "corner-left": (_bits("...##/.##../#...."), 1),
    "one-column-apart": (_bits("##.../...##"), 2),
}


@pytest.mark.parametrize("name", sorted(_STRESS_MASKS))
def test_components_stress_shapes_match_flood_fill(name):
    bits, count = _STRESS_MASKS[name]
    assert len(_assert_same_regions(bits).regions) == count


# ------------------------------------------------------------------ aupro


def _pooled(maps, masks):
    """The pooled pixels evaluate hands to aupro: every map's scores,
    labelled with the masks' bits."""
    scores = np.concatenate([t.array.reshape(-1) for t in maps]).astype(np.float64)
    return LabeledScores(scores, np.concatenate([m.bits.reshape(-1) for m in masks]))


# each layout: one (height, width, anomalous cells) triple per map
_PERFECT_LAYOUTS = {
    "one-square": [(4, 4, [(1, 1), (1, 2), (2, 1), (2, 2)])],
    "three-sizes": [
        (5, 5, [(0, 0), (2, 2), (2, 3), (3, 3)]),
        (4, 6, [(0, 4), (0, 5), (1, 4), (1, 5), (3, 0)]),
    ],
    "with-normal-map": [
        (6, 6, [(0, 0), (5, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]),
        (3, 3, []),
        (7, 5, [(0, 0), (0, 1), (4, 4), (6, 0), (6, 1), (6, 2)]),
    ],
}


@pytest.mark.parametrize("layout", sorted(_PERFECT_LAYOUTS))
def test_aupro_perfect_detector(layout):
    maps, masks = [], []
    for h, w, cells in _PERFECT_LAYOUTS[layout]:
        mask = np.zeros((h, w), np.uint8)
        for r, c in cells:
            mask[r, c] = 1
        maps.append(Tensor(mask.astype(np.float32)))
        masks.append(BinaryMask(mask))
    assert aupro(_pooled(maps, masks), masks, DEFAULT_FPR_LIMIT) == 1.0
    # the image scores only have to let evaluate reach the pixel metrics
    report = evaluate(LabeledScores([1.0, 0.0], [1, 0]), maps, masks)
    assert report.mad() == 1.0


def test_aupro_anti_correlated():
    # all negatives outrank all positives: overlap only appears once the
    # threshold has swept past every background pixel
    mask = np.zeros((4, 4), np.uint8)
    mask[0, 0] = 1
    score = 1.0 - mask.astype(np.float32)
    maps, masks = [Tensor(score)], [BinaryMask(mask)]
    got = aupro(_pooled(maps, masks), masks, 0.3)
    want = _exhaustive_aupro([score.astype(np.float64)], [mask], 0.3)
    assert abs(got - want) <= 1e-12
    assert got <= 0.05


def _flat_map_aupro(bits, fpr_limit=DEFAULT_FPR_LIMIT):
    masks = [BinaryMask(bits)]
    return aupro(_pooled([Tensor(np.ones((2, 2), np.float32))], masks), masks, fpr_limit)


def test_aupro_validates_limit():
    mask = np.ones((2, 2), np.uint8)
    mask[0, 0] = 0
    with pytest.raises(MetricPreconditionError):
        _flat_map_aupro(mask, 0.0)
    with pytest.raises(MetricPreconditionError):
        _flat_map_aupro(mask, 1.5)


def test_aupro_needs_a_region():
    with pytest.raises(MetricPreconditionError):
        _flat_map_aupro(np.zeros((2, 2), np.uint8))


def test_aupro_needs_a_negative_pixel():
    with pytest.raises(MetricPreconditionError):
        _flat_map_aupro(np.ones((2, 2), np.uint8))


@pytest.mark.parametrize(
    "labels",
    [[1, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0]],
    ids=["short", "long", "moved"],
)
def test_aupro_rejects_labels_that_are_not_the_masks_bits(labels):
    masks = [BinaryMask([[1, 0], [0, 0]])]
    pixels = LabeledScores(np.linspace(1.0, 0.0, len(labels)), labels)
    with pytest.raises(ValueError, match="^pooled labels are not the masks' bits$"):
        aupro(pixels, masks)


@pytest.mark.parametrize("seed", range(30))
def test_aupro_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed + 4000)
    n_maps = int(rng.integers(1, 4))
    maps, masks, raw_maps, raw_masks = [], [], [], []
    any_region = False
    for _ in range(n_maps):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        score = np.round(rng.random((h, w)), 1).astype(np.float32)
        bits = (rng.random((h, w)) > 0.7).astype(np.uint8)
        if bits.all():
            bits[0, 0] = 0
        any_region = any_region or bits.any()
        maps.append(Tensor(score))
        masks.append(BinaryMask(bits))
        raw_maps.append(score.astype(np.float64))
        raw_masks.append(bits)
    if not any_region:
        raw_masks[0][0, 0] = 1
        masks[0] = BinaryMask(raw_masks[0])
    limit = float(rng.choice([0.1, 0.3, 1.0]))
    got = aupro(_pooled(maps, masks), masks, limit)
    want = _exhaustive_aupro(raw_maps, raw_masks, limit)
    assert abs(got - want) <= 1e-9
    # the same pool with a map whose mask is empty second in it
    blank = np.round(rng.random((3, 4)), 1).astype(np.float32)
    raw_maps.insert(1, blank.astype(np.float64))
    raw_masks.insert(1, np.zeros((3, 4), np.uint8))
    maps.insert(1, Tensor(blank))
    masks.insert(1, BinaryMask(raw_masks[1]))
    got = aupro(_pooled(maps, masks), masks, limit)
    want = _exhaustive_aupro(raw_maps, raw_masks, limit)
    assert abs(got - want) <= 1e-9


@st.composite
def _aupro_case(draw):
    """Maps with few score levels (heavy ties) and sparse masks (single-pixel
    and larger regions), plus an fpr_limit of 1, a point on the curve, or
    any value in (0, 1]."""
    levels = draw(st.sampled_from([1, 2, 3, 5, 50]))
    maps, masks = [], []
    for _ in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        cells = st.lists(st.integers(0, levels - 1), min_size=h * w, max_size=h * w)
        maps.append((np.array(draw(cells)).reshape(h, w) / levels).astype(np.float32))
        hits = st.lists(st.booleans(), min_size=h * w, max_size=h * w)
        masks.append(np.array(draw(hits), np.uint8).reshape(h, w))
    assume(sum(m.size for m in masks) >= 2)
    masks[0].flat[0] = 1     # at least one region
    masks[-1].flat[-1] = 0   # at least one normal pixel

    kind = draw(st.sampled_from(["one", "curve-point", "any"]))
    if kind == "one":
        limit = 1.0
    elif kind == "curve-point":
        pooled = np.concatenate([t.reshape(-1) for t in maps])
        normal = np.concatenate([m.reshape(-1) == 0 for m in masks])
        points = {int((normal & (pooled >= t)).sum()) / int(normal.sum()) for t in pooled}
        limit = draw(st.sampled_from(sorted(p for p in points if p > 0)))
    else:
        limit = draw(st.floats(1e-3, 1.0))
    return maps, masks, limit


@settings(max_examples=200, deadline=None)
@given(case=_aupro_case())
def test_aupro_property_matches_exhaustive_oracle(case):
    maps, masks, limit = case
    bit_masks = [BinaryMask(m) for m in masks]
    got = aupro(_pooled([Tensor(t) for t in maps], bit_masks), bit_masks, limit)
    want = _exhaustive_aupro([t.astype(np.float64) for t in maps], masks, limit)
    assert abs(got - want) <= 1e-9
    assert 0.0 <= got <= 1.0


def _full_sweep_aupro(maps, masks, fpr_limit):
    """aupro as it was before its per-size sums stopped at the fpr_limit
    crossing: every size sums over all pooled pixels.  Same arithmetic
    otherwise, so the two must agree to the last bit."""
    pixel_sizes, region_sizes, scores = [], [], []
    for t, m in zip(maps, masks):
        sizes = np.zeros(m.height * m.width, dtype=np.int64)
        for region in connected_components(m).regions:
            sizes[region] = region.size
            region_sizes.append(region.size)
        pixel_sizes.append(sizes)
        scores.append(t.array.reshape(-1).astype(np.float64))
    all_sizes = np.concatenate(pixel_sizes)
    negatives = int((all_sizes == 0).sum())
    pooled = np.concatenate(scores)
    order = np.argsort(-pooled)
    ends = np.concatenate([np.nonzero(np.diff(pooled[order]))[0], [pooled.size - 1]])
    sorted_sizes = all_sizes[order]
    overlap = np.zeros(ends.size)
    for s in np.unique(region_sizes):
        overlap += np.cumsum(sorted_sizes == s)[ends] / s
    fpr = np.concatenate([[0.0], np.cumsum(sorted_sizes == 0)[ends] / negatives])
    pro = np.concatenate([[0.0], overlap / len(region_sizes)])
    inside = int(np.searchsorted(fpr, fpr_limit, side="right"))
    x, y = fpr[:inside], pro[:inside]
    if inside < fpr.size:
        seg = slice(inside - 1, inside + 1)
        x = np.append(x, fpr_limit)
        y = np.append(y, np.interp(fpr_limit, fpr[seg], pro[seg]))
    return float(_np_trapezoid(y, x)) / fpr_limit


def _many_sized_regions(seed, n_maps=4, size=32):
    """Maps holding rectangles of many distinct areas (1 to about 40 pixels,
    separated by one normal row or column) and scores with some ties."""
    rng = np.random.default_rng(seed)
    maps, masks = [], []
    for _ in range(n_maps):
        bits = np.zeros((size, size), np.uint8)
        r = 0
        while r < size - 1:
            tall = int(rng.integers(1, 5))
            c = 0
            while c < size - 1:
                wide = int(rng.integers(1, 11))
                bits[r:r + tall, c:c + wide] = 1
                c += wide + 1 + int(rng.integers(0, 4))
            r += tall + 1 + int(rng.integers(0, 3))
        score = bits + rng.normal(0.0, 0.8, bits.shape)
        score = np.round(score, 2 if rng.random() < 0.5 else 4)
        maps.append(Tensor(score.astype(np.float32)))
        masks.append(BinaryMask(bits))
    return maps, masks


@pytest.mark.parametrize("seed", range(3))
def test_aupro_truncated_sweep_matches_full_sweep(seed):
    maps, masks = _many_sized_regions(seed)
    sizes = {r.size for m in masks for r in connected_components(m).regions}
    assert len(sizes) >= 20
    # every point of the pooled FPR curve is itself a limit to try
    pooled = np.concatenate([t.array.reshape(-1) for t in maps]).astype(np.float64)
    normal = np.concatenate([m.bits.reshape(-1) == 0 for m in masks])
    levels = np.unique(pooled)[::-1]
    fp = np.array([(normal & (pooled >= t)).sum() for t in levels]) / normal.sum()
    curve = np.unique(fp[fp > 0])
    picked = curve[np.linspace(0, curve.size - 1, 12).astype(int)]
    pixels = _pooled(maps, masks)  # one cached sweep serves every limit
    for limit in [*picked.tolist(), 0.05, 0.3, DEFAULT_FPR_LIMIT, 0.999, 1.0]:
        got = aupro(pixels, masks, limit)
        want = _full_sweep_aupro(maps, masks, limit)
        assert got.hex() == want.hex(), limit


@pytest.mark.parametrize("seed", range(3))
def test_curve_metrics_of_many_sized_regions_match_parent(seed):
    maps, masks = _many_sized_regions(seed)
    maps, masks = [t.array for t in maps], [m.bits for m in masks]
    for limit in (0.3, 1.0):
        _assert_curve_metrics_match_parent(maps, masks, limit)


def test_aupro_order_invariant():
    rng = np.random.default_rng(5000)
    maps, masks = [], []
    for _ in range(3):
        score = rng.random((5, 5)).astype(np.float32)
        bits = (rng.random((5, 5)) > 0.7).astype(np.uint8)
        bits[2, 2] = 1
        bits[0, 0] = 0
        maps.append(Tensor(score))
        masks.append(BinaryMask(bits))
    a = aupro(_pooled(maps, masks), masks)
    b = aupro(_pooled(maps[::-1], masks[::-1]), masks[::-1])
    assert abs(a - b) <= 1e-12


# -------------------------------------------------------------------- mad


def test_mad_all_ones():
    assert mad([1.0] * 7) == 1.0


def test_mad_all_halves():
    assert mad([0.5] * 7) == 0.5


def test_mad_headline_row():
    vals = (0.986, 0.996, 0.978, 0.977, 0.563, 0.592, 0.931)
    got = mad(vals)
    np.testing.assert_allclose(got, 0.860428571428, rtol=1e-9)
    assert f"{got * 100:.1f}" == "86.0"


def test_mad_validates_input():
    with pytest.raises(ValueError):
        mad([0.5] * 6)
    with pytest.raises(ValueError):
        mad([0.5] * 6 + [1.5])


def test_mad_monotone_in_each_argument():
    base = [0.5] * 7
    for i in range(7):
        bumped = list(base)
        bumped[i] = 0.9
        assert mad(bumped) > mad(base)


# --------------------------------------------------------------- evaluate


def _perfect_fixture():
    masks, maps = [], []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        bits = np.zeros((6, 6), np.uint8)
        r, c = rng.integers(0, 4), rng.integers(0, 4)
        bits[r : r + 2, c : c + 2] = 1
        masks.append(BinaryMask(bits))
        maps.append(Tensor(bits.astype(np.float32)))
    image = LabeledScores([1.0, 1.0, 0.0], [1, 1, 0])
    return image, maps, masks


def test_evaluate_perfect_everything():
    image, maps, masks = _perfect_fixture()
    report = evaluate(image, maps, masks)
    assert report.values() == (1.0,) * 7
    assert report.mad() == 1.0


def test_evaluate_pixel_pooling_matches_standalone():
    rng = np.random.default_rng(9)
    maps, masks = [], []
    for _ in range(3):
        score = rng.random((5, 5)).astype(np.float32)
        bits = (rng.random((5, 5)) > 0.6).astype(np.uint8)
        bits[0, 0] = 1
        bits[4, 4] = 0
        maps.append(Tensor(score))
        masks.append(BinaryMask(bits))
    image = LabeledScores([0.9, 0.2, 0.6], [1, 0, 1])
    report = evaluate(image, maps, masks)

    pooled_scores = np.concatenate([t.array.reshape(-1) for t in maps]).astype(np.float64)
    pooled_labels = np.concatenate([m.bits.reshape(-1) for m in masks])
    pooled = LabeledScores(pooled_scores, pooled_labels)
    assert report.pixel_auroc == auroc(pooled)
    assert report.pixel_ap == average_precision(pooled)
    assert report.pixel_f1_max == f1_max(pooled)
    assert report.pixel_aupro == aupro(pooled, masks)
    assert report.image_auroc == auroc(image)


def _memory_guard_inputs():
    """16 maps of 64x64, every pixel its own score, half of them with a
    planted square and a disc."""
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[:64, :64]
    masks = []
    for i in range(16):
        bits = np.zeros((64, 64), np.uint8)
        if i % 2 == 0:
            r, c = (int(v) for v in rng.integers(2, 30, 2))
            bits[r : r + 10, c : c + 10] = 1
            bits[(yy - 48) ** 2 + (xx - 46) ** 2 <= 36] = 1
        masks.append(bits)
    raw = np.stack(masks) + rng.normal(0.0, 1.0, (16, 64, 64))
    ranks = np.empty(raw.size)
    ranks[np.argsort(raw, axis=None)] = np.arange(1, raw.size + 1) / raw.size
    maps = [Tensor(m.astype(np.float32)) for m in ranks.reshape(raw.shape)]
    image = LabeledScores([float(t.array.max()) for t in maps], [1 - i % 2 for i in range(16)])
    return image, maps, [BinaryMask(m) for m in masks]


def test_evaluate_memory_peak_per_pixel():
    # the plain formulas peaked at 82 bytes per pooled pixel on 262,144
    # tie-free pixels; the shared block must not trade memory for speed.
    # With the scores pooled as float32 the traced peak is 63.7
    image, maps, masks = _memory_guard_inputs()
    pixels = sum(t.array.size for t in maps)
    # the imports numpy makes on first use are not the sweep's
    evaluate(*_tie_heavy_inputs(0))
    tracemalloc.start()
    try:
        evaluate(image, maps, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pixels >= 1 << 16
    assert peak <= 82 * pixels, peak / pixels


def test_report_json_roundtrip():
    image, maps, masks = _perfect_fixture()
    report = evaluate(image, maps, masks)
    payload = json.loads(report.to_json())
    assert set(payload) >= {"image", "pixel", "mad"}
    image_part, pixel_part = payload["image"], payload["pixel"]
    got = (
        image_part["auroc"], image_part["ap"], image_part["f1_max"],
        pixel_part["auroc"], pixel_part["ap"], pixel_part["f1_max"], pixel_part["aupro"],
    )
    assert got == tuple(round(v, 6) for v in report.values())
    assert payload["mad"] == round(report.mad(), 6)


def test_report_json_rounds_to_six_decimals():
    r = MetricsReport(
        image_auroc=0.1234567891,
        image_ap=0.2,
        image_f1_max=0.3,
        pixel_auroc=0.4,
        pixel_ap=0.5,
        pixel_f1_max=0.6,
        pixel_aupro=0.7,
    )
    payload = json.loads(r.to_json())
    assert payload["image"]["auroc"] == 0.123457


def test_report_csv_cells_headline_row():
    r = MetricsReport(
        image_auroc=0.986,
        image_ap=0.996,
        image_f1_max=0.978,
        pixel_auroc=0.977,
        pixel_ap=0.563,
        pixel_f1_max=0.592,
        pixel_aupro=0.931,
    )
    assert r.csv_cells() == ("98.6/99.6/97.8", "97.7/56.3/59.2/93.1", "86.0")
