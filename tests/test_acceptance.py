"""Acceptance gate.

One test per headline guarantee:

  * the Hilbert rank matrix has its base case and is a valid curve
    through order six;
  * every method x direction schedule is a permutation whose inverse and
    gather/scatter round trip are exact;
  * the sequential scan equals the recurrence unrolled into a convolution;
  * the chunked bank scan, the decoder's scan, matches the sequential scan;
  * the HSS and LSS residual identities hold bit-exactly;
  * the metrics meet their oracles and worked examples, and the
    seven-metric mean formats to the headline cell;
  * the end-to-end smoke run is deterministic.

Each prints a single PASS/FAIL line with the measured runtime against its
budget (visible under ``pytest -s``), then asserts, so a red run names
exactly which guarantee broke.  The oracles here are intentionally
self-contained re-derivations, sharing no code with the library or the
other test modules; the one exception is the bank scan's, the sequential
scan, which the guarantee before it checks.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ssmad.blocks import hss_forward, lss_forward
from ssmad.metrics import (
    LabeledScores,
    aupro,
    auroc,
    average_precision,
    f1_max,
    mad,
)
from ssmad.pipeline import DecoderConfig, init_block_params, init_hss_params
from ssmad.scans import (
    ScanDirection,
    ScanMethod,
    NonSquareRotation,
    gather_sequence,
    hilbert_matrix,
    invert,
    make_schedule,
    scatter_sequence,
)
from ssmad.ssm import SsmDiscrete, scan_recurrent, ssm_bank_scan, zoh
from ssmad.tensor import BinaryMask, Rng, Tensor

ROOT = Path(__file__).resolve().parents[1]


def _verdict(name: str, ok: bool, elapsed: float, budget: float) -> None:
    state = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{state} {name}: {elapsed * 1000:.2f} ms (budget {budget * 1000:.0f} ms)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s at {elapsed:.3f}s"


def _best_of(fn, repeats=5):
    """Min wall time over a few repeats, for sub-millisecond budgets."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


# ---------------------------------------------------------------------------


def test_curve_rank_base_case():
    got, elapsed = _best_of(lambda: hilbert_matrix(1))
    ok = np.array_equal(got, [[1, 2], [4, 3]])
    _verdict("hilbert base case", ok, elapsed, 0.001)


def test_curve_rank_validity_through_order_six():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        ranks = hilbert_matrix(n)
        side = 2**n
        flat = np.sort(ranks.reshape(-1))
        if not np.array_equal(flat, np.arange(1, side * side + 1)):
            ok = False
            break
        # walk the curve: consecutive ranks must be edge neighbours
        rows = np.empty(side * side, dtype=np.int64)
        cols = np.empty(side * side, dtype=np.int64)
        rows[ranks.reshape(-1) - 1] = np.repeat(np.arange(side), side)
        cols[ranks.reshape(-1) - 1] = np.tile(np.arange(side), side)
        step = np.abs(np.diff(rows)) + np.abs(np.diff(cols))
        if not np.all(step == 1):
            ok = False
            break
    _verdict("hilbert validity n=1..6", ok, time.perf_counter() - t0, 1.0)


def test_schedule_permutation_suite():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for method in ScanMethod:
        for direction in ScanDirection:
            for side in (2, 4, 8):
                try:
                    sched = make_schedule(method, direction, side, side)
                except NonSquareRotation:  # cannot happen on squares
                    ok = False
                    continue
                cells = side * side
                if not np.array_equal(np.sort(sched.order), np.arange(cells)):
                    ok = False
                inv = invert(sched)
                if not np.array_equal(inv.order[sched.order], np.arange(cells)):
                    ok = False
                t = Tensor(
                    np.arange(2 * cells, dtype=np.float32).reshape(2, side, side)
                )
                back = scatter_sequence(gather_sequence(t, sched), sched)
                if back.array.tobytes() != t.array.tobytes():
                    ok = False
                checked += 1
    ok = ok and checked == 5 * 8 * 3
    _verdict("schedule permutation suite", ok, time.perf_counter() - t0, 5.0)


def test_recurrence_matches_convolution_on_random_instances():
    t0 = time.perf_counter()
    rng = Rng(101)
    worst = 0.0
    for _ in range(1000):
        n = 1 + int(rng.uniform(1, 0, 8)[0])
        length = 1 + int(rng.uniform(1, 0, 256)[0])
        a = rng.uniform(n, -2.0, -0.01)
        b = rng.uniform(n, -1.0, 1.0)
        c = rng.uniform(n, -1.0, 1.0)
        a_bar, b_bar = zoh(a, float(rng.uniform(1, 0.05, 1.0)[0]), b)
        x = rng.uniform(length, -1.0, 1.0)
        y_rec = scan_recurrent(SsmDiscrete(a_bar=a_bar, b_bar=b_bar, c=c), x)
        # the recurrence unrolled: y = K * x with K[k] = <c, a_bar^k b_bar>
        kernel = (c * b_bar * a_bar ** np.arange(length)[:, None]).sum(axis=1)
        y_conv = np.convolve(x, kernel)[:length]
        scale = max(float(np.max(np.abs(y_rec))), 1e-30)
        worst = max(worst, float(np.max(np.abs(y_conv - y_rec))) / scale)
    _verdict(
        f"recurrence vs convolution, worst rel {worst:.2e}",
        worst <= 1e-12,
        time.perf_counter() - t0,
        10.0,
    )


def test_bank_scan_matches_sequential():
    t0 = time.perf_counter()
    rng = Rng(202)
    worst = 0.0
    for length in (1, 2, 3, 5, 17, 100, 512, 1023, 2048, 4096):
        for _ in range(3):
            n = 1 + int(rng.uniform(1, 0, 8)[0])
            a = rng.uniform(n, -2.0, -0.01)
            b = rng.uniform(n, -1.0, 1.0)
            c = rng.uniform(n, -1.0, 1.0)
            delta = float(rng.uniform(1, 0.05, 1.0)[0])
            x = rng.uniform(length, -1.0, 1.0)
            a_bar, b_bar = zoh(a, delta, b)
            y_seq = scan_recurrent(SsmDiscrete(a_bar=a_bar, b_bar=b_bar, c=c), x)
            # the chunked scan as the decoder runs it, on a bank of one channel
            y_bank = ssm_bank_scan(a[None], b[None], c[None], np.array([delta]), x[None])[0]
            scale = max(float(np.max(np.abs(y_seq))), 1e-30)
            worst = max(worst, float(np.max(np.abs(y_bank - y_seq))) / scale)
    _verdict(
        f"bank scan vs sequential, worst rel {worst:.2e}",
        worst <= 1e-12,
        time.perf_counter() - t0,
        10.0,
    )


def test_residual_identities_hold_bit_exactly():
    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        channels = int(rng.choice([2, 3, 4, 8]))
        k = int(rng.choice([1, 2, 4, 8]))
        method = ScanMethod(rng.choice([m.value for m in ScanMethod]))
        directions = tuple(list(ScanDirection)[:k])
        x = Tensor(rng.standard_normal((channels, 8, 8)).astype(np.float32))

        hss_cfg = DecoderConfig(
            state_size=int(rng.integers(1, 4)),
            expansion=2,
            scan_method=method,
            directions=directions,
        )
        hss = init_hss_params(Rng(seed), hss_cfg, channels)
        hss = replace(
            hss,
            out_weight=np.zeros_like(hss.out_weight),
            out_bias=np.zeros_like(hss.out_bias),
        )
        if hss_forward(x, hss).array.tobytes() != x.array.tobytes():
            ok = False

        hss_blocks = int(rng.integers(1, 3))
        cfg = DecoderConfig(
            state_size=int(rng.integers(1, 4)),
            scan_method=method,
            directions=directions,
        )
        params = init_block_params(Rng(seed), cfg, channels, hss_blocks)
        params = replace(
            params,
            hss=tuple(
                replace(
                    h,
                    out_weight=np.zeros_like(h.out_weight),
                    out_bias=np.zeros_like(h.out_bias),
                )
                for h in params.hss
            ),
            fuse_weight=np.zeros_like(params.fuse_weight),
            fuse_bias=np.zeros_like(params.fuse_bias),
        )
        if lss_forward(x, params).array.tobytes() != x.array.tobytes():
            ok = False
    _verdict("residual identities, 20 configs", ok, time.perf_counter() - t0, 5.0)


# ----------------------------------------------------------------- metrics


def _oracle_auroc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (
        pos[:, None] == neg[None, :]
    ).sum()
    return float(wins) / (len(pos) * len(neg))


def _oracle_pr_rows(scores, labels):
    p_total = int(labels.sum())
    rows = []
    for t in sorted(set(scores.tolist()), reverse=True):
        hit = scores >= t
        tp = int((hit & (labels == 1)).sum())
        fp = int((hit & (labels == 0)).sum())
        rows.append((tp / (tp + fp), tp / p_total, 2 * tp / (tp + fp + p_total)))
    return rows


def _oracle_ap(scores, labels):
    ap, prev = 0.0, 0.0
    for precision, recall, _ in _oracle_pr_rows(scores, labels):
        ap += (recall - prev) * precision
        prev = recall
    return ap


def _oracle_regions(bits):
    h, w = bits.shape
    seen = np.zeros_like(bits, dtype=bool)
    regions = []
    for r0 in range(h):
        for c0 in range(w):
            if bits[r0, c0] and not seen[r0, c0]:
                stack, cells = [(r0, c0)], []
                seen[r0, c0] = True
                while stack:
                    r, c = stack.pop()
                    cells.append((r, c))
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < h and 0 <= cc < w:
                                if bits[rr, cc] and not seen[rr, cc]:
                                    seen[rr, cc] = True
                                    stack.append((rr, cc))
                regions.append(cells)
    return regions


def _oracle_aupro(score, bits, fpr_limit=0.3):
    regions = _oracle_regions(bits)
    negatives = int((bits == 0).sum())
    points = [(0.0, 0.0)]
    for t in sorted(set(score.reshape(-1).tolist()), reverse=True):
        hit = score >= t
        pro = float(
            np.mean([np.mean([hit[r, c] for r, c in cells]) for cells in regions])
        )
        fpr = float((hit & (bits == 0)).sum()) / negatives
        points.append((fpr, pro))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= fpr_limit:
            area += (x1 - x0) * (y0 + y1) / 2
        elif x0 < fpr_limit:
            frac = (fpr_limit - x0) / (x1 - x0)
            yc = y0 + frac * (y1 - y0)
            area += (fpr_limit - x0) * (y0 + yc) / 2
            break
        else:
            break
    return area / fpr_limit


def _random_scored(rng):
    n = int(rng.integers(2, 60))
    scores = rng.standard_normal(n)
    if rng.random() < 0.3:
        scores = np.round(scores, 1)  # exercise the tie handling
    labels = rng.integers(0, 2, n)
    labels[rng.integers(0, n)] = 1
    labels[np.argmin(scores + labels * 1e9)] = 0  # keep both classes present
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    return scores, labels


def test_metric_oracles_and_worked_examples():
    t0 = time.perf_counter()
    ok = True

    # worked examples, exact
    ranked = LabeledScores([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    ok = ok and auroc(ranked) == 0.75
    ok = ok and abs(average_precision(ranked) - 5 / 6) < 1e-12
    ok = ok and abs(f1_max(LabeledScores([0.9, 0.8, 0.1], [1, 0, 1])) - 0.8) < 1e-12

    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        scores, labels = _random_scored(rng)
        ls = LabeledScores(scores, labels)
        worst = max(worst, abs(auroc(ls) - _oracle_auroc(scores, labels)))
        worst = max(worst, abs(average_precision(ls) - _oracle_ap(scores, labels)))
        f1_want = max(f1 for _, _, f1 in _oracle_pr_rows(scores, labels))
        worst = max(worst, abs(f1_max(ls) - f1_want))

        side = int(rng.integers(4, 17))
        bits = (rng.random((side, side)) < 0.25).astype(np.uint8)
        bits[tuple(rng.integers(0, side, 2))] = 1
        bits[tuple(rng.integers(0, side, 2))] = 0  # at least one negative
        if bits.min() == 1:
            bits[0, 0] = 0
        score = rng.random((side, side)).astype(np.float32).astype(np.float64)
        pixels = LabeledScores(score.reshape(-1), bits.reshape(-1))
        got = aupro(pixels, [BinaryMask(bits)])
        want = _oracle_aupro(score, bits)
        worst = max(worst, abs(got - want))
    ok = ok and worst <= 1e-9
    _verdict(
        f"metric oracles, worst abs diff {worst:.2e}",
        ok,
        time.perf_counter() - t0,
        30.0,
    )


def test_seven_metric_mean_formats_to_headline_cell():
    values = (0.986, 0.996, 0.978, 0.977, 0.563, 0.592, 0.931)
    cell, elapsed = _best_of(lambda: f"{100.0 * mad(values):.1f}")
    _verdict("seven-metric mean cell", cell == "86.0", elapsed, 0.001)


# ------------------------------------------------------------- end to end


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ssmad", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _smoke_run(root) -> dict[str, bytes]:
    """synth -> forward -> eval on a 16x16 micro setup, returning all bytes."""
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"stage_depths": [1, 1, 1, 1], "hss_per_stage": [1, 1, 1, 1],
             "state_size": 2, "seed": 7}
        )
    )
    samples = []
    for name, kind, label, seed in (
        ("anom", "anomalous", 1, 3),
        ("norm", "normal", 0, 4),
    ):
        d = root / name
        r = _run_cli(
            ["synth", "--kind", kind, "--size", "16", "--channels", "4",
             "--seed", str(seed), "--out", str(d)]
        )
        assert r.returncode == 0, r.stderr
        r = _run_cli(
            ["forward",
             "--pyramid", str(d / "feat_0.mbt"), str(d / "feat_1.mbt"),
             str(d / "feat_2.mbt"),
             "--config", str(cfg),
             "--out-map", str(d / "map.mbt"),
             "--out-json", str(d / "rec.json")]
        )
        assert r.returncode == 0, r.stderr
        record = json.loads((d / "rec.json").read_text())
        assert np.isfinite(record["loss"]) and np.isfinite(record["image_score"])
        samples.append(
            {"score_map": f"{name}/map.mbt", "mask": f"{name}/mask.pgm",
             "image_score": record["image_score"], "image_label": label}
        )
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"samples": samples}))
    r = _run_cli(
        ["eval", "--manifest", str(manifest),
         "--out-json", str(root / "report.json"),
         "--out-csv", str(root / "report.csv")]
    )
    assert r.returncode == 0, r.stderr
    artifacts = {}
    for rel in ("anom/map.mbt", "norm/map.mbt", "anom/rec.json",
                "norm/rec.json", "report.json", "report.csv"):
        artifacts[rel] = (root / rel).read_bytes()
    return artifacts


def test_end_to_end_smoke_is_deterministic(tmp_path):
    t0 = time.perf_counter()
    first = _smoke_run(tmp_path / "run1")
    second = _smoke_run(tmp_path / "run2")
    ok = set(first) == set(second) and all(
        first[k] == second[k] for k in first
    )
    report = json.loads(first["report.json"].decode())
    ok = ok and all(np.isfinite(v) for v in
                    (report["image"]["auroc"], report["pixel"]["auroc"],
                     report["mad"]))
    _verdict("end-to-end smoke, two identical runs", ok,
             time.perf_counter() - t0, 30.0)
