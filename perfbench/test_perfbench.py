"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the workloads for a second or two, so the whole file takes about
two minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return done, lines


def traced(workload, seed):
    done, lines = run_bench("--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    info = json.loads(next(l for l in lines if l.startswith("# trace "))[len("# trace "):])
    return result, info


EXACT = {
    "decode": ("ssm.state_updates", "ssm.bank_scan_calls", "blocks.hss_calls"),
    "decode-hires": ("ssm.state_updates", "ssm.bank_scan_calls", "blocks.hss_calls"),
    "evaluate": ("metrics.thresholds", "metrics.regions"),
}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_counts_repeat_exactly_across_seeds(workload):
    runs = [traced(workload, seed) for seed in (1, 2)]
    for result, info in runs:
        assert result["correct"] and result["failed"] == 0
        assert info["missing"] == [] and info["uncounted"] == []
        assert set(result["metrics"]) >= set(EXACT[workload])
    for name in EXACT[workload]:
        values = [r["metrics"][name]["value"] for r, _ in runs]
        assert values[0] > 0 and values[0] == values[1], (name, values)
    if workload == "decode":
        # one thread: self times of the spans inside the forward tile it
        for _, info in runs:
            assert abs(info["self_time_share"] - 1.0) <= 0.1


@pytest.mark.parametrize("workload", ["decode-hires", "evaluate"])
def test_corrupted_output_is_counted_and_fails_the_run(workload):
    done, lines = run_bench("--workload", workload, "--seed", "1",
                            "--seconds", "1", "--corrupt-request", "0")
    result = json.loads(lines[-1])
    assert done.returncode == 1
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] > 1


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done, lines = run_bench("--workload", "decode", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not any(l.startswith("{") for l in lines)


def test_removed_function_is_reported_missing(monkeypatch):
    import spans
    from ssmad import pipeline

    monkeypatch.setitem(spans.TRACED, "pipeline.gone", ("no_such_function", None))
    original = pipeline.pipeline_forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.pipeline_forward is not original
    finally:
        tracer.uninstall()
    assert tracer.missing == ["pipeline.gone"]
    assert pipeline.pipeline_forward is original


def test_independent_metrics_agree_with_ssmad():
    from ssmad import metrics, synth, tensor

    rng = np.random.default_rng(7)
    for rounding in (None, 1):
        maps, masks, labels = [], [], []
        for i in range(6):
            kind = "anomalous" if i % 2 == 0 else "normal"
            _, mask, _ = synth.make_fixture(kind, 32, 1, i)
            score = np.abs(mask.bits + rng.normal(0.0, 0.7, mask.bits.shape))
            if rounding is not None:
                score = np.round(score, rounding)  # tied thresholds
            maps.append(score.astype(np.float32))
            masks.append(mask.bits)
            labels.append(int(kind == "anomalous"))
        image_scores = [float(np.round(m.max())) for m in maps]
        report = metrics.evaluate(
            metrics.LabeledScores(np.array(image_scores), np.array(labels)),
            [tensor.Tensor(m) for m in maps],
            [tensor.BinaryMask(m) for m in masks],
        )
        want = checks.expected_report(image_scores, labels, maps, masks)
        checks.compare_report(report.values(), want)


def test_map_reader_rejects_bad_maps():
    from ssmad import tensor

    good = tensor.write_tensor(tensor.Tensor(np.ones((2, 3), dtype=np.float32)))
    assert checks.map_from_mbt(good, (2, 3)).shape == (2, 3)
    for bad_values in (np.full((2, 3), np.nan), -np.ones((2, 3))):
        buf = tensor.write_tensor(tensor.Tensor(bad_values.astype(np.float32)))
        with pytest.raises(checks.CheckFailed):
            checks.map_from_mbt(buf, (2, 3))
    with pytest.raises(checks.CheckFailed):
        checks.map_from_mbt(good, (3, 2))
