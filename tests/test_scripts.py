"""Smoke runs of the `scripts/` entry points with tiny arguments.

Each script runs in a subprocess exactly as documented in its docstring, with
the package source on the import path, and must exit 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_e2e_demo_oracle_scores_saturate(tmp_path):
    r = _run_script("e2e_demo.py", "--out", str(tmp_path), "--scores", "oracle")
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    values = [*report["image"].values(), *report["pixel"].values(), report["mad"]]
    assert len(values) == 8
    assert values == [1.0] * 8


def test_scan_gallery_small_grid():
    r = _run_script("scan_gallery.py", "--side", "4", "--no-matrix")
    assert r.returncode == 0, r.stderr
    assert "locality on a 4x4 grid" in r.stdout


def test_kernel_report_small_sizes():
    r = _run_script(
        "kernel_report.py",
        "--instances", "3",
        "--max-len", "32",
        "--lengths", "64",
        "--repeats", "1",
    )
    assert r.returncode == 0, r.stderr
    assert "ssm_bank_scan" in r.stdout
