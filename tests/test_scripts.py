"""Smoke runs of every `scripts/*.py` entry point with tiny arguments.

Each script runs in a subprocess exactly as documented in its docstring, with
the package source on the import path, and must exit 0.  ``SMOKE`` must name
exactly the scripts that exist, so an added script cannot go untested.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


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


def _oracle_scores_saturate(result, out):
    report = json.loads((out / "report.json").read_text())
    values = [*report["image"].values(), *report["pixel"].values(), report["mad"]]
    assert values == [1.0] * 8


def _prints_locality_table(result, out):
    assert "locality on a 4x4 grid" in result.stdout


# script -> (arguments, with "{out}" standing for a fresh directory; check of
# the finished run)
SMOKE = {
    "e2e_demo.py": (["--out", "{out}", "--scores", "oracle"], _oracle_scores_saturate),
    "scan_gallery.py": (["--side", "4", "--no-matrix"], _prints_locality_table),
}


def test_smoke_table_names_every_script():
    assert sorted(SMOKE) == SCRIPTS


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_smoke(name, tmp_path):
    args, check = SMOKE[name]  # KeyError: the script has no smoke entry
    r = _run_script(name, *(a.replace("{out}", str(tmp_path)) for a in args))
    assert r.returncode == 0, r.stderr
    check(r, tmp_path)
