"""End-to-end checks of the command-line front end.

Everything here drives the installed entry point through subprocess so the
argparse wiring, exit codes, and file outputs are exercised exactly the way
a shell user would hit them.  Fault injection and the Hypothesis fuzz tests
call cli.main() in-process instead.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ssmad import cli, synth
from ssmad.metrics import LabeledScores, aupro
from ssmad.pipeline import MAX_MAP_CELLS
from ssmad.scans import MAX_GRID_CELLS, ScanDirection, ScanMethod, make_schedule
from ssmad.tensor import Tensor, read_mask_pgm_file, read_tensor_file, write_tensor_file


ROOT = Path(__file__).resolve().parents[1]


def _run(args):
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


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    """Two anomalous fixtures plus one normal one, written once and shared,
    and two bad score maps for their 16x16 masks: one 8x8, one finite but
    for a single Inf pixel."""
    root = tmp_path_factory.mktemp("fixtures")
    specs = [("a0", "anomalous", 3), ("a1", "anomalous", 4), ("n0", "normal", 5)]
    for name, kind, seed in specs:
        synth.write_fixture(str(root / name), kind, 16, 4, seed)
    write_tensor_file(root / "small_map.mbt", Tensor(np.zeros((8, 8), np.float32)))
    inf_map = np.zeros((16, 16), np.float32)
    inf_map.flat[3] = np.inf
    write_tensor_file(root / "inf_map.mbt", Tensor(inf_map))
    return root


_MICRO_CONFIG = {"stage_depths": [1, 1, 1, 1], "hss_per_stage": [1, 1, 1, 1], "state_size": 2}


@pytest.fixture(scope="module")
def micro_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.json"
    path.write_text(json.dumps({**_MICRO_CONFIG, "seed": 7}))
    return path


def _pyramid_args(fixture_dir):
    return [
        "--pyramid",
        str(fixture_dir / "feat_0.mbt"),
        str(fixture_dir / "feat_1.mbt"),
        str(fixture_dir / "feat_2.mbt"),
    ]


# ---------------------------------------------------------------------------
# scan-order


def test_scan_order_hilbert_2x2_json():
    r = _run(["scan-order", "hilbert", "forward", "2", "2"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == [0, 1, 3, 2]


def test_scan_order_sweep_wh_non_square():
    # column-major traversal of a 2x3 map, indices stay in the 2x3 frame
    r = _run(["scan-order", "sweep", "wh-forward", "2", "3"])
    assert r.returncode == 0
    assert json.loads(r.stdout) == [0, 3, 1, 4, 2, 5]


def test_scan_order_hilbert_odd_grid_is_usage_error():
    r = _run(["scan-order", "hilbert", "forward", "3", "3"])
    assert r.returncode == 2
    assert "error" in r.stderr


def test_scan_order_unknown_method_rejected_by_argparse():
    r = _run(["scan-order", "spiral", "forward", "2", "2"])
    assert r.returncode == 2


def test_scan_order_csv_format():
    r = _run(["scan-order", "sweep", "forward", "2", "2", "--format", "csv"])
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "step,row,col",
        "0,0,0",
        "1,0,1",
        "2,1,0",
        "3,1,1",
    ]


def test_scan_order_out_file(tmp_path):
    out = tmp_path / "order.json"
    r = _run(["scan-order", "zigzag", "forward", "3", "3", "--out", str(out)])
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(out.read_text()) == [0, 1, 3, 6, 4, 2, 5, 7, 8]


def _scan_order_whole_text(sched, fmt):
    """scan-order's text built in one piece, as the command first wrote it."""
    if fmt == "json":
        return json.dumps([int(v) for v in sched.order])
    lines = ["step,row,col"]
    for step, cell in enumerate(sched.order):
        lines.append(f"{step},{cell // sched.width},{cell % sched.width}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "method, direction, h, w",
    [
        ("hilbert", "forward", 2, 2),
        ("hilbert", "reverse", 256, 256),
        ("sweep", "wh-forward", 3, 5),
        ("sweep", "forward", 1, 40001),
        ("sweep", "wh-reverse", 40001, 1),
        ("sweep", "forward", 1, 1),
        ("zorder", "forward", 1, 32768),
        ("zorder", "wh-forward", 32768, 1),
        ("zorder", "reverse", 64, 128),
    ],
)
def test_scan_order_pieces_match_whole_text(tmp_path, capsys, fmt, method, direction, h, w):
    sched = make_schedule(ScanMethod(method), ScanDirection(direction), h, w)
    want = _scan_order_whole_text(sched, fmt)
    out = tmp_path / "order.txt"
    args = ["scan-order", method, direction, str(h), str(w), "--format", fmt]
    assert cli.main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (want if want.endswith("\n") else want + "\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_order_output_memory_stays_near_the_schedule(tmp_path, fmt):
    # the schedule is made (and cached) first: only the writing is measured
    sched = make_schedule(ScanMethod.HILBERT, ScanDirection.FORWARD, 512, 512)
    args = ["scan-order", "hilbert", "forward", "512", "512", "--format", fmt]
    tracemalloc.start()
    try:
        code = cli.main([*args, "--out", str(tmp_path / "order.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= sched.order.nbytes + sched.inverse.nbytes


# ---------------------------------------------------------------------------
# ssm-check


def test_ssm_check_passes():
    r = _run(["ssm-check", "--instances", "5", "--max-len", "32"])
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert set(report) == {"seed", "max_len", "bank_vs_recurrent", "pass"}
    assert report["pass"] is True
    check = report["bank_vs_recurrent"]
    assert check["pass"] is True and check["instances"] == 5
    assert check["worst_rel_error"] <= check["tolerance"] == 1e-12


def test_ssm_check_report_is_deterministic():
    args = ["ssm-check", "--seed", "9", "--instances", "4"]
    first = _run(args)
    second = _run(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_ssm_check_degenerate_length_one():
    r = _run(["ssm-check", "--max-len", "1", "--instances", "3"])
    assert r.returncode == 0


def test_ssm_check_failure_exits_one(monkeypatch, capsys, tmp_path):
    # fault injection: the bank scan is off by one everywhere
    bank_scan = cli.ssm_bank_scan
    monkeypatch.setattr(cli, "ssm_bank_scan", lambda *a: bank_scan(*a) + 1.0)
    out = tmp_path / "report.json"
    code = cli.main(["ssm-check", "--instances", "2", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["bank_vs_recurrent"]["pass"] is False


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ssm_check_catches_a_1e_9_fault(monkeypatch, capsys, tmp_path, seed):
    # a relative fault of 1e-9 is a thousand times the tolerance, and far
    # below what a float32 oracle could see
    bank_scan = cli.ssm_bank_scan
    monkeypatch.setattr(cli, "ssm_bank_scan", lambda *a: bank_scan(*a) * (1 + 1e-9))
    out = tmp_path / "report.json"
    code = cli.main(["ssm-check", "--seed", str(seed), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["bank_vs_recurrent"]["pass"] is False
    assert report["bank_vs_recurrent"]["worst_rel_error"] > 1e-10


# ---------------------------------------------------------------------------
# forward


def test_forward_writes_map_and_record(fixture_dirs, micro_config, tmp_path):
    out_map = tmp_path / "map.mbt"
    out_json = tmp_path / "rec.json"
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "a0"),
            "--config",
            str(micro_config),
            "--out-map",
            str(out_map),
            "--out-json",
            str(out_json),
        ]
    )
    assert r.returncode == 0, r.stderr
    amap = read_tensor_file(out_map)
    assert amap.shape == (16, 16)
    assert np.all(np.isfinite(amap.data))
    record = json.loads(out_json.read_text())
    assert record["map_shape"] == [16, 16]
    assert record["loss"] > 0.0
    assert np.isfinite(record["image_score"])
    assert record["identity_decoder"] is False


def test_forward_is_deterministic(fixture_dirs, micro_config, tmp_path):
    maps = []
    for i in range(2):
        out_map = tmp_path / f"map{i}.mbt"
        r = _run(
            [
                "forward",
                *_pyramid_args(fixture_dirs / "a0"),
                "--config",
                str(micro_config),
                "--out-map",
                str(out_map),
            ]
        )
        assert r.returncode == 0, r.stderr
        maps.append(out_map.read_bytes())
    assert maps[0] == maps[1]


@pytest.mark.parametrize(
    "config, named",
    [
        ([1, 2], "JSON object"),
        ({"stage_depths": [1, 1, 1, 1], "state_sise": 2}, "state_sise"),
        ({"stage_depths": [1, 1, 1, 1], "state_size": 0}, "state_size"),
        ({"local_kernels": [4, 0]}, "bad config: local_kernels"),
        ({"local_kernels": [5]}, "bad config: local_kernels"),
        ({"directions": ["forward", "forward"]}, "bad config: directions must be distinct"),
        ({"directions": ["forward", "reverse", "wh-forward"]}, "bad config: direction count"),
        ({"stage_depths": "1111", "hss_per_stage": [1, 1, 1, 1]},
         "bad config: expected a list, got '1111'"),
        ({"directions": "forward"}, "bad config: expected a list, got 'forward'"),
        ({"stage_channels": [1, 2, 3, 4]}, "bad config: stage_channels (1, 2, 3, 4)"),
        ({"stage_depths": [1.9, 1, 1, 1]}, "bad config: expected a JSON integer, got 1.9"),
        ({"hss_per_stage": [1, 1, 1, True]}, "bad config: expected a JSON integer, got True"),
        ({"stage_channels": [8, 8, 8.0, 8]}, "bad config: expected a JSON integer, got 8.0"),
        ({"local_kernels": [3.0]}, "bad config: expected a JSON integer, got 3.0"),
        ({"state_size": 2.7}, "bad config: expected a JSON integer, got 2.7"),
        ({"expansion": True}, "bad config: expected a JSON integer, got True"),
        ({"seed": "7"}, "bad config: expected a JSON integer, got '7'"),
    ],
    ids=["array", "unknown-key", "state-size-0", "even-kernels", "one-kernel",
         "repeated-direction", "three-directions", "string-for-list",
         "string-for-directions", "stage-channels", "float-depth", "bool-hss-count",
         "float-channels", "float-kernel", "float-state-size", "bool-expansion",
         "string-seed"],
)
def test_forward_rejects_bad_config(fixture_dirs, tmp_path, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "a0"),
            "--config",
            str(path),
            "--out-map",
            str(tmp_path / "m.mbt"),
        ]
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert named in r.stderr
    assert not (tmp_path / "m.mbt").exists()


def test_forward_identity_decoder_zero_loss(fixture_dirs, tmp_path):
    out_json = tmp_path / "rec.json"
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "n0"),
            "--identity-decoder",
            "--out-map",
            str(tmp_path / "m.mbt"),
            "--out-json",
            str(out_json),
        ]
    )
    assert r.returncode == 0, r.stderr
    record = json.loads(out_json.read_text())
    assert record["loss"] == 0.0
    assert record["image_score"] <= 1e-12
    assert record["identity_decoder"] is True


def test_forward_save_then_load_params(fixture_dirs, micro_config, tmp_path):
    params_dir = tmp_path / "params"
    first = tmp_path / "first.mbt"
    second = tmp_path / "second.mbt"
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "a1"),
            "--config",
            str(micro_config),
            "--save-params",
            str(params_dir),
            "--out-map",
            str(first),
        ]
    )
    assert r.returncode == 0, r.stderr
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "a1"),
            "--config",
            str(micro_config),
            "--params",
            str(params_dir),
            "--out-map",
            str(second),
        ]
    )
    assert r.returncode == 0, r.stderr
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("value", [np.nan, 0.5])
def test_forward_rejects_bad_bank_params(fixture_dirs, micro_config, tmp_path, value):
    # one NaN, or one non-decaying entry (a >= 0), in a saved bank tensor
    params_dir = tmp_path / "params"
    base = ["forward", *_pyramid_args(fixture_dirs / "a1"), "--config", str(micro_config)]
    r = _run([*base, "--save-params", str(params_dir), "--out-map", str(tmp_path / "a.mbt")])
    assert r.returncode == 0, r.stderr
    bank_file = params_dir / "stage0.lss0.hss0.bank.a.mbt"
    a = read_tensor_file(bank_file).array.copy()
    a.flat[0] = value
    write_tensor_file(bank_file, Tensor(a))
    r = _run([*base, "--params", str(params_dir), "--out-map", str(tmp_path / "b.mbt")])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
    assert "stage0.lss0.hss0.bank" in r.stderr


@pytest.fixture(scope="module")
def saved_params(fixture_dirs, tmp_path_factory):
    """Parameter directories saved by forward under the micro config and
    under a deeper one; load tests copy and corrupt them."""
    root = tmp_path_factory.mktemp("saved")
    deep = {**_MICRO_CONFIG, "stage_depths": [2, 2, 2, 2], "hss_per_stage": [2, 1, 1, 1]}
    for name, config in (("micro", _MICRO_CONFIG), ("deep", deep)):
        path = root / f"{name}.json"
        path.write_text(json.dumps(config))
        r = _run(["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(path),
                  "--save-params", str(root / name), "--out-map", str(root / f"{name}.mbt")])
        assert r.returncode == 0, r.stderr
    return root


def _load_params_exits_two(fixture_dirs, tmp_path, params_dir, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_map = tmp_path / "m.mbt"
    r = _run(["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(path),
              "--params", str(params_dir), "--out-map", str(out_map)])
    assert r.returncode == 2
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert named in r.stderr
    assert not out_map.exists()


def _drop_entry(tensors):
    del tensors["adapter1.bias"]


def _add_entry(tensors):
    tensors["extra.weight"] = dict(tensors["fuse.weight"])


@pytest.mark.parametrize(
    "saved, config, edit, named",
    [
        ("deep", {}, None, "stage0.lss0.hss1.bank.a is in the parameter manifest but not in"),
        ("micro", {"state_size": 3}, None, "stage0.lss0.hss0.bank.a has shape"),
        ("micro", {"local_kernels": [3, 9]}, None, "stage0.lss0.local5.dw_weight has shape"),
        ("micro", {}, _drop_entry, "adapter1.bias is missing from the parameter manifest"),
        ("micro", {}, _add_entry, "extra.weight is in the parameter manifest but not in"),
    ],
    ids=["fewer-modules", "state-size", "local-kernels", "missing-tensor", "extra-tensor"],
)
def test_forward_rejects_params_of_another_config(
    fixture_dirs, saved_params, tmp_path, saved, config, edit, named
):
    params_dir = tmp_path / "params"
    shutil.copytree(saved_params / saved, params_dir)
    if edit is not None:
        manifest = json.loads((params_dir / "manifest.json").read_text())
        edit(manifest["tensors"])
        (params_dir / "manifest.json").write_text(json.dumps(manifest))
    _load_params_exits_two(fixture_dirs, tmp_path, params_dir, {**_MICRO_CONFIG, **config}, named)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-4])


def _clobber_magic(path):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


@pytest.mark.parametrize("corrupt", [_truncate, _clobber_magic],
                         ids=["truncated-tensor", "bad-magic"])
def test_forward_names_unreadable_params_tensor(fixture_dirs, saved_params, tmp_path, corrupt):
    params_dir = tmp_path / "params"
    shutil.copytree(saved_params / "micro", params_dir)
    corrupt(params_dir / "stage0.lss0.hss0.in_weight.mbt")
    _load_params_exits_two(fixture_dirs, tmp_path, params_dir, _MICRO_CONFIG,
                           "stage0.lss0.hss0.in_weight")


@pytest.mark.parametrize(
    "manifest, named",
    [
        ([], "unrecognised parameter manifest"),
        ({"format": "mbt-dir/1", "tensors": []}, "must map tensor names to entries"),
        ({"format": "mbt-dir/1", "tensors": {"fuse.weight": 5}},
         "fuse.weight: manifest entry must hold a file name and a shape list"),
    ],
    ids=["array", "tensors-array", "entry-int"],
)
def test_forward_rejects_malformed_params_manifest(fixture_dirs, tmp_path, manifest, named):
    params_dir = tmp_path / "params"
    params_dir.mkdir()
    (params_dir / "manifest.json").write_text(json.dumps(manifest))
    _load_params_exits_two(fixture_dirs, tmp_path, params_dir, _MICRO_CONFIG, named)


def test_forward_missing_pyramid_file(tmp_path):
    r = _run(
        [
            "forward",
            "--pyramid",
            str(tmp_path / "nope0.mbt"),
            str(tmp_path / "nope1.mbt"),
            str(tmp_path / "nope2.mbt"),
            "--out-map",
            str(tmp_path / "m.mbt"),
        ]
    )
    assert r.returncode == 2
    assert "cannot read" in r.stderr


def test_forward_rejects_non_finite_pyramid(fixture_dirs, tmp_path):
    args = _pyramid_args(fixture_dirs / "a0")
    bad = read_tensor_file(args[1]).array.copy()
    bad[0, 0, 0] = np.nan
    args[1] = str(tmp_path / "nan.mbt")
    write_tensor_file(args[1], Tensor(bad))
    r = _run(["forward", *args, "--out-map", str(tmp_path / "m.mbt")])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "nan.mbt" in r.stderr and "non-finite" in r.stderr


def test_forward_requires_out_map(fixture_dirs):
    r = _run(["forward", *_pyramid_args(fixture_dirs / "a0")])
    assert r.returncode == 2


def test_forward_map_size_override(fixture_dirs, micro_config, tmp_path):
    out_map = tmp_path / "big.mbt"
    r = _run(
        [
            "forward",
            *_pyramid_args(fixture_dirs / "a0"),
            "--config",
            str(micro_config),
            "--map-size",
            "32",
            "--out-map",
            str(out_map),
        ]
    )
    assert r.returncode == 0, r.stderr
    assert read_tensor_file(out_map).shape == (32, 32)


@pytest.mark.parametrize("size", ["0", "-2"])
def test_forward_rejects_map_size_below_one(fixture_dirs, tmp_path, size):
    out_map = tmp_path / "m.mbt"
    r = _run(
        ["forward", *_pyramid_args(fixture_dirs / "a0"), "--map-size", size,
         "--out-map", str(out_map)]
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "--map-size" in r.stderr
    assert not out_map.exists()


def _with_outputs(args, fixture_dirs, tmp_path):
    """The required inputs and outputs of a forward or synth command line."""
    if args[0] == "forward":
        return [*args, *_pyramid_args(fixture_dirs / "a0"), "--out-map", str(tmp_path / "m.mbt")]
    if args[0] == "synth":
        return [*args, "--out", str(tmp_path / "fixture")]
    return args


@pytest.mark.parametrize(
    "args, named",
    [
        (["scan-order", "sweep", "forward", "100000", "100000"], "MAX_GRID_CELLS"),
        (["forward", "--map-size", "200000"], "MAX_MAP_CELLS"),
        (["synth", "--kind", "normal", "--size", "100000"], "MAX_MAP_CELLS"),
        (["synth", "--kind", "normal", "--size", "16", "--channels", "100000000"],
         "MAX_MAP_CELLS"),
        (["ssm-check", "--max-len", "1000000000", "--instances", "1"], "MAX_GRID_CELLS"),
    ],
    ids=["scan-order", "map-size", "synth-size", "synth-channels", "ssm-check-max-len"],
)
def test_oversized_extent_exits_two(fixture_dirs, tmp_path, args, named):
    args = _with_outputs(args, fixture_dirs, tmp_path)
    r = _run(args)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert named in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["scan-order", "sweep", "forward", "1", str(MAX_GRID_CELLS + 1)],
        ["forward", "--map-size", str(math.isqrt(MAX_MAP_CELLS) + 1)],
        # synth sizes are multiples of 4
        ["synth", "--kind", "normal", "--size", str(math.isqrt(MAX_MAP_CELLS) + 4),
         "--channels", "1"],
        ["synth", "--kind", "normal", "--size", "16", "--channels",
         str(MAX_MAP_CELLS // 256 + 1)],
        # ssm-check's bank case scans up to 8 channels
        ["ssm-check", "--max-len", str(MAX_GRID_CELLS // 8 + 1)],
    ],
    ids=["scan-order", "map-size", "synth-size", "synth-channels", "ssm-check-max-len"],
)
def test_oversized_extent_refused_before_allocating(fixture_dirs, tmp_path, capsys, args):
    # one step over the limit: a check made after the first array of that
    # size would show as a peak of tens of MB
    args = _with_outputs(args, fixture_dirs, tmp_path)
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "MAX_" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "config",
    [{"state_size": 100_000_000}, {"expansion": 100_000_000},
     {"local_kernels": [100_001, 3]}, {"stage_depths": [100_000, 1, 1, 1]}],
    ids=["state-size", "expansion", "local-kernels", "stage-depths"],
)
def test_oversized_config_refused_before_allocating(fixture_dirs, tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    args = ["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(path),
            "--out-map", str(tmp_path / "m.mbt")]
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: bad config: ") and "MAX_DECODER_CELLS" in err
    assert peak < 1 << 20


def _one_short_error_line(r):
    lines = r.stderr.splitlines()
    assert r.returncode == 2 and len(lines) == 1, r.stderr[:400]
    assert len(lines[0]) < 200, lines[0][:400]
    return lines[0]


@pytest.mark.parametrize(
    "config, named",
    [
        ({"stage_depths": "1" * 10_000}, "bad config: expected a list, got '111"),
        ({"state_size": [2] * 5_000}, "bad config: expected a JSON integer, got [2, 2"),
        ({"directions": ["x" * 10_000]}, "is not a valid ScanDirection"),
        ({"scan_method": "y" * 10_000}, "is not a valid ScanMethod"),
    ],
    ids=["long-string-list", "long-list-number", "long-direction", "long-method"],
)
def test_forward_quotes_a_short_prefix_of_bad_config(fixture_dirs, tmp_path, config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    r = _run(["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(path),
              "--out-map", str(tmp_path / "m.mbt")])
    line = _one_short_error_line(r)
    assert named in line and line.count("…") == 1


@pytest.mark.parametrize(
    "blob, named",
    [
        (b"P5 " + b"9" * 5000 + b" 1 255\n\x00", "non-numeric header field '999"),
        (b"P6" * 5000, "expected binary PGM magic P5, got 'P6P6"),
    ],
    ids=["long-width", "long-magic"],
)
def test_eval_quotes_a_short_prefix_of_bad_mask(fixture_dirs, tmp_path, blob, named):
    (tmp_path / "mask.pgm").write_bytes(blob)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"samples": [
        {"score_map": str(fixture_dirs / "a0" / "oracle_map.mbt"), "mask": "mask.pgm",
         "image_score": 1.0, "image_label": 1},
    ]}))
    line = _one_short_error_line(_run(["eval", "--manifest", str(manifest)]))
    assert named in line and line.count("…") == 1


# ---------------------------------------------------------------------------
# eval


def _manifest(edits=None, row=0):
    """The oracle samples (score map == mask, so every metric saturates),
    paths relative to the fixture root, with ``edits`` applied to one."""
    samples = [
        {"score_map": f"{name}/oracle_map.mbt", "mask": f"{name}/mask.pgm",
         "image_score": float(label), "image_label": label, "category": "widget"}
        for name, label in (("a0", 1), ("a1", 1), ("n0", 0))
    ]
    samples[row].update(edits or {})
    return {"samples": samples}


def test_eval_perfect_oracle_scores(fixture_dirs, tmp_path):
    manifest = fixture_dirs / "oracle.json"
    manifest.write_text(json.dumps(_manifest()))
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    r = _run(
        [
            "eval",
            "--manifest",
            str(manifest),
            "--out-json",
            str(out_json),
            "--out-csv",
            str(out_csv),
        ]
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(out_json.read_text())
    assert report["pooling"] == "pooled"
    assert report["image"]["auroc"] == 1.0
    assert report["pixel"]["auroc"] == 1.0
    assert report["pixel"]["aupro"] == 1.0
    assert report["mad"] == 1.0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "image,pixel,mAD"
    assert lines[1] == "100.0/100.0/100.0,100.0/100.0/100.0/100.0,100.0"


def test_eval_per_category_pooling(fixture_dirs):
    manifest = fixture_dirs / "per_category.json"
    doc = _manifest({"category": "gadget"}, row=1)
    # gadget needs a normal image too, to keep auroc defined
    doc["samples"].append(dict(doc["samples"][2], category="gadget"))
    manifest.write_text(json.dumps(doc))
    r = _run(["eval", "--manifest", str(manifest), "--per-category"])
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout[: r.stdout.rindex("}") + 1])
    assert report["pooling"] == "per-category-mean"
    assert sorted(report["categories"]) == ["gadget", "widget"]
    assert report["mean"]["mad"] == 1.0


def test_eval_all_normal_manifest_hits_precondition(fixture_dirs):
    manifest = fixture_dirs / "all_normal.json"
    manifest.write_text(json.dumps({"samples": _manifest()["samples"][2:]}))
    r = _run(["eval", "--manifest", str(manifest)])
    assert r.returncode == 3
    assert "precondition" in r.stderr


def test_eval_missing_manifest(tmp_path):
    r = _run(["eval", "--manifest", str(tmp_path / "nope.json")])
    assert r.returncode == 2


def test_eval_malformed_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"samples": [{"score_map": "x.mbt"}]}))
    r = _run(["eval", "--manifest", str(manifest)])
    assert r.returncode == 2
    assert "malformed" in r.stderr


@pytest.mark.parametrize(
    "edits, row, named",
    [
        ({"score_map": "small_map.mbt"}, 0, "small_map.mbt: score map shape (8, 8) does not"),
        ({"score_map": "a0/feat_0.mbt"}, 0, "feat_0.mbt: score map shape (4, 16, 16) does not"),
        ({"score_map": 5}, 0, "sample 0: score_map must be a string"),
        ({"category": ["a"]}, 0, "sample 0: category must be a string"),
        ({"category": 1}, 0, "sample 0: category must be a string"),  # next to "widget"
        ({"image_label": 2}, 0, "sample 0: image_label must be 0 or 1"),
        ({"image_score": float("nan")}, 1, "sample 1: image_score must be finite"),
        ({"score_map": "inf_map.mbt"}, 0, "inf_map.mbt: score map has non-finite values"),
        ({"image_label": 0.7}, 0, "sample 0 malformed: expected a JSON integer, got 0.7"),
        ({"image_label": 1.2}, 1, "sample 1 malformed: expected a JSON integer, got 1.2"),
        ({"image_label": True}, 0, "sample 0 malformed: expected a JSON integer, got True"),
        ({"image_score": "nan"}, 1, "sample 1 malformed: expected a JSON number, got 'nan'"),
        ({"image_score": False}, 0, "sample 0 malformed: expected a JSON number, got False"),
    ],
    ids=["8x8-map", "3-d-map", "int-score-map", "list-category", "int-and-str-categories",
         "label-2", "nan-image-score", "inf-in-score-map", "float-label", "float-label-1.2",
         "bool-label", "string-image-score", "bool-image-score"],
)
def test_eval_rejects_bad_sample(fixture_dirs, edits, row, named):
    manifest = fixture_dirs / "bad_sample.json"
    manifest.write_text(json.dumps(_manifest(edits, row)))
    r = _run(["eval", "--manifest", str(manifest), "--per-category"])
    assert r.returncode == 2
    assert len(r.stderr.strip().splitlines()) == 1
    assert named in r.stderr


# ---------------------------------------------------------------------------
# retired options and subcommands


def test_bench_subcommand_is_gone():
    r = _run(["bench"])
    assert r.returncode == 2
    assert "bench" in r.stderr


def test_readme_documents_exactly_the_subcommands():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    headings = [line[4:] for line in section.splitlines() if line.startswith("### ")]
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert headings == list(subparsers.choices)


def test_ssm_check_has_no_grad_instances_option():
    r = _run(["ssm-check", "--grad-instances", "1"])
    assert r.returncode == 2
    assert "--grad-instances" in r.stderr


@pytest.mark.parametrize(
    "args, named",
    [
        (["ssm-check", "--max-len", "0"], "--max-len"),
        (["ssm-check", "--instances", "0"], "--instances"),
        # the manifest does not exist: the limit is refused before any file is read
        *[(["eval", "--manifest", "no-such-manifest.json", "--fpr-limit", v], "--fpr-limit")
          for v in ("0", "1.5", "-1", "nan", "inf")],
    ],
    ids=["max-len-0", "instances-0", "fpr-limit-0", "fpr-limit-1.5", "fpr-limit-neg",
         "fpr-limit-nan", "fpr-limit-inf"],
)
def test_numeric_option_out_of_range_exits_two(args, named):
    r = _run(args)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert named in r.stderr


# ---------------------------------------------------------------------------
# fuzz: corrupted manifests and configs end in exit 0, 2 or 3 with at most
# one line on stderr, never a traceback; in-process, so no subprocesses

# small counts only: a large decoder is slow, not wrong
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-2, 4),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), "", "small_map.mbt",
                     "inf_map.mbt", "a0/feat_0.mbt", "a0/mask.pgm", "hilbert"]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 4), max_size=5),
    st.lists(st.sampled_from([d.value for d in ScanDirection] + ["up"]), max_size=9),
)


def _fuzz_main(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert code == 0 or len(err.strip().splitlines()) == 1, err
    return code


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(
    manifest=st.one_of(
        st.builds(
            _manifest,
            st.dictionaries(
                st.sampled_from(["score_map", "mask", "image_score", "image_label", "category"]),
                _JUNK,
                max_size=3,
            ),
            st.integers(0, 2),
        ),
        _JUNK,
    ),
    per_category=st.booleans(),
)
@example(manifest=_manifest({"score_map": 5}), per_category=False)
@example(manifest=_manifest({"category": ["a"]}), per_category=True)
@example(manifest=_manifest({"category": 1}), per_category=True)
@example(manifest=_manifest({"score_map": "small_map.mbt"}), per_category=False)
@example(manifest=_manifest({"score_map": "a0/feat_0.mbt"}), per_category=False)
@example(manifest=_manifest({"score_map": "inf_map.mbt"}, row=1), per_category=False)
@example(manifest=_manifest({"image_score": 10**400}), per_category=False)
@example(manifest=_manifest({"mask": "n0/\x00mask.pgm"}, row=2), per_category=False)
def test_eval_fuzzed_manifest_exits_cleanly(fixture_dirs, capsys, manifest, per_category):
    path = fixture_dirs / "fuzz_manifest.json"
    path.write_text(json.dumps(manifest))
    argv = ["eval", "--manifest", str(path), "--out-json", str(fixture_dirs / "fuzz.json")]
    _fuzz_main(capsys, argv + ["--per-category"] * per_category)


@_FUZZ
@given(
    config=st.one_of(
        st.dictionaries(st.sampled_from([*cli._CONFIG_FIELDS, "bogus"]), _JUNK, max_size=3)
        .map(lambda edits: {**_MICRO_CONFIG, **edits}),
        _JUNK,
    )
)
@example(config={**_MICRO_CONFIG, "local_kernels": [4, 0]})
@example(config={**_MICRO_CONFIG, "local_kernels": [5]})
@example(config={**_MICRO_CONFIG, "directions": ["forward", "forward"]})
@example(config={**_MICRO_CONFIG, "directions": ["forward", "reverse", "wh-forward"]})
@example(config={**_MICRO_CONFIG, "state_size": float("inf")})
@example(config={**_MICRO_CONFIG, "stage_depths": "1111"})
def test_forward_fuzzed_config_exits_cleanly(fixture_dirs, capsys, config):
    path = fixture_dirs / "fuzz_config.json"
    path.write_text(json.dumps(config))
    argv = ["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(path),
            "--out-map", str(fixture_dirs / "fuzz_map.mbt")]
    _fuzz_main(capsys, argv)


_DELETE = object()
# a path into a saved manifest.json: the root, a top-level key, an entry
# (two of the config's, one it lacks) or a field of one
_MANIFEST_PATH = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from(["format", "tensors"])),
    st.tuples(st.just("tensors"), st.sampled_from(["fuse.weight", "stage0.lss0.hss0.bank.a",
                                                   "bogus.weight"])),
    st.tuples(st.just("tensors"), st.sampled_from(["fuse.weight", "adapter1.bias"]),
              st.sampled_from(["file", "shape"])),
)


def _edit_json(doc, edits):
    """Apply (path, value) edits to a JSON document; _DELETE removes the key,
    or empties the document when the path is the root."""
    for path, value in edits:
        if not path:
            doc = {} if value is _DELETE else value
            continue
        node = doc
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is _DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return doc


@_FUZZ
@given(edits=st.lists(
    st.tuples(_MANIFEST_PATH, st.one_of(_JUNK, st.just(_DELETE), st.lists(st.integers(1, 8)))),
    max_size=3,
))
@example(edits=[((), [])])
@example(edits=[(("tensors",), [])])
@example(edits=[(("tensors", "fuse.weight"), 5)])
@example(edits=[(("tensors", "fuse.weight", "file"), "")])
@example(edits=[(("tensors", "adapter1.bias", "shape"), [8])])
def test_forward_fuzzed_params_manifest_exits_cleanly(
    fixture_dirs, saved_params, micro_config, capsys, edits
):
    params_dir = fixture_dirs / "fuzz_params"
    if not params_dir.exists():
        shutil.copytree(saved_params / "micro", params_dir)
    manifest = json.loads((saved_params / "micro" / "manifest.json").read_text())
    (params_dir / "manifest.json").write_text(json.dumps(_edit_json(manifest, edits)))
    argv = ["forward", *_pyramid_args(fixture_dirs / "a0"), "--config", str(micro_config),
            "--params", str(params_dir), "--out-map", str(fixture_dirs / "fuzz_map.mbt")]
    assert _fuzz_main(capsys, argv) in (0, 2)


# ---------------------------------------------------------------------------
# synth


def test_synth_same_seed_identical_bytes(tmp_path):
    args = ["synth", "--kind", "anomalous", "--size", "16", "--seed", "12"]
    for name in ("one", "two"):
        r = _run([*args, "--out", str(tmp_path / name)])
        assert r.returncode == 0, r.stderr
    for fname in ("feat_0.mbt", "feat_1.mbt", "feat_2.mbt", "mask.pgm", "oracle_map.mbt"):
        a = (tmp_path / "one" / fname).read_bytes()
        b = (tmp_path / "two" / fname).read_bytes()
        assert a == b, fname


def test_synth_manifest_matches_files(tmp_path):
    out = tmp_path / "fix"
    r = _run(["synth", "--kind", "anomalous", "--size", "16", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    mask = read_mask_pgm_file(out / "mask.pgm")
    assert manifest["image_label"] == 1
    assert manifest["mask_positives"] == mask.positives() > 0
    shapes = [tuple(s) for s in manifest["pyramid_shapes"]]
    assert shapes == [(4, 16, 16), (8, 8, 8), (16, 4, 4)]


def test_synth_oracle_map_saturates_aupro(tmp_path):
    out = tmp_path / "fix"
    r = _run(["synth", "--kind", "anomalous", "--size", "16", "--seed", "2", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    oracle = read_tensor_file(out / "oracle_map.mbt")
    mask = read_mask_pgm_file(out / "mask.pgm")
    pixels = LabeledScores(oracle.data.astype(np.float64), mask.bits.reshape(-1))
    assert aupro(pixels, [mask]) == 1.0


def test_synth_normal_kind_has_empty_mask(tmp_path):
    out = tmp_path / "fix"
    r = _run(["synth", "--kind", "normal", "--size", "16", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["image_label"] == 0
    assert manifest["mask_positives"] == 0


def test_synth_rejects_bad_size(tmp_path):
    r = _run(["synth", "--kind", "normal", "--size", "15", "--out", str(tmp_path / "x")])
    assert r.returncode == 2
