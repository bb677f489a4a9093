"""Command-line front end.

Subcommands:
  scan-order   print a schedule as JSON flat indices or CSV (step, row, col)
  ssm-check    the bank scan against the sequential kernel; exit 1 on failure
  forward      pyramid (3 MBT files) + config JSON -> anomaly map + record
  eval         manifest of score maps / masks / image scores -> metrics
  synth        deterministic synthetic fixture directory

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 metric precondition failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import synth
from .metrics import (
    DEFAULT_FPR_LIMIT,
    LabeledScores,
    MetricPreconditionError,
    MetricsReport,
    evaluate,
)
from .pipeline import (
    MAX_DECODER_CELLS,
    MAX_MAP_CELLS,
    DecoderConfig,
    FeaturePyramid,
    init_decoder_params,
    load_decoder_params,
    pipeline_forward,
    save_decoder_params,
)
from .scans import (
    MAX_GRID_CELLS, ScanDirection, ScanMethod, UnsupportedGeometry, make_schedule,
)
from .ssm import scan_recurrent, ssm_bank_scan, zoh
from .tensor import (
    MbtError,
    Rng,
    Tensor,
    _brief,
    read_mask_pgm_file,
    read_tensor_file,
    write_tensor_file,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class CliError(Exception):
    """Usage or I/O problem; maps to exit code 2."""


def _require_positive(**options: int) -> None:
    """Reject any count option below 1, naming it as the command line does."""
    for name, value in options.items():
        if value < 1:
            raise CliError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _require_bank_cells(option: str, length: int, channels: int) -> None:
    """Reject a sequence length whose bank of ``channels`` rows would hold
    more than MAX_GRID_CELLS cells."""
    if channels * length > MAX_GRID_CELLS:
        raise CliError(
            f"--{option} must be at most {MAX_GRID_CELLS // channels}, "
            f"MAX_GRID_CELLS = {MAX_GRID_CELLS} over {channels} channels; got {length}"
        )


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"cannot read {what} {path}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise CliError(f"{path}: {exc}") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None


def _write_text(path: str | None, text: str) -> None:
    _write_pieces(path, (text,))


def _write_pieces(path: str | None, pieces: Iterable[str]) -> None:
    """Write the strings of ``pieces`` one after another to ``path``, or to
    stdout followed by a newline when the text does not end with one."""
    if path is not None:
        with open(path, "w") as fh:
            fh.writelines(pieces)
        return
    last = ""
    for piece in pieces:
        sys.stdout.write(piece)
        last = piece or last
    if not last.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# scan-order


# cells of the visit order formatted per piece of scan-order output
_ORDER_PIECE = 1 << 14


def _order_json(order: np.ndarray) -> Iterator[str]:
    """json.dumps of the order as a list of ints, a piece at a time."""
    yield "["
    for start in range(0, order.size, _ORDER_PIECE):
        cells = ", ".join(map(str, order[start : start + _ORDER_PIECE].tolist()))
        yield cells if start == 0 else ", " + cells
    yield "]"


def _order_csv(order: np.ndarray, width: int) -> Iterator[str]:
    """One "step,row,col" line per step after the header, a piece at a time."""
    yield "step,row,col\n"
    for start in range(0, order.size, _ORDER_PIECE):
        rows, cols = np.divmod(order[start : start + _ORDER_PIECE], width)
        steps = range(start, start + rows.size)
        yield "".join(map("{},{},{}\n".format, steps, rows.tolist(), cols.tolist()))


def cmd_scan_order(args) -> int:
    # argparse has already restricted method and direction to known values
    method, direction = ScanMethod(args.method), ScanDirection(args.direction)
    try:
        sched = make_schedule(method, direction, args.height, args.width)
    except UnsupportedGeometry as exc:
        raise CliError(str(exc)) from None
    if args.format == "json":
        pieces = _order_json(sched.order)
    else:
        pieces = _order_csv(sched.order, sched.width)
    _write_pieces(args.out, pieces)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ssm-check


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-30)
    return float(np.max(np.abs(got - want)) / scale)


def _draw_bank(rng: Rng, channels: int, n: int):
    """a, b, c (channels, n) and delta (channels,) of a stable bank."""
    a = rng.uniform(channels * n, -2.0, -0.01).reshape(channels, n)
    b = rng.uniform(channels * n, -1.0, 1.0).reshape(channels, n)
    c = rng.uniform(channels * n, -1.0, 1.0).reshape(channels, n)
    return a, b, c, rng.uniform(channels, 0.1, 1.0)


def _check_bank(rng: Rng, max_len: int) -> list[float]:
    """The chunked bank scan against the sequential kernel, one error per
    channel; random lengths mostly leave a partial last chunk."""
    channels = 1 + int(rng.uniform(1, 0, 8)[0])
    n = 1 + int(rng.uniform(1, 0, 8)[0])
    length = 1 + int(rng.uniform(1, 0, max_len)[0])
    a, b, c, delta = _draw_bank(rng, channels, n)
    x = rng.uniform(channels * length, -1.0, 1.0).reshape(channels, length)
    got = ssm_bank_scan(a, b, c, delta, x)
    want = scan_recurrent(*zoh(a, delta[:, None], b), c, x)
    return [_rel_error(g, w) for g, w in zip(got, want)]


_BANK_TOLERANCE = 1e-12


def cmd_ssm_check(args) -> int:
    _require_positive(max_len=args.max_len, instances=args.instances)
    _require_bank_cells("max-len", args.max_len, 8)  # _check_bank's most channels
    rng = Rng(args.seed)
    worst = 0.0
    for _ in range(args.instances):
        worst = max(worst, *_check_bank(rng, args.max_len))
    passed = worst <= _BANK_TOLERANCE
    report = {
        "seed": args.seed,
        "max_len": args.max_len,
        "bank_vs_recurrent": {
            "instances": args.instances,
            "worst_rel_error": worst,
            "tolerance": _BANK_TOLERANCE,
            "pass": passed,
        },
        "pass": passed,
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# forward


def _load_pyramid(paths) -> FeaturePyramid:
    tensors = []
    for path in paths:
        try:
            tensors.append(read_tensor_file(path))
        except FileNotFoundError:
            raise CliError(f"cannot read pyramid file {path}") from None
        except MbtError as exc:
            raise CliError(f"{path}: {exc}") from None
        if not np.isfinite(tensors[-1].array).all():
            raise CliError(f"{path}: pyramid tensor has non-finite values")
    try:
        return FeaturePyramid(scales=tuple(tensors))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _json_list(values) -> list:
    # a JSON string or object is iterable too; refuse it rather than
    # reading "1111" as four ones
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {_brief(values)}")
    return values


def _json_number(value, kind=int):
    """A JSON integer as int, or with kind=float any JSON number as float.
    int() and float() alone would truncate 2.7 to 2 and read true as 1."""
    allowed, name = ((int, float), "number") if kind is float else (int, "integer")
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise TypeError(f"expected a JSON {name}, got {_brief(value)}")
    return kind(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_json_number(v) for v in _json_list(values))


def _member(kind, value):
    """The enum member named by a JSON value; the enum's own error would
    quote the whole value."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{_brief(value)} is not a valid {kind.__name__}") from None


# config JSON key -> converter to the DecoderConfig field of the same name
_CONFIG_FIELDS = {
    "stage_depths": _ints,
    "hss_per_stage": _ints,
    "scan_method": lambda v: _member(ScanMethod, v),
    "directions": lambda v: tuple(_member(ScanDirection, d) for d in _json_list(v)),
    "state_size": _json_number,
    "expansion": _json_number,
    "local_kernels": _ints,
    "seed": _json_number,
}


def _load_config(path: str | None) -> DecoderConfig:
    if path is None:
        return DecoderConfig()
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        raise CliError(f"{path}: unknown config keys {unknown}")
    try:
        return DecoderConfig(**{k: _CONFIG_FIELDS[k](v) for k, v in raw.items()})
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError(f"bad config: {exc}") from None


def cmd_forward(args) -> int:
    if args.map_size is not None:
        _require_positive(map_size=args.map_size)
        if args.map_size ** 2 > MAX_MAP_CELLS:
            raise CliError(
                f"--map-size {args.map_size} gives more than "
                f"MAX_MAP_CELLS = {MAX_MAP_CELLS} cells"
            )
    pyramid = _load_pyramid(args.pyramid)
    cfg = _load_config(args.config)
    channels = pyramid.channels
    n_params, cells = cfg.footprint(channels, pyramid.top_resolution)
    if max(n_params, cells) > MAX_DECODER_CELLS:
        raise CliError(
            "bad config: stage_depths, hss_per_stage, directions, state_size, expansion "
            f"and local_kernels give {n_params} parameters and a {cells}-cell array on "
            f"this pyramid, over MAX_DECODER_CELLS = {MAX_DECODER_CELLS}"
        )
    try:
        if args.params:
            params = load_decoder_params(args.params, cfg, channels)
        else:
            params = init_decoder_params(cfg, channels)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load parameters: {exc}") from None
    if args.save_params:
        save_decoder_params(args.save_params, params)
    size = args.map_size
    try:
        loss, amap = pipeline_forward(pyramid, cfg, params, out_h=size, out_w=size)
    except UnsupportedGeometry as exc:
        raise CliError(str(exc)) from None
    write_tensor_file(args.out_map, Tensor(amap.scores))
    record = {
        "loss": loss,
        "image_score": amap.image_score,
        "map_shape": [amap.height, amap.width],
    }
    _write_text(args.out_json, json.dumps(record, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_manifest_samples(path: str):
    raw = _read_json(path, "manifest")
    samples = raw.get("samples") if isinstance(raw, dict) else None
    if not isinstance(samples, list) or not samples:
        raise CliError("manifest must contain a non-empty 'samples' list")
    base = os.path.dirname(os.path.abspath(path))
    parsed = []
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise CliError(f"sample {i} is not an object")
        for key in ("score_map", "mask", "category"):
            if not isinstance(sample.get(key, "all"), str):
                raise CliError(f"sample {i}: {key} must be a string")
        try:
            map_path = os.path.join(base, sample["score_map"])
            mask_path = os.path.join(base, sample["mask"])
            image_score = _json_number(sample["image_score"], float)
            image_label = _json_number(sample["image_label"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CliError(f"sample {i} malformed: {exc}") from None
        if image_label not in (0, 1):
            raise CliError(f"sample {i}: image_label must be 0 or 1")
        if not np.isfinite(image_score):
            raise CliError(f"sample {i}: image_score must be finite, got {image_score}")
        category = sample.get("category", "all")
        parsed.append((map_path, mask_path, image_score, image_label, category))
    return parsed


def _evaluate_samples(samples, fpr_limit: float) -> MetricsReport:
    maps, masks, scores, labels = [], [], [], []
    for map_path, mask_path, image_score, image_label, _ in samples:
        # OSError covers a missing file or a directory; ValueError a malformed
        # file or a NUL byte in the path
        try:
            t = read_tensor_file(map_path)
        except (OSError, ValueError) as exc:
            raise CliError(f"{map_path}: {exc}") from None
        if not np.isfinite(t.array).all():
            raise CliError(f"{map_path}: score map has non-finite values")
        try:
            m = read_mask_pgm_file(mask_path)
        except (OSError, ValueError) as exc:
            raise CliError(f"{mask_path}: {exc}") from None
        if t.shape != (m.height, m.width):
            raise CliError(
                f"{map_path}: score map shape {t.shape} does not match "
                f"mask {m.height}x{m.width}"
            )
        maps.append(t)
        masks.append(m)
        scores.append(image_score)
        labels.append(image_label)
    return evaluate(
        LabeledScores(scores=np.array(scores), labels=np.array(labels)),
        maps,
        masks,
        fpr_limit=fpr_limit,
    )


def cmd_eval(args) -> int:
    # a usage error, so refused before any file is read
    if not 0.0 < args.fpr_limit <= 1.0:
        raise CliError(f"--fpr-limit must lie in (0, 1], got {args.fpr_limit}")
    samples = _load_manifest_samples(args.manifest)
    if args.per_category:
        categories = sorted({s[4] for s in samples})
        reports = {
            cat: _evaluate_samples([s for s in samples if s[4] == cat], args.fpr_limit)
            for cat in categories
        }
        mean_vals = np.mean([r.values() for r in reports.values()], axis=0)
        report = MetricsReport(*[float(v) for v in mean_vals])
        payload = {
            "pooling": "per-category-mean",
            "categories": {
                cat: json.loads(r.to_json()) for cat, r in reports.items()
            },
            "mean": json.loads(report.to_json()),
        }
    else:
        report = _evaluate_samples(samples, args.fpr_limit)
        payload = json.loads(report.to_json())
        payload["pooling"] = "pooled"

    image, pixel, mad_cell = report.csv_cells()
    _write_text(args.out_json, json.dumps(payload, indent=2, sort_keys=True))
    _write_text(args.out_csv, f"image,pixel,mAD\n{image},{pixel},{mad_cell}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    try:
        synth.write_fixture(args.out, args.kind, args.size, args.channels, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmad",
        description="Scan-schedule and state-space kernels with an anomaly "
        "evaluation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-order", help="print a grid visit schedule")
    p.add_argument("method", choices=[m.value for m in ScanMethod])
    p.add_argument("direction", choices=[d.value for d in ScanDirection])
    p.add_argument("height", type=int)
    p.add_argument("width", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scan_order)

    p = sub.add_parser("ssm-check", help="verify the bank scan")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ssm_check)

    p = sub.add_parser("forward", help="run the reconstruction pipeline")
    p.add_argument(
        "--pyramid", nargs=3, required=True, metavar=("S0", "S1", "S2")
    )
    p.add_argument("--config", default=None, help="decoder config JSON")
    p.add_argument("--params", default=None, help="parameter directory")
    p.add_argument("--save-params", default=None)
    p.add_argument("--out-map", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--map-size", type=int, default=None)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("eval", help="compute the seven-metric report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--fpr-limit", type=float, default=DEFAULT_FPR_LIMIT)
    p.add_argument("--per-category", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic fixture directory")
    p.add_argument("--kind", choices=synth.KINDS, required=True)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MetricPreconditionError as exc:
        print(f"metric precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
