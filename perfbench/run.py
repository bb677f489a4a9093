"""End-to-end benchmark of ssmad: decode, decode-hires and evaluate.

usage: python3 perfbench/run.py --workload {decode,decode-hires,evaluate,all}
                                [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ssmad is imported from ./src.  Each
workload is one process and one closed-loop client.  Inputs come from the
seed and are generated before timing.  Every output is checked; a failed
check or an exception counts against ``failed`` and makes the exit code 1.

--trace 0 measures the end-to-end metrics.  --trace 1 wraps every layer's
public functions for every other request (see spans.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy loads; worker counts are
# passed explicitly, never through the environment
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MAMBAAD_WORKERS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("decode", "decode-hires", "evaluate")
SETUP_REPEATS = 5
SPEEDUP_REPEATS = 5
# evaluates of the decoder workloads' maps, spread over the run
EVAL_SAMPLES = 5
# end-to-end metric name -> unit, in report order
E2E_UNITS = {
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import ssmad from ./src of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "ssmad", "__init__.py")):
        print(f"perfbench: no ssmad sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ssmad

    if os.path.dirname(os.path.dirname(os.path.abspath(ssmad.__file__))) != SRC:
        print(f"perfbench: ssmad was imported from {ssmad.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Tally:
    """Attempted and failed requests and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def attempt(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


@contextmanager
def traced(tracer, request):
    """Record spans for the body when tracing; a no-op otherwise."""
    if tracer is None:
        yield
        return
    tracer.install()
    tracer.request = request
    try:
        yield
    finally:
        tracer.request = None
        tracer.uninstall()


def closed_loop(
    seconds, min_requests, request, check, tally, tracer=None, label=None, first=0
):
    """One client: send the next request when the last one finished.

    Latency covers ``request``; ``check`` runs after it.  With a tracer,
    odd requests are traced and even ones are not, so that the tracing
    overhead is measured on interleaved requests.  Requests are numbered
    from ``first``; spans get request id i, or "<label>-<i>" when a label is
    given.  Returns (latencies of untraced
    requests that passed their check, the same for traced ones, wall
    seconds, requests sent).
    """
    latencies = ([], [])
    start = time.perf_counter()
    deadline = start + seconds
    i = first
    while i < first + min_requests or time.perf_counter() < deadline:
        rid = i if label is None else f"{label}-{i}"
        traced_now = tracer is not None and i % 2 == 1
        with tally.attempt(f"request {rid}"), traced(tracer if traced_now else None, rid):
            t0 = time.perf_counter()
            out = request(i)
            elapsed = time.perf_counter() - t0
            check(i, out)
            latencies[traced_now].append(elapsed)
        i += 1
    return latencies[0], latencies[1], time.perf_counter() - start, i - first


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def probe_setup(name: str, seed: int, params_dir: str | None) -> float:
    """Median of fresh-process set-up times, process start to ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, name, str(seed)]
    if params_dir is not None:
        cmd.append(params_dir)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def corrupt_map_file(path: str) -> None:
    """Overwrite the first score with NaN, as a faulty writer would."""
    with open(path, "r+b") as fh:
        fh.seek(24)
        fh.write(struct.pack("<f", float("nan")))


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# workloads


def run_decoder(w, args, work, tracer, tally):
    import checks
    import workloads
    from ssmad import blocks, pipeline, tensor

    seed = args.seed
    cfg = w.decoder_config(seed)
    inputs = workloads.make_decoder_inputs(w, seed, os.path.join(work, "inputs"))
    params_dir = os.path.join(work, "params")
    out_dir = os.path.join(work, "maps")
    os.makedirs(out_dir)
    out_paths = [os.path.join(out_dir, f"img{i}.mbt") for i in range(workloads.POOL)]
    shape = (w.size, w.size)

    with traced(tracer, "setup"):
        initialised = pipeline.init_decoder_params(cfg, w.pyramid_channels)
        pipeline.save_decoder_params(params_dir, initialised)
        loaded = pipeline.load_decoder_params(params_dir, cfg, w.pyramid_channels)
    params, other = (loaded, initialised) if w.load_params else (initialised, loaded)
    setup_s = None if tracer else probe_setup(w.name, seed, params_dir)

    def forward(paths, config, prm, workers):
        result = workloads.decode_request(paths, out_paths[0], config, prm, workers)
        with open(out_paths[0], "rb") as fh:
            return result, checks.map_from_mbt(fh.read(), shape).tobytes()

    first, expected_bytes = None, {}
    image0 = inputs.pyramid_paths[0]
    with tally.attempt("image 0 at the workload's worker count"):
        first, expected_bytes[0] = forward(image0, cfg, params, w.workers)
    with tally.attempt("workers=1 and workers=2 give identical maps"):
        alt_workers = 2 if w.workers == 1 else 1
        _, got = forward(image0, cfg, params, alt_workers)
        if got != expected_bytes.get(0):
            raise checks.CheckFailed(f"workers={alt_workers} map differs from workers={w.workers}")
    with tally.attempt("saved and loaded params reproduce initialised ones"):
        _, got = forward(image0, cfg, other, w.workers)
        if got != expected_bytes.get(0):
            raise checks.CheckFailed("loaded params give a different map than initialised ones")
    with tally.attempt("reference loss and image score at the default seed"):
        if seed == workloads.DEFAULT_SEED:
            ref = first
        else:
            ref_cfg = w.decoder_config(workloads.DEFAULT_SEED)
            ref_params = pipeline.init_decoder_params(ref_cfg, w.pyramid_channels)
            ref_inputs = workloads.make_decoder_inputs(
                w, workloads.DEFAULT_SEED, os.path.join(work, "reference"), count=1
            )
            ref, _ = forward(ref_inputs.pyramid_paths[0], ref_cfg, ref_params, w.workers)
        compare_reference(w.name, ref)

    results = {}

    def request(i):
        j = i % workloads.POOL
        return workloads.decode_request(
            inputs.pyramid_paths[j], out_paths[j], cfg, params, w.workers
        )

    def check(i, result):
        j = i % workloads.POOL
        if i == args.corrupt_request:
            corrupt_map_file(out_paths[j])
        with open(out_paths[j], "rb") as fh:
            got = checks.map_from_mbt(fh.read(), shape).tobytes()
        if expected_bytes.setdefault(j, got) != got:
            raise checks.CheckFailed(f"image {j} gave different bytes on a repeat")
        if results.setdefault(j, result) != result:
            raise checks.CheckFailed(f"image {j} gave a different loss or score on a repeat")

    manifest = os.path.join(work, "manifest.json")
    latencies, traced_latencies, eval_times, wall, sent = [], [], [], 0.0, 0
    want = None
    # the image loop runs in EVAL_SAMPLES segments with one evaluate of the
    # eight maps after each, so that eval_s samples the whole run
    for k in range(EVAL_SAMPLES):
        lat, traced_lat, seconds, n = closed_loop(
            args.seconds / EVAL_SAMPLES, workloads.POOL if k == 0 else 0,
            request, check, tally, tracer=tracer, first=sent,
        )
        latencies += lat
        traced_latencies += traced_lat
        wall += seconds
        sent += n
        if k == 0:
            scores = [results[j][1] if j in results else 0.0 for j in range(workloads.POOL)]
            workloads.write_manifest(manifest, out_paths, inputs.mask_paths, scores, inputs.labels)
            with tally.attempt("independent metrics of the final maps"):
                maps = [np.frombuffer(expected_bytes[j], dtype=np.float32).reshape(shape)
                        for j in range(workloads.POOL)]
                want = checks.expected_report(scores, inputs.labels, maps, inputs.masks)
        untraced_eval, traced_eval, _, _ = closed_loop(
            0.0, 1,
            lambda i: workloads.eval_request(manifest),
            lambda i, report: checks.compare_report(report.values(), want),
            tally, tracer=tracer, label="eval", first=k,
        )
        eval_times += untraced_eval + traced_eval
    eval_s = statistics.median(eval_times) if eval_times else None

    e2e = {
        # decode every image, then evaluate the maps once
        "images_per_s": len(latencies) / (wall + eval_s) if eval_s else None,
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "latency_p90_ms": 1e3 * percentile(latencies, 90) if latencies else None,
        "eval_s": eval_s,
        "setup_s": setup_s,
    }
    info = {"requests": sent, "latency_samples": len(latencies), "workers": w.workers}
    if tracer is None:
        return e2e, None, info

    # hss wall at workers=1 over workers=2 on the top-scale input of image 0
    x = tensor.read_tensor_file(inputs.pyramid_paths[0][0])
    hp = params.stages[3][0].hss[0]
    walls = {}
    for workers in (1, 2):
        samples = []
        for _ in range(SPEEDUP_REPEATS):
            t0 = time.perf_counter()
            blocks.hss_forward(x, hp, workers=workers)
            samples.append(time.perf_counter() - t0)
        walls[workers] = statistics.median(samples)
    overhead = statistics.median(traced_latencies) / statistics.median(latencies)
    return e2e, (overhead, walls[1] / walls[2]), info


def compare_reference(name, got) -> None:
    import checks

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    rel = ref["tolerance_rel"]
    for key, value in zip(("loss", "image_score"), got):
        want = ref[name][key]
        if not abs(value - want) <= rel * abs(want):
            raise checks.CheckFailed(f"{key} {value!r} differs from reference {want!r}")


def run_evaluate(args, work, tracer, tally):
    import checks
    import workloads
    from ssmad import metrics, tensor

    inputs = workloads.make_eval_inputs(args.seed, os.path.join(work, "eval"))
    want = checks.expected_report(
        inputs.image_scores, inputs.labels, inputs.maps, inputs.masks
    )
    setup_s = None if tracer else probe_setup("evaluate", args.seed, None)

    with tally.attempt("oracle maps score 1.0 on every metric"):
        oracle = metrics.evaluate(
            metrics.LabeledScores(
                scores=np.array(inputs.labels, dtype=np.float64),
                labels=np.array(inputs.labels),
            ),
            [tensor.Tensor(m.astype(np.float32)) for m in inputs.masks],
            [tensor.BinaryMask(m) for m in inputs.masks],
        )
        checks.compare_report(oracle.values(), (1.0,) * 7)

    def request(i):
        return workloads.eval_request(inputs.manifest)

    def check(i, report):
        got = list(report.values())
        if i == args.corrupt_request:
            got[-1] += 0.01
        checks.compare_report(got, want)

    latencies, traced_latencies, wall, sent = closed_loop(
        args.seconds, 2 if tracer else 1, request, check, tally, tracer=tracer
    )
    e2e = {
        "images_per_s": workloads.EVAL_MAPS * len(latencies) / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "latency_p90_ms": 1e3 * percentile(latencies, 90) if latencies else None,
        "eval_s": statistics.median(latencies) if latencies else None,
        "setup_s": setup_s,
    }
    info = {"requests": sent, "latency_samples": len(latencies), "maps_per_request": workloads.EVAL_MAPS}
    if tracer is None:
        return e2e, None, info
    overhead = statistics.median(traced_latencies) / statistics.median(latencies)
    return e2e, (overhead, 0.0), info


def run_workload(args) -> int:
    import_program()
    import spans
    import workloads

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = spans.Tracer() if args.trace else None
    tally = Tally()
    try:
        if args.workload == "evaluate":
            e2e, extra, info = run_evaluate(args, work, tracer, tally)
        else:
            e2e, extra, info = run_decoder(
                workloads.DECODERS[args.workload], args, work, tracer, tally
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is using it
            pass
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace, **info}))
    if tracer is None:
        metrics_out = {k: (e2e[k], u) for k, u in E2E_UNITS.items()}
    else:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print("# trace " + json.dumps({
            "missing": tracer.missing,
            "uncounted": sorted(tracer.uncounted),
            "self_time_share": spans.self_time_share(tracer),
            "spans": len(tracer.spans),
        }))
        layer = spans.layer_metrics(tracer, *extra)
        metrics_out = {k: (layer[k], u) for k, u in spans.LAYER_UNITS.items()}
    for name, (value, unit) in metrics_out.items():
        print(f"{name} {value} {unit}")
    missing_value = [k for k, (v, _) in metrics_out.items() if v is None]
    if missing_value:
        tally.failed += 1
        print("perfbench: no value for " + ", ".join(missing_value), file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": u}
                    for k, (v, u) in metrics_out.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; their metric lines, then one JSON
    object of all results."""
    import_program()
    status, results = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        status = status or done.returncode
        has_result = bool(lines) and lines[-1].startswith("{")
        results[name] = json.loads(lines[-1]) if has_result else None
        print(f"== {name} (exit {done.returncode})")
        print("\n".join(lines[:-1] if has_result else lines))
    print(json.dumps(results))
    return 1 if status else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-request", type=int, default=-1,
                    help="corrupt the output of this request, to show the checks fail")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
