"""Span tracer that instruments the ssmad layers from outside the package.

``Tracer.install`` replaces each traced public function under every ssmad
module namespace that holds it (``blocks.lss_forward`` and
``pipeline.lss_forward`` alike), so calls made inside the package are seen
too; ``uninstall`` puts the originals back.  A span records its name, start
and end (``perf_counter_ns``), parent span, thread and request id, plus one
optional count taken after the span closed.  Spans stay in memory and are
written out as JSON lines when the run ends.

A traced function that no longer exists is listed in ``missing`` and its
metrics read 0; one whose count can no longer be taken is listed in
``uncounted``.  Neither makes the run fail.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _scan_work(args, kwargs, result):
    """(state updates C*L*N, computed bytes): float64 input and output
    sequences plus the a, b, c and delta parameters."""
    a, seq = args[0], args[4]
    (c, length), n = seq.shape, a.shape[1]
    return c * length * n, 8 * (2 * c * length + 3 * c * n + c)


def _region_count(args, kwargs, result):
    return len(result.regions)


def _unique_pooled_scores(args, kwargs, result):
    maps = args[1]
    return np.unique(np.concatenate([t.array.reshape(-1) for t in maps])).size


# span name -> (function name looked up in the ssmad modules, count hook)
TRACED = {
    "tensor.read": ("read_tensor_file", _file_bytes),
    "tensor.read_mask": ("read_mask_pgm_file", _file_bytes),
    "tensor.write": ("write_tensor_file", _file_bytes),
    "scans.make_schedule": ("make_schedule", None),
    "ssm.bank_scan": ("ssm_bank_scan", _scan_work),
    "blocks.hss": ("hss_forward", None),
    "blocks.lss": ("lss_forward", None),
    "pipeline.forward": ("pipeline_forward", None),
    "pipeline.fuse": ("hfpn_fuse", None),
    "pipeline.decode": ("decoder_forward", None),
    "pipeline.loss": ("mse_loss", None),
    "pipeline.score": ("anomaly_map", None),
    "setup.init_params": ("init_decoder_params", None),
    "setup.load_params": ("load_decoder_params", None),
    "metrics.evaluate": ("evaluate", _unique_pooled_scores),
    "metrics.aupro": ("aupro", None),
    "metrics.components": ("connected_components", _region_count),
    "metrics.auroc": ("auroc", None),
    "metrics.ap": ("average_precision", None),
    "metrics.f1": ("f1_max", None),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    thread: int
    request: object
    count: object

    @property
    def ns(self) -> int:
        return self.end - self.start


def _ssmad_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "ssmad" or name.startswith("ssmad."))
    ]


def schedule_cache_counts() -> tuple[int, int] | None:
    """(hits, misses) summed over the memo caches in ssmad.scans, if any."""
    scans = sys.modules.get("ssmad.scans")
    infos = [
        obj.cache_info()
        for obj in vars(scans).values()
        if callable(getattr(obj, "cache_info", None))
    ] if scans is not None else []
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self.request: object = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_at_install: tuple[int, int] | None = None
        self.cache_hits = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span_name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a span opened on a pool thread belongs to the span the
            # installing thread is blocked in
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._owner_stack[-1] if tracer._owner_stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = None
            if hook is not None:
                try:
                    count = hook(args, kwargs, result)
                except (IndexError, AttributeError, TypeError, ValueError, OSError):
                    # the function's signature or result changed; report
                    # the span without its count instead of failing the call
                    tracer.uncounted.add(span_name)
            tracer.spans.append(
                Span(span_id, span_name, start, end, parent,
                     threading.get_ident(), tracer.request, count)
            )
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced function in every ssmad namespace holding it."""
        if self._patched:
            return
        self._owner_stack = self._stack()
        modules = _ssmad_modules()
        self.missing = []
        for span_name, (func_name, hook) in TRACED.items():
            targets = [
                (m, getattr(m, func_name))
                for m in modules
                if callable(getattr(m, func_name, None))
            ]
            if not targets:
                self.missing.append(span_name)
                continue
            wrappers = {}
            for module, fn in targets:
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(span_name, fn, hook)
                setattr(module, func_name, wrappers[id(fn)])
                self._patched.append((module, func_name, fn))
        self._cache_at_install = schedule_cache_counts()
        if self._cache_at_install is None:
            self.missing.append("scans.schedule_cache")

    def uninstall(self) -> None:
        now = schedule_cache_counts()
        if now is not None and self._cache_at_install is not None:
            self.cache_hits += now[0] - self._cache_at_install[0]
        for module, func_name, fn in reversed(self._patched):
            setattr(module, func_name, fn)
        self._patched = []

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "thread": s.thread,
                    "request": s.request, "count": s.count,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s.id, ())):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.ns - covered
    return out


# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "tensor.read_ms": "ms",
    "tensor.write_ms": "ms",
    "tensor.bytes_read": "bytes",
    "tensor.bytes_written": "bytes",
    "scans.make_schedule_calls": "count",
    "scans.make_schedule_ms": "ms",
    "scans.schedule_cache_hit_ratio": "ratio",
    "ssm.bank_scan_calls": "count",
    "ssm.bank_scan_ms": "ms",
    "ssm.state_updates": "count",
    "ssm.ns_per_state_update": "ns",
    "ssm.bytes_computed": "bytes",
    "blocks.lss_calls": "count",
    "blocks.hss_calls": "count",
    "blocks.hss_self_ms": "ms",
    "blocks.local_ms": "ms",
    "blocks.worker_speedup": "ratio",
    "pipeline.forward_ms": "ms",
    "pipeline.fuse_ms": "ms",
    "pipeline.decode_ms": "ms",
    "pipeline.score_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "metrics.aupro_ms": "ms",
    "metrics.components_ms": "ms",
    "metrics.sweep_ms": "ms",
    "metrics.thresholds": "count",
    "metrics.regions": "count",
    "setup.init_params_ms": "ms",
    "setup.load_params_ms": "ms",
    "setup.params_files": "count",
    "trace.overhead_ratio": "ratio",
    "trace.missing_spans": "count",
}

# spans whose self times tile pipeline.forward when it runs on one thread
_FORWARD_TILES = (
    "pipeline.forward", "pipeline.fuse", "pipeline.decode", "pipeline.loss",
    "pipeline.score", "blocks.lss", "blocks.hss", "scans.make_schedule",
    "ssm.bank_scan",
)


def layer_metrics(
    tracer: Tracer,
    overhead_ratio: float,
    worker_speedup: float,
) -> dict[str, float]:
    """Aggregate the spans into the per-layer metrics.

    Request-scoped layers are per traced request (int request ids);
    metrics.* are per ``evaluate`` call; setup.* are per init/load call.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    requests = {s.request for s in spans if isinstance(s.request, int)}
    n_req = max(1, len(requests))

    def pick(name, scope="request"):
        if scope == "request":
            return [s for s in spans if s.name == name and isinstance(s.request, int)]
        return [s for s in spans if s.name == name]

    def total_ms(items, self_time=False):
        return sum(selfs[s.id] if self_time else s.ns for s in items) / 1e6

    def counted(items, i=None):
        counts = [s.count for s in items if s.count is not None]
        return sum(c if i is None else c[i] for c in counts)

    reads = pick("tensor.read") + pick("tensor.read_mask")
    writes = pick("tensor.write")
    sched = pick("scans.make_schedule")
    banks = pick("ssm.bank_scan")
    hss = pick("blocks.hss")
    lss = pick("blocks.lss")
    forwards = pick("pipeline.forward")
    evals = pick("metrics.evaluate", scope="all")
    n_eval = max(1, len(evals))
    inits = pick("setup.init_params", scope="all")
    loads = pick("setup.load_params", scope="all")
    load_ids = {s.id for s in loads}
    param_reads = [s for s in spans if s.name == "tensor.read" and s.parent in load_ids]

    updates = counted(banks, 0)
    bank_ns = sum(s.ns for s in banks)

    forward_ms = total_ms(forwards)
    metrics_out = {
        "tensor.read_ms": total_ms(reads) / n_req,
        "tensor.write_ms": total_ms(writes) / n_req,
        "tensor.bytes_read": counted(reads) / n_req,
        "tensor.bytes_written": counted(writes) / n_req,
        "scans.make_schedule_calls": len(sched) / n_req,
        "scans.make_schedule_ms": total_ms(sched) / n_req,
        "scans.schedule_cache_hit_ratio": tracer.cache_hits / len(sched) if sched else 0.0,
        "ssm.bank_scan_calls": len(banks) / n_req,
        "ssm.bank_scan_ms": bank_ns / 1e6 / n_req,
        "ssm.state_updates": updates / n_req,
        "ssm.ns_per_state_update": bank_ns / updates if updates else 0.0,
        "ssm.bytes_computed": counted(banks, 1) / n_req,
        "blocks.lss_calls": len(lss) / n_req,
        "blocks.hss_calls": len(hss) / n_req,
        "blocks.hss_self_ms": total_ms(hss, self_time=True) / n_req,
        "blocks.local_ms": total_ms(lss, self_time=True) / n_req,
        "blocks.worker_speedup": worker_speedup,
        "pipeline.forward_ms": forward_ms / n_req,
        "pipeline.fuse_ms": total_ms(pick("pipeline.fuse")) / n_req,
        "pipeline.decode_ms": total_ms(pick("pipeline.decode")) / n_req,
        "pipeline.score_ms": total_ms(pick("pipeline.score") + pick("pipeline.loss")) / n_req,
        "metrics.evaluate_ms": total_ms(evals) / n_eval,
        "metrics.aupro_ms": total_ms(pick("metrics.aupro", "all")) / n_eval,
        "metrics.components_ms": total_ms(pick("metrics.components", "all")) / n_eval,
        "metrics.sweep_ms": total_ms(
            pick("metrics.auroc", "all") + pick("metrics.ap", "all") + pick("metrics.f1", "all")
        ) / n_eval,
        "metrics.thresholds": counted(evals) / n_eval,
        "metrics.regions": counted(pick("metrics.components", "all")) / n_eval,
        "setup.init_params_ms": total_ms(inits) / max(1, len(inits)),
        "setup.load_params_ms": total_ms(loads) / max(1, len(loads)),
        "setup.params_files": len(param_reads) / max(1, len(loads)),
        "trace.overhead_ratio": overhead_ratio,
        "trace.missing_spans": float(len(tracer.missing)),
    }
    return metrics_out


def self_time_share(tracer: Tracer) -> float:
    """Sum of self times of the spans inside pipeline.forward over its
    duration: 1 when the spans nest properly on one thread."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    forward_ns = sum(s.ns for s in spans if s.name == "pipeline.forward")
    inside = sum(
        selfs[s.id]
        for s in spans
        if s.name in _FORWARD_TILES and _under(s, by_id, "pipeline.forward")
    )
    return inside / forward_ns if forward_ns else 0.0


def _under(span: Span, by_id: dict[int, Span], ancestor: str) -> bool:
    s = span
    while s is not None:
        if s.name == ancestor:
            return True
        s = by_id.get(s.parent) if s.parent is not None else None
    return False
