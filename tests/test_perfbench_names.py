"""The ssmad names and call forms that perfbench binds to.

``perfbench/spans.py`` times each layer by replacing the module attributes
named in its ``TRACED`` table, and reads the schedule cache through any
``cache_info`` it finds in ``ssmad.scans``.  perfbench also calls
``hss_forward`` and ``pipeline_forward`` with arguments that ssmad ignores.
A rename or a dropped parameter would turn a traced metric into
``missing`` or make a benchmark run fail, so it fails here instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from ssmad import blocks, metrics, pipeline, scans
from ssmad.tensor import BinaryMask, Tensor

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_an_ssmad_attribute():
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # make_schedule is wrapped now, yet the cache is still found
        assert spans.schedule_cache_counts() is not None
    finally:
        tracer.uninstall()


def test_perfbench_call_forms_still_bind():
    # perfbench/workloads.py and perfbench/run.py; cfg is positional
    inspect.signature(pipeline.pipeline_forward).bind("pyr", "cfg", "params", workers=2)
    inspect.signature(blocks.hss_forward).bind("x", "hp", workers=2)


def test_schedule_cache_is_not_make_schedule():
    # the tracer replaces make_schedule with a wrapper that has no
    # cache_info, so the memo must live under another name
    cached = [
        name for name, obj in vars(scans).items()
        if callable(getattr(obj, "cache_info", None))
    ]
    assert cached and "make_schedule" not in cached


def test_evaluate_labels_every_mask_through_the_module(monkeypatch):
    # perfbench's metrics.components span and metrics.regions count wrap
    # metrics.connected_components; an evaluate that labelled its masks
    # another way would read them as silent zeros
    real, calls = metrics.connected_components, []

    def counting(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(metrics, "connected_components", counting)
    rng = np.random.default_rng(0)
    bits = (rng.random((4, 6, 5)) < 0.4).astype(np.uint8)
    bits[0, 0, 0], bits[0, -1, -1], bits[3] = 1, 0, 0  # the last mask is empty
    masks = [BinaryMask(b) for b in bits]
    maps = [Tensor(rng.random((6, 5)).astype(np.float32)) for _ in masks]
    image = metrics.LabeledScores([0.9, 0.4, 0.7, 0.1], [1, 1, 1, 0])
    metrics.evaluate(image, maps, masks)
    assert [id(m) for m in calls] == [id(m) for m in masks]
