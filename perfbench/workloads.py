"""Workload definitions, seeded input generation and the request bodies.

Only ssmad and numpy are imported here, so the set-up probe can time a
fresh process without loading the rest of the benchmark.  Every call into
ssmad goes through a module attribute (``pipeline.pipeline_forward``) so
that the tracer's patches are seen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ssmad import metrics, pipeline, synth, tensor
from ssmad.scans import ScanDirection

DEFAULT_SEED = 0
# distinct images per decoder run, alternating anomalous and normal; the
# timed loop cycles through them, so every repeat must give the same bytes
POOL = 8
EVAL_MAPS = 16
EVAL_SIZE = 128


@dataclass(frozen=True)
class DecoderWorkload:
    name: str
    size: int            # top resolution of the pyramid
    channels: int        # channels at the top scale; doubled per scale down
    workers: int         # passed to pipeline_forward, never via environment
    load_params: bool    # serve from saved params instead of initialising
    config: dict = field(default_factory=dict)

    def decoder_config(self, seed: int) -> pipeline.DecoderConfig:
        return pipeline.DecoderConfig(seed=seed, **self.config)

    @property
    def pyramid_channels(self) -> tuple[int, int, int]:
        return self.channels, 2 * self.channels, 4 * self.channels


DECODE = DecoderWorkload("decode", size=32, channels=8, workers=1, load_params=False)
DECODE_HIRES = DecoderWorkload(
    "decode-hires", size=128, channels=4, workers=2, load_params=True,
    config=dict(
        stage_depths=(1, 1, 1, 1),
        hss_per_stage=(1, 1, 1, 1),
        directions=(ScanDirection.FORWARD, ScanDirection.REVERSE),
    ),
)
DECODERS = {w.name: w for w in (DECODE, DECODE_HIRES)}


def fixture_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def ready_to_serve(name: str, seed: int, params_dir: str | None):
    """What a serving process does before its first request."""
    if name in DECODERS:
        w = DECODERS[name]
        cfg = w.decoder_config(seed)
        if w.load_params:
            return pipeline.load_decoder_params(params_dir, cfg, w.pyramid_channels)
        return pipeline.init_decoder_params(cfg, w.pyramid_channels)
    return None


# ---------------------------------------------------------------------------
# decoder inputs and requests


@dataclass
class DecoderInputs:
    pyramid_paths: list[list[str]]
    masks: list[np.ndarray]
    labels: list[int]
    mask_paths: list[str]


def make_decoder_inputs(
    w: DecoderWorkload, seed: int, directory: str, count: int = POOL
) -> DecoderInputs:
    os.makedirs(directory, exist_ok=True)
    out = DecoderInputs([], [], [], [])
    for i in range(count):
        kind = "anomalous" if i % 2 == 0 else "normal"
        pyr, mask, _ = synth.make_fixture(kind, w.size, w.channels, fixture_seed(seed, i))
        paths = []
        for level, t in enumerate(pyr.scales):
            paths.append(os.path.join(directory, f"img{i}_scale{level}.mbt"))
            tensor.write_tensor_file(paths[-1], t)
        out.pyramid_paths.append(paths)
        out.mask_paths.append(os.path.join(directory, f"img{i}_mask.pgm"))
        tensor.write_mask_pgm_file(out.mask_paths[-1], mask)
        out.masks.append(mask.bits)
        out.labels.append(int(kind == "anomalous"))
    return out


def decode_request(paths, out_path, cfg, params, workers) -> tuple[float, float]:
    """Read a pyramid, decode and score it, write the map; (loss, score)."""
    scales = tuple(tensor.read_tensor_file(p) for p in paths)
    pyr = pipeline.FeaturePyramid(scales=scales)
    loss, amap = pipeline.pipeline_forward(pyr, cfg, params, workers=workers)
    tensor.write_tensor_file(out_path, tensor.Tensor(amap.scores))
    return loss, amap.image_score


# ---------------------------------------------------------------------------
# evaluation inputs and requests


def write_manifest(path, map_paths, mask_paths, image_scores, image_labels) -> None:
    """An ``ssmad eval`` manifest with paths relative to its directory."""
    base = os.path.dirname(os.path.abspath(path))
    samples = [
        {
            "score_map": os.path.relpath(m, base),
            "mask": os.path.relpath(k, base),
            "image_score": float(s),
            "image_label": int(l),
        }
        for m, k, s, l in zip(map_paths, mask_paths, image_scores, image_labels)
    ]
    with open(path, "w") as fh:
        json.dump({"samples": samples}, fh)


@dataclass
class EvalInputs:
    manifest: str
    maps: list[np.ndarray]
    masks: list[np.ndarray]
    image_scores: list[float]
    labels: list[int]


def make_eval_inputs(seed: int, directory: str) -> EvalInputs:
    """Half the maps carry the planted square and disc.  Scores are the
    mask plus Gaussian noise, replaced by their pooled ranks / N so that
    every pixel is a distinct threshold (k / 2**18 is exact in float32)."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    masks, labels = [], []
    for i in range(EVAL_MAPS):
        kind = "anomalous" if i % 2 == 0 else "normal"
        _, mask, _ = synth.make_fixture(kind, EVAL_SIZE, 1, fixture_seed(seed, i))
        masks.append(mask.bits)
        labels.append(int(kind == "anomalous"))
    raw = np.stack(masks).astype(np.float64) + rng.normal(0.0, 1.0, (EVAL_MAPS, EVAL_SIZE, EVAL_SIZE))
    ranks = np.empty(raw.size, dtype=np.int64)
    ranks[np.argsort(raw, axis=None)] = np.arange(1, raw.size + 1)
    scores = (ranks.reshape(raw.shape) / raw.size).astype(np.float32)
    maps = [scores[i] for i in range(EVAL_MAPS)]
    map_paths, mask_paths = [], []
    for i in range(EVAL_MAPS):
        map_paths.append(os.path.join(directory, f"map{i}.mbt"))
        tensor.write_tensor_file(map_paths[-1], tensor.Tensor(maps[i]))
        mask_paths.append(os.path.join(directory, f"mask{i}.pgm"))
        tensor.write_mask_pgm_file(mask_paths[-1], tensor.BinaryMask(masks[i]))
    image_scores = [float(m.max()) for m in maps]
    manifest = os.path.join(directory, "manifest.json")
    write_manifest(manifest, map_paths, mask_paths, image_scores, labels)
    return EvalInputs(manifest, maps, masks, image_scores, labels)


def eval_request(manifest_path: str) -> metrics.MetricsReport:
    """The ``ssmad eval`` path: read the manifest's maps and masks, evaluate."""
    with open(manifest_path) as fh:
        samples = json.load(fh)["samples"]
    base = os.path.dirname(os.path.abspath(manifest_path))
    maps = [tensor.read_tensor_file(os.path.join(base, s["score_map"])) for s in samples]
    masks = [tensor.read_mask_pgm_file(os.path.join(base, s["mask"])) for s in samples]
    image = metrics.LabeledScores(
        scores=np.array([s["image_score"] for s in samples]),
        labels=np.array([s["image_label"] for s in samples]),
    )
    return metrics.evaluate(image, maps, masks)
