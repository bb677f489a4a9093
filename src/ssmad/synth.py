"""Deterministic synthetic fixtures: pyramids, masks, and oracle maps.

A fixture directory contains a three-scale feature pyramid (MBT), a
ground-truth mask (PGM), an oracle score map equal to the mask (MBT, handy
for metric smoke tests), and a manifest JSON describing all of it.  The
anomalous kind plants one square and one disc region and perturbs the
pyramid features inside them at every scale.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .pipeline import MAX_MAP_CELLS, FeaturePyramid
from .tensor import (
    BinaryMask,
    Rng,
    Tensor,
    write_mask_pgm_file,
    write_tensor_file,
)

__all__ = ["make_fixture", "write_fixture", "KINDS"]

KINDS = ("normal", "anomalous")


def _planted_mask(size: int, rng: Rng) -> BinaryMask:
    """One axis-aligned square plus one disc, both inside the grid."""
    bits = np.zeros((size, size), dtype=np.uint8)
    side = max(2, size // 4)
    r0 = int(rng.uniform(1, 0, max(1, size // 2 - side))[0])
    c0 = int(rng.uniform(1, 0, max(1, size // 2 - side))[0])
    bits[r0 : r0 + side, c0 : c0 + side] = 1

    radius = max(1.5, size / 8.0)
    cr = size - 1 - int(rng.uniform(1, 0, max(1, size // 4))[0]) - int(radius)
    cc = size - 1 - int(rng.uniform(1, 0, max(1, size // 4))[0]) - int(radius)
    rr, cc_grid = np.mgrid[0:size, 0:size]
    disc = (rr - cr) ** 2 + (cc_grid - cc) ** 2 <= radius * radius
    bits[disc] = 1
    return BinaryMask(bits)


def _downsample_mask(bits: np.ndarray, factor: int) -> np.ndarray:
    h, w = bits.shape
    return bits.reshape(h // factor, factor, w // factor, factor).max(axis=(1, 3))


def make_fixture(kind: str, size: int, channels: int, seed: int):
    """Returns (pyramid, mask, oracle_map).  size must be divisible by 4,
    and the top scale's channels * size**2 at most MAX_MAP_CELLS."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if size % 4 or size < 4:
        raise ValueError("size must be a multiple of 4, at least 4")
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if channels * size * size > MAX_MAP_CELLS:
        raise ValueError(
            f"top scale {channels}x{size}x{size} has more than "
            f"MAX_MAP_CELLS = {MAX_MAP_CELLS} cells"
        )

    rng = Rng(seed)
    scales = []
    for level in range(3):
        c = channels * (2**level)
        s = size // (2**level)
        # strictly positive features: no zero-norm pixel vectors anywhere
        scales.append(rng.uniform(c * s * s, 0.2, 1.0).reshape(c, s, s))

    if kind == "anomalous":
        mask = _planted_mask(size, rng)
        for level, feats in enumerate(scales):
            region = _downsample_mask(mask.bits, 2**level).astype(bool)
            # flip the feature magnitude inside the planted regions
            feats[:, region] = 1.2 - feats[:, region]
    else:
        mask = BinaryMask(np.zeros((size, size), dtype=np.uint8))

    pyramid = FeaturePyramid(
        scales=tuple(Tensor(s.astype(np.float32)) for s in scales)
    )
    oracle = Tensor(mask.bits.astype(np.float32))
    return pyramid, mask, oracle


def write_fixture(directory, kind: str, size: int, channels: int, seed: int) -> dict:
    """Write the fixture files and return the manifest dict."""
    pyramid, mask, oracle = make_fixture(kind, size, channels, seed)
    os.makedirs(directory, exist_ok=True)
    files = {}
    for i, t in enumerate(pyramid.scales):
        name = f"feat_{i}.mbt"
        write_tensor_file(os.path.join(directory, name), t)
        files[f"scale{i}"] = name
    write_mask_pgm_file(os.path.join(directory, "mask.pgm"), mask)
    files["mask"] = "mask.pgm"
    write_tensor_file(os.path.join(directory, "oracle_map.mbt"), oracle)
    files["oracle_map"] = "oracle_map.mbt"

    manifest = {
        "kind": kind,
        "seed": seed,
        "size": size,
        "channels": channels,
        "image_label": 1 if kind == "anomalous" else 0,
        "mask_positives": mask.positives(),
        "pyramid_shapes": [list(t.shape) for t in pyramid.scales],
        "files": files,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
