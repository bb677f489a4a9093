#!/usr/bin/env python3
"""Desk-scale end-to-end run: synthetic set -> decoder -> seven-metric report.

Builds a small batch of synthetic fixtures (half anomalous, half normal),
pushes each feature pyramid through the randomly initialised decoder, scores
the reconstructions, and evaluates the whole batch.  A random decoder is not
a trained model, so the decoder scores hover near chance; pass
``--scores oracle`` to swap in the planted ground truth as the score map and
watch every metric saturate, which checks the evaluation plumbing end to end.

    python3 scripts/e2e_demo.py --out /tmp/demo
    python3 scripts/e2e_demo.py --out /tmp/demo --scores oracle
"""

import argparse
import json
import os

import numpy as np

from ssmad import synth
from ssmad.metrics import LabeledScores, evaluate
from ssmad.pipeline import DecoderConfig, init_decoder_params, pipeline_forward
from ssmad.tensor import Tensor, write_tensor_file


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--pairs", type=int, default=3, help="anomalous/normal pairs")
    ap.add_argument("--size", type=int, default=16, help="top-scale side length")
    ap.add_argument("--channels", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scores", choices=("decoder", "oracle"), default="decoder")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    cfg = DecoderConfig(
        stage_depths=(1, 1, 1, 1),
        hss_per_stage=(1, 1, 1, 1),
        state_size=2,
        seed=args.seed,
    )
    # the synthetic pyramids double their channel count per scale
    scale_channels = (args.channels, 2 * args.channels, 4 * args.channels)
    params = init_decoder_params(cfg, scale_channels)

    maps, masks, image_scores, image_labels = [], [], [], []
    rows = []
    for i in range(2 * args.pairs):
        kind = "anomalous" if i < args.pairs else "normal"
        label = 1 if kind == "anomalous" else 0
        pyramid, mask, oracle = synth.make_fixture(
            kind, args.size, args.channels, seed=args.seed * 1000 + i
        )
        loss, amap = pipeline_forward(pyramid, cfg, params)
        if args.scores == "oracle":
            score_map = oracle
            image_score = float(oracle.array.max())
        else:
            score_map = Tensor(amap.scores)
            image_score = amap.image_score
        name = f"{kind}_{i:02d}"
        write_tensor_file(os.path.join(args.out, f"{name}.mbt"), score_map)
        maps.append(score_map)
        masks.append(mask)
        image_scores.append(image_score)
        image_labels.append(label)
        rows.append((name, loss, image_score))

    print(f"{'sample':<14s} {'recon loss':>10s} {'image score':>11s}")
    for name, loss, score in rows:
        print(f"{name:<14s} {loss:10.4f} {score:11.4f}")

    report = evaluate(
        LabeledScores(np.array(image_scores), np.array(image_labels)),
        maps,
        masks,
    )
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    image, pixel, mad_cell = report.csv_cells()
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write("image,pixel,mAD\n" + f"{image},{pixel},{mad_cell}\n")

    print()
    print(f"scores from: {args.scores}")
    print(f"image  auroc/ap/f1max       {image}")
    print(f"pixel  auroc/ap/f1max/aupro {pixel}")
    print(f"seven-metric mean           {mad_cell}")
    print(f"written to {args.out}/report.json and report.csv")


if __name__ == "__main__":
    main()
