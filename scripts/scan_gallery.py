#!/usr/bin/env python3
"""Print every traversal method on a small grid and compare their locality.

For each method the gallery shows the visit-rank matrix, then two locality
statistics:

- step: Manhattan distance between consecutive visits (mean and max).  A
  max of 1 means the traversal never teleports across the map.
- window diameter: Manhattan diameter of the cells covered by a contiguous
  run of visits (averaged over all runs).  Small numbers mean a slice of
  the sequence always maps to a compact 2-D patch, which is the property
  that makes a 1-D recurrence see coherent neighbourhoods.

Boustrophedon also never teleports, but its windows are stripes; the
space-filling curve is the one that wins both columns at once.

    python3 scripts/scan_gallery.py --side 8
    python3 scripts/scan_gallery.py --side 16 --direction reverse --no-matrix
"""

import argparse

import numpy as np

from ssmad.scans import ScanDirection, ScanMethod, UnsupportedGeometry, make_schedule


def step_stats(order, side):
    rr, cc = order // side, order % side
    step = np.abs(np.diff(rr)) + np.abs(np.diff(cc))
    return float(step.mean()), int(step.max())


def window_diameter(order, side, window):
    rr, cc = order // side, order % side
    diams = []
    for i in range(len(order) - window + 1):
        r, c = rr[i : i + window], cc[i : i + window]
        diams.append((r.max() - r.min()) + (c.max() - c.min()))
    return float(np.mean(diams))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, default=8, help="grid side length")
    ap.add_argument(
        "--direction",
        default="forward",
        choices=[d.value for d in ScanDirection],
    )
    ap.add_argument(
        "--no-matrix", action="store_true", help="print only the locality table"
    )
    args = ap.parse_args()

    direction = ScanDirection(args.direction)
    side = args.side
    window = max(2, side)
    width = len(str(side * side - 1))
    rows = []
    for method in ScanMethod:
        try:
            sched = make_schedule(method, direction, side, side)
        except UnsupportedGeometry as exc:
            print(f"== {method.value}: skipped ({exc})\n")
            continue
        if not args.no_matrix:
            print(f"== {method.value} / {direction.value}")
            for row in sched.inverse.reshape(side, side):
                print("  " + " ".join(f"{v:>{width}d}" for v in row))
            print()
        mean_step, max_step = step_stats(sched.order, side)
        rows.append(
            (method.value, mean_step, max_step,
             window_diameter(sched.order, side, window))
        )

    print(f"locality on a {side}x{side} grid (window = {window} visits):")
    print(f"  {'method':<8s} {'step mean':>9s} {'step max':>8s} {'win diam':>9s}")
    for name, mean_step, max_step, diam in sorted(rows, key=lambda t: t[3]):
        print(f"  {name:<8s} {mean_step:9.2f} {max_step:8d} {diam:9.2f}")


if __name__ == "__main__":
    main()
