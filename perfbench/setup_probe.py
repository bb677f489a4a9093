"""Time one set-up in a fresh process.

usage: setup_probe.py ROOT WORKLOAD SEED [PARAMS_DIR]

Imports ssmad from ROOT/src, does what a serving process does before its
first request (``workloads.ready_to_serve``), then prints
``time.monotonic()``.  The parent reads the clock before starting this
process; CLOCK_MONOTONIC is shared by all processes, so the difference is
process start to ready.
"""

import os
import sys
import time


def main() -> None:
    root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    params_dir = sys.argv[4] if len(sys.argv) > 4 else None
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.ready_to_serve(name, seed, params_dir)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
