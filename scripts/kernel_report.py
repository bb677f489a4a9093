#!/usr/bin/env python3
"""Numerical and timing report for the recurrence kernels.

Two sections:

1. agreement: worst relative error between the recurrent reference and the
   convolutional / chunked-parallel / selective forms and the decoder's
   chunked bank scan on random instances, plus the finite-difference
   gradient check.
2. timing: median ns per element for the recurrent and chunked-parallel
   scans over a ladder of sequence lengths; then median ns per state update
   (channels x length x state size) of the bank scan over the same ladder.

    python3 scripts/kernel_report.py
    python3 scripts/kernel_report.py --instances 200 --lengths 1024,65536
"""

import argparse
import statistics
import time

import numpy as np

from ssmad.ssm import (
    SsmDiscrete,
    SelectiveInputs,
    SsmParams,
    build_conv_kernel,
    discretize,
    gradcheck,
    scan_convolutional,
    scan_parallel,
    scan_recurrent,
    selective_scan,
    ssm_bank_scan,
    zoh,
)
from ssmad.tensor import Rng


def rand_params(rng, n):
    return SsmParams(
        a=rng.uniform(n, -2.0, -0.01),
        b=rng.uniform(n, -1.0, 1.0),
        c=rng.uniform(n, -1.0, 1.0),
        delta=float(rng.uniform(1, 0.05, 1.0)[0]),
    )


def rel(got, want):
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-30))


def agreement_section(instances, max_len, seed):
    rng = Rng(seed)
    worst = {"convolution": 0.0, "parallel": 0.0, "selective": 0.0, "bank": 0.0}
    for _ in range(instances):
        n = 1 + int(rng.uniform(1, 0, 8)[0])
        length = 1 + int(rng.uniform(1, 0, max_len)[0])
        p = rand_params(rng, n)
        d = discretize(p)
        x = rng.uniform(length, -1.0, 1.0)
        y_ref = scan_recurrent(d, x).array

        y = scan_convolutional(build_conv_kernel(d, length), x).array
        worst["convolution"] = max(worst["convolution"], rel(y, y_ref))

        y = scan_parallel(d, x).array
        worst["parallel"] = max(worst["parallel"], rel(y, y_ref))

        s = SelectiveInputs(
            x=x,
            delta=np.full(length, p.delta),
            b=np.broadcast_to(p.b, (length, n)).copy(),
            c=np.broadcast_to(p.c, (length, n)).copy(),
            a=p.a,
        )
        y = selective_scan(s).array
        worst["selective"] = max(worst["selective"], rel(y, y_ref))

        # a bank of four channels: this instance plus three with other steps
        a = np.broadcast_to(p.a, (4, n))
        b = np.broadcast_to(p.b, (4, n))
        c = np.broadcast_to(p.c, (4, n))
        delta = np.append(p.delta, rng.uniform(3, 0.05, 1.0))
        xs = np.stack([x, *rng.uniform(3 * length, -1.0, 1.0).reshape(3, length)])
        y_bank = ssm_bank_scan(a, b, c, delta, xs)
        for ch in range(4):
            a_bar, b_bar = zoh(a[ch], delta[ch], b[ch])
            y_ch = scan_recurrent(SsmDiscrete(a_bar=a_bar, b_bar=b_bar, c=c[ch]), xs[ch]).array
            worst["bank"] = max(worst["bank"], rel(y_bank[ch], y_ch))

    grad_worst = max(
        gradcheck(1 + i % 16, 1 + i % 4, seed=seed * 100 + i)["max_rel_error"]
        for i in range(20)
    )

    print(f"agreement vs the step-by-step recurrence ({instances} instances):")
    for name, err in worst.items():
        print(f"  {name:<12s} worst rel error {err:.3e}")
    print(f"  {'gradcheck':<12s} worst rel error {grad_worst:.3e}  (vs central differences)")
    print()


def median_ns(fn, size, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / size


def timing_section(lengths, repeats, seed):
    rng = Rng(seed)
    n = 8
    d = discretize(rand_params(rng, n))
    print("median ns/element (sequence scan, state size 8):")
    print("  length    recurrent  parallel")
    for length in lengths:
        x = rng.uniform(length, -1.0, 1.0)
        rec = median_ns(lambda: scan_recurrent(d, x), length, repeats)
        par = median_ns(lambda: scan_parallel(d, x), length, repeats)
        print(f"  {length:<8d}{rec:9.1f}{par:10.1f}")

    channels = 16
    a = rng.uniform(channels * n, -2.0, -0.01).reshape(channels, n)
    b = rng.uniform(channels * n, -1.0, 1.0).reshape(channels, n)
    c = rng.uniform(channels * n, -1.0, 1.0).reshape(channels, n)
    delta = rng.uniform(channels, 0.05, 1.0)
    print()
    print(f"median ns/state update (ssm_bank_scan, {channels} channels, state size {n}):")
    print("  length    bank")
    for length in lengths:
        x = rng.uniform(channels * length, -1.0, 1.0).reshape(channels, length)
        ns = median_ns(lambda: ssm_bank_scan(a, b, c, delta, x), channels * length * n, repeats)
        print(f"  {length:<8d}{ns:6.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--max-len", type=int, default=256)
    ap.add_argument("--lengths", default="1024,8192,65536")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    agreement_section(args.instances, args.max_len, args.seed)
    timing_section(
        [int(v) for v in args.lengths.split(",") if v],
        args.repeats,
        args.seed,
    )


if __name__ == "__main__":
    main()
