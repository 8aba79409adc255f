#!/usr/bin/env python3
"""Decay of the mixed anticommutator sum of two independent compound-Poisson
families as the time grid refines (expected ~ 1/N).

Usage: python scripts/mixed_decay_trend.py [--d 400] [--trials 10]
"""

import argparse
import sys

from freelevy.rmt import SimConfig, mixed_decay


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=400)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--mode", default="anticommutator",
                    choices=["anticommutator", "product"])
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args(argv)

    cfg = SimConfig(
        d=args.d, trials=args.trials, master_seed=args.seed, N=64,
        t=1.0, lam=1.0, jump=[[-1.0, 0.5], [1.0, 0.5]],
    )
    report = mixed_decay(cfg, args.mode, schedule=[8, 16, 32, 64], threads=args.threads)
    print("N      m2          N*m2")
    for n, m2 in zip(report.extras["schedule"], report.extras["m2_by_n"]):
        print(f"{n:<6d} {m2:<11.5f} {n * m2:.4f}")
    print(f"decay ratio (last/first): {report.extras['decay_ratio']:.4f}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
