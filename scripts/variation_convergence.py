#!/usr/bin/env python3
"""Sweep the time-grid resolution and tabulate how the quadratic power sum
approaches the variation law: empirical moments, the exact pre-limit
moments, the limiting moments, and the Frobenius proxy.

Usage: python scripts/variation_convergence.py [--d 300] [--trials 10]
       [--k 2] [--out variation_sweep.csv]
"""

import argparse
import csv
import sys

from freelevy.rmt import SimConfig, verify_variation


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=300)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--out", default="variation_sweep.csv")
    args = ap.parse_args(argv)

    rows = []
    for n in (4, 8, 16, 32, 64):
        cfg = SimConfig(
            d=args.d, trials=args.trials, master_seed=args.seed, N=n,
            t=1.0, lam=1.0, jump=[[1.0, 1.0]],
        )
        report = verify_variation(cfg, args.k, threads=args.threads)
        finite = report.extras["finite_n_reference"]
        limit = [m["predicted"] for m in report.moments]
        proxy = report.extras["proxy_norms"][-1]
        for m, fin, lim in zip(report.moments, finite, limit):
            rows.append(
                {
                    "N": n,
                    "order": m["order"],
                    "mean": m["mean"],
                    "stderr": m["stderr"],
                    "finite_law": fin,
                    "limit_law": lim,
                    "proxy_at_N": proxy,
                }
            )
        print(
            f"N={n:3d}  m1={report.moments[0]['mean']:.5f} "
            f"(finite {finite[0]:.5f}, limit {limit[0]:.0f})  proxy={proxy:.4f}"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
