"""Compare two checkouts on one benchmark workload by alternating paired runs.

    python scripts/bench_pairs.py --base PATH --change PATH --workload NAME
        [--pairs 10] [--first-seed 1] [--seconds S]

Pair i runs `perfbench/run.py --workload NAME --seed FIRST+i --trace 0` once
in each checkout, the base first on even pairs and the change first on odd
ones, so that neither side always meets a warmer or a busier machine, and
prints both sides' end-to-end metrics. Every run is a fresh process in its
own checkout. For each end-to-end metric of
the change's BENCHMARK.json the script prints the median of each side, the
base's quartile distance (Q3 - Q1), the gap between the medians (positive
when the change is better), that gap as a share of the base median next to
the metric's `bound`, so that a claim can be sized against the bound, and the
number of pairs the change won (strictly better, in the metric's direction).
A gain is `claimable` when the change won at least 9 of 10 pairs (rounded
down for other counts) and the gap exceeds the base's quartile distance.
The no-regression verdict reads the metric's `bound`, a share of the base
median: `regressed` when the change's median is worse than the base's by
more than the bound; else `unresolved` when the base's spread,
(Q3 - Q1) / median, exceeds the bound, unless every change run beats every
base run; else `held`.
The last lines give each side's runs that were not correct and its failed
share of operations. --seconds defaults to the benchmark's `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One untraced `perfbench/run.py` run in `checkout`: the result of its
    last line and its whole stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout} {workload}: perfbench/run.py exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def compare(base: list, change: list, better: str, bound: float) -> dict:
    """Medians, the base's quartile distance, the gap, the gap as a share of
    the base median, the change's wins and the no-regression verdict against
    the relative `bound`."""
    sign = 1.0 if better == "lower" else -1.0
    q1, q3 = np.percentile(base, [25, 75])
    base_median = float(np.median(base))
    # losses: lower is better on both sides
    lb, lc = [sign * v for v in base], [sign * v for v in change]
    gap = float(np.median(lb) - np.median(lc))
    wins = sum(b > c for b, c in zip(lb, lc))
    if -gap > bound * base_median:
        verdict = "regressed"
    elif q3 - q1 > bound * base_median and not max(lc) < min(lb):
        verdict = "unresolved"
    else:
        verdict = "held"
    return {
        "base_median": base_median,
        "change_median": float(np.median(change)),
        "base_iqr": float(q3 - q1),
        "gap": gap,
        "rel_gap": gap / base_median,
        "wins": int(wins),
        "claimable": wins >= (9 * len(base)) // 10 and gap > q3 - q1,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    base, change = Path(args.base).resolve(), Path(args.change).resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", base), ("change", change)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_once(checkout, args.workload, seed, seconds)[0])
        values = ", ".join(
            f"{m['name']} {runs['base'][-1]['metrics'][m['name']]['value']:.4f}"
            f"/{runs['change'][-1]['metrics'][m['name']]['value']:.4f}"
            for m in bench["end_to_end"]
        )
        print(f"pair {i + 1} seed {seed} (base/change): {values}", flush=True)
    print(f"{'metric':<14}{'base_median':>13}{'change_median':>15}{'base_iqr':>11}"
          f"{'gap':>11}{'rel_gap':>9}{'bound':>7}{'wins':>8}  claimable  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        row = compare(values["base"], values["change"], metric["better"], metric["bound"])
        print(f"{name:<14}{row['base_median']:>13.4f}{row['change_median']:>15.4f}"
              f"{row['base_iqr']:>11.4f}{row['gap']:>11.4f}{row['rel_gap']:>+9.3f}"
              f"{metric['bound']:>7.2f}{row['wins']:>5}/{args.pairs:<2}"
              f"  {'yes' if row['claimable'] else 'no':<9}  {row['verdict']}")
    for side in runs:
        wrong = sum(not r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {wrong} of {args.pairs} runs not correct, "
              f"failed share {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
