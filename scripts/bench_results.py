"""Run every benchmark workload end to end and write one results file.

    python scripts/bench_results.py --out results.json [--seconds S]
        [--workloads free-convolution,...] [--checkout PATH]

For each workload that BENCHMARK.json lists (or the --workloads subset), run
`perfbench/run.py --seed 1 --trace 0` in the checkout, one workload at a
time, by `bench_pairs.run_once`, and keep the last line of its output. The
file records the checkout's commit, whether its tracked files differ from
that commit (and if so the sha256 of `git diff HEAD`, which names the
measured tree), nproc, the BLAS thread count the launcher pinned (read from
the same run's output), and per workload `wall_s`, `setup_s`,
`peak_rss_mib`, `correct`, `attempted` and `failed`. --checkout measures
another checkout (e.g. a parent commit) with this script. --seconds defaults
to the benchmark's `run_seconds`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from bench_pairs import run_once

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mib")
SEED = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--checkout", default=str(ROOT))
    return parser.parse_args(argv)


def git(checkout: Path, *args):
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(checkout: Path, name: str, seconds: float) -> dict:
    result, stdout = run_once(checkout, name, SEED, seconds)
    entry = {key: result["metrics"][key]["value"] for key in METRICS}
    entry.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                 blas_threads=int(re.search(r"blas_threads=(\d+)", stdout).group(1)))
    return entry


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path(args.checkout).resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        chosen = args.workloads.split(",")
        unknown = sorted(set(chosen) - set(names))
        if unknown:
            raise SystemExit(f"unknown workloads {unknown}; choose from {names}")
        names = [n for n in names if n in chosen]
    workloads = {}
    for name in names:
        workloads[name] = run_workload(checkout, name, seconds)
        print(name, json.dumps(workloads[name]), flush=True)
    threads = {w.pop("blas_threads") for w in workloads.values()}
    if len(threads) != 1:
        raise SystemExit(f"the workloads ran with different BLAS thread counts {sorted(threads)}")
    # tracked files changed on top of that commit, named by the hash of their diff
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=checkout, capture_output=True).stdout
    results = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": dirty,
        "diff_sha256": hashlib.sha256(diff).hexdigest() if dirty else None,
        "nproc": os.cpu_count(),
        "blas_threads": threads.pop(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
