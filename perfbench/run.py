"""Run one freelevy benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`. The
BLAS thread count is pinned to 1 before numpy loads. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones (`wall_s`, `setup_s`, `peak_rss_mib`); with `--trace 1` they are the
per-layer ones, from a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build(name: str, seed: int, workdir: Path):
    """Build one workload's inputs: its set-up."""
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def run_rounds(workload, seconds: float, keep_outputs: bool = False):
    """Whole rounds until `seconds` have passed; at least one.

    Returns per-round (wall seconds, window start, window end, outputs,
    problems, failed ops). Checks run between rounds, outside the timing.
    Unless `keep_outputs`, only the newest round's outputs are kept, so
    peak memory does not grow with the number of rounds.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        if rounds and not keep_outputs:
            rounds[-1]["outputs"] = None
        workload.before_round()
        start = time.perf_counter()
        outputs = workload.round()
        end = time.perf_counter()
        problems, failed = workload.check(outputs)
        rounds.append({"wall": end - start, "start": start, "end": end, "outputs": outputs,
                       "problems": problems, "failed": failed})
        if end >= deadline:
            return rounds


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workdir: Path) -> dict:
    setup = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
    workload = build(args.workload, args.seed, workdir)
    rounds = run_rounds(workload, args.seconds)
    problems = [p for r in rounds for p in r["problems"]]
    problems += workload.final_checks(rounds[-1]["outputs"])
    walls = [r["wall"] for r in rounds]
    print(f"rounds={len(walls)} round_walls_s={[round(w, 4) for w in walls]} "
          f"blas_threads={BLAS_THREADS}")
    if hasattr(workload, "verdicts"):
        print(f"verdict_exit_codes={workload.verdicts(rounds[-1]['outputs'])}")
    return {
        "problems": problems,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            "wall_s": metric(statistics.fmean(walls), "s"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        },
    }


def traced(args, workdir: Path) -> dict:
    import layers
    import tracing

    import workloads

    named = build(args.workload, args.seed, workdir)
    others = [cls(args.seed, workdir) for name, cls in workloads.WORKLOADS.items()
              if name != args.workload]
    untraced = run_rounds(named, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_rounds = {named.name: run_rounds(named, args.seconds / 2, keep_outputs=True)}
        for other in others:
            traced_rounds[other.name] = run_rounds(other, 0, keep_outputs=True)
    finally:
        tracer.uninstall()
    by_name = {w.name: w for w in [named] + others}
    problems = [p for r in untraced for p in r["problems"]]
    problems += [p for rs in traced_rounds.values() for r in rs for p in r["problems"]]
    values = layers.per_layer_metrics(tracer, traced_rounds, by_name)
    overhead = (statistics.fmean(r["wall"] for r in traced_rounds[named.name])
                / statistics.fmean(r["wall"] for r in untraced) - 1.0)
    values["trace.overhead_pct"] = metric(100.0 * overhead, "%")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(trace_path, "wt") as fh:
        json.dump(tracer.to_json(), fh)
    print(f"spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    rounds = untraced + traced_rounds[named.name]
    return {
        "problems": problems,
        "attempted": named.ops_per_round * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": values,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freelevy" / "__init__.py").is_file():
        print(f"error: no freelevy sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        build(args.workload, args.seed, OUT / f"probe-{os.getpid()}")
        print(time.monotonic())
        shutil.rmtree(OUT / f"probe-{os.getpid()}", ignore_errors=True)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    try:
        result = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
