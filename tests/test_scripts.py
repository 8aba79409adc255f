import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freelevy.rmt import counterexample_rows

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_variation_convergence_cubic_writes_csv(tmp_path):
    # k = 3 with the default k_max = 5 needs moments of order 15
    out = tmp_path / "sweep.csv"
    proc = run_script(
        "variation_convergence.py",
        "--k", "3", "--d", "20", "--trials", "2", "--threads", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {int(r["N"]) for r in rows} == {4, 8, 16, 32, 64}
    assert all(r["finite_law"] for r in rows)


def test_mixed_decay_trend_prints_its_table():
    proc = run_script("mixed_decay_trend.py", "--d", "20", "--trials", "2", "--threads", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["N", "m2", "N*m2"]
    rows = [line.split() for line in lines[1:5]]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64]
    for n, m2, scaled in rows:
        assert float(m2) > 0
        # m2 is printed to 5 decimals, N*m2 to 4
        assert abs(float(scaled) - int(n) * float(m2)) <= int(n) * 5e-6 + 5e-5
    label, ratio = lines[5].split(": ")
    assert label == "decay ratio (last/first)"
    assert float(ratio) == pytest.approx(float(rows[-1][1]) / float(rows[0][1]), abs=1e-3)


def test_counterexample_table_prints_its_rows():
    proc = run_script("counterexample_table.py", "--alpha", "0.25", "--ns", "100,10000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["alpha=0.25", "t=1.0"]
    assert lines[1].split()[0] == "N"
    printed = [line.split() for line in lines[2:]]
    rows = counterexample_rows(0.25, [100, 10000], 1.0)
    assert len(printed) == len(rows)
    for fields, row in zip(printed, rows):
        assert int(fields[0]) == row["N"]
        # every value is printed to 6 decimals
        for text, key in zip(fields[1:], ("quadratic_sum", "reference", "ratio")):
            assert abs(float(text) - row[key]) <= 5e-7, (key, text, row[key])


def test_bench_results_writes_its_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script(
        "bench_results.py", "--out", str(out), "--workloads", "free-convolution", "--seconds", "0",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(out.read_text())
    assert set(results) == {
        "commit", "dirty", "diff_sha256", "nproc", "blas_threads", "seed", "seconds", "workloads",
    }
    assert results["commit"] is None or len(results["commit"]) == 40
    assert isinstance(results["dirty"], bool)
    # a dirty tree is named by the hash of its diff against the commit
    assert (results["diff_sha256"] is None) == (not results["dirty"])
    assert results["dirty"] is False or len(results["diff_sha256"]) == 64
    assert results["seed"] == 1
    assert results["nproc"] == os.cpu_count()
    assert results["blas_threads"] == 1
    assert list(results["workloads"]) == ["free-convolution"]
    entry = results["workloads"]["free-convolution"]
    assert set(entry) == {"wall_s", "setup_s", "peak_rss_mib", "correct", "attempted", "failed"}
    assert all(entry[key] > 0 for key in ("wall_s", "setup_s", "peak_rss_mib"))
    assert entry["correct"] is True
    assert entry["failed"] == 0 and entry["attempted"] > 0


def test_bench_results_rejects_an_unknown_workload(tmp_path):
    proc = run_script("bench_results.py", "--out", str(tmp_path / "b.json"), "--workloads", "nope")
    assert proc.returncode != 0
    assert "unknown workloads ['nope']" in proc.stderr


def test_bench_pairs_prints_medians_spread_and_wins():
    # one checkout on both sides: the smoke run checks the protocol, not a gain
    proc = run_script(
        "bench_pairs.py", "--base", str(ROOT), "--change", str(ROOT),
        "--workload", "exact-cold", "--pairs", "2", "--first-seed", "5", "--seconds", "0",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "pair 1 seed 5 (base/change)", "pair 2 seed 6 (base/change)",
    ]
    assert lines[2].split() == [
        "metric", "base_median", "change_median", "base_iqr", "gap", "rel_gap", "bound",
        "wins", "claimable", "verdict",
    ]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = [line.split() for line in lines[3:-2]]
    assert [r[0] for r in rows] == [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, base, change, iqr, gap, rel_gap, bound, wins, claimable, verdict in rows:
        assert float(base) > 0 and float(change) > 0 and float(iqr) >= 0
        assert math.isfinite(float(rel_gap)) and float(bound) == bounds[name]
        assert wins in ("0/2", "1/2", "2/2") and claimable in ("yes", "no")
        assert verdict in ("held", "unresolved", "regressed")
    # exact-cold's round takes milliseconds: its medians keep 3 significant digits
    wall = next(r for r in rows if r[0] == "wall_s")
    for median in wall[1:3]:
        digits = median.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0")
        assert len(digits) >= 3, median
    assert lines[-2:] == [
        "base: 0 of 2 runs not correct, failed share 0/" + lines[-2].rsplit("/", 1)[1],
        "change: 0 of 2 runs not correct, failed share 0/" + lines[-1].rsplit("/", 1)[1],
    ]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


# ten runs with median 1.0 and quartile distance 0.15: a spread of 0.15
STEADY_BASE = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0]


def test_bench_pairs_claims_only_a_steady_gain():
    bench_pairs = load_bench_pairs()
    base = STEADY_BASE
    row = bench_pairs.compare(base, [b - 0.5 for b in base], "lower", 0.25)
    assert row["wins"] == 10 and row["claimable"]
    assert row["gap"] == pytest.approx(0.5) and row["base_iqr"] == pytest.approx(0.15)
    # the gap as a share of the base median, the scale of a metric's bound
    assert row["rel_gap"] == pytest.approx(0.5)
    assert bench_pairs.compare(base, [b + 0.3 for b in base], "lower", 0.25)["rel_gap"] == (
        pytest.approx(-0.3)
    )
    # a gap inside the base's quartile distance is no claim, whatever the wins
    assert not bench_pairs.compare(base, [b - 0.05 for b in base], "lower", 0.25)["claimable"]
    # 8 wins of 10 is no claim; "higher" counts the other way
    assert not bench_pairs.compare(
        base, [b - 0.5 for b in base[:8]] + [2.0, 2.0], "lower", 0.25
    )["claimable"]
    assert bench_pairs.compare(base, [b + 0.5 for b in base], "higher", 0.25)["wins"] == 10


@pytest.mark.parametrize(
    "change, better, bound, verdict",
    [
        # worse by 0.2 of the median, inside the bound and the spread 0.15
        ([b + 0.2 for b in STEADY_BASE], "lower", 0.25, "held"),
        ([b + 0.3 for b in STEADY_BASE], "lower", 0.25, "regressed"),
        ([b - 0.3 for b in STEADY_BASE], "higher", 0.25, "regressed"),
        ([b + 0.3 for b in STEADY_BASE], "higher", 0.25, "held"),
        # the spread 0.15 exceeds a bound of 0.1: no change reads as unresolved
        (STEADY_BASE, "lower", 0.1, "unresolved"),
        ([b - 0.2 for b in STEADY_BASE], "lower", 0.1, "unresolved"),
        # ... unless every change run beats every base run
        ([0.7] * 10, "lower", 0.1, "held"),
        ([1.3] * 10, "higher", 0.1, "held"),
        # a median worse by more than the bound is a regression, whatever the spread
        ([b + 0.2 for b in STEADY_BASE], "lower", 0.1, "regressed"),
    ],
)
def test_bench_pairs_verdict_reads_the_bound(change, better, bound, verdict):
    assert load_bench_pairs().compare(STEADY_BASE, change, better, bound)["verdict"] == verdict


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_traced_names_resolve(monkeypatch):
    # `--trace 1` looks every traced name up on its module (a dotted name on
    # its class), so a deleted or renamed one would fail only there
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for span, module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert part in vars(owner), (span, module_name, attr)
            owner = vars(owner)[part]
        assert callable(owner), span
