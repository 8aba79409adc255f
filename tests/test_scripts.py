import csv
import json
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
