import csv
import os
import subprocess
import sys
from pathlib import Path

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
