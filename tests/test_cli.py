import json
import math

import pytest

from freelevy.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ncsym ---------------------------------------------------------------------


def test_ncsym_distinct_k2(capsys):
    code, out, _ = run(capsys, "ncsym", "distinct", "--k", "2")
    assert code == 0
    assert out.strip() == "p1*p1 - p2"


def test_ncsym_distinct_verify(capsys):
    code, out, _ = run(
        capsys, "ncsym", "distinct", "--k", "3", "--verify", "--letters", "3"
    )
    assert code == 0
    assert "VERIFY PASS" in out


def test_ncsym_distinct_composition(capsys):
    code, out, _ = run(capsys, "ncsym", "distinct", "--composition", "2,1")
    assert code == 0
    assert out.strip() == "p2*p1 - p3"


def test_ncsym_psi(capsys):
    code, out, _ = run(capsys, "ncsym", "psi", "--n", "2")
    assert code == 0
    assert out.strip() == "X*X - X2"


def test_ncsym_integral_verify(capsys):
    code, out, _ = run(capsys, "ncsym", "integral", "--k", "4", "--verify")
    assert code == 0
    assert "VERIFY PASS" in out


def test_ncsym_bound_violation_exits_2(capsys):
    code, _, err = run(capsys, "ncsym", "psi", "--n", "40")
    assert code == 2
    assert "error" in err


# -- levy -----------------------------------------------------------------------


def write_triple(tmp_path, eta, a, atoms):
    payload = {
        "eta": eta,
        "a": a,
        "rho": {"atoms": atoms, "grid": None},
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(payload))
    return path


def test_levy_variation_pow2(tmp_path, capsys):
    path = write_triple(tmp_path, 1.0, 0.0, [[1.0, 1.0]])
    code, out, _ = run(capsys, "levy", "variation", "--input", str(path), "--p", "pow:2")
    assert code == 0
    data = json.loads(out)
    # eta' = b eta + a c + int 1{0<x^2<=1} x^2 drho = 0 + 0 + 1
    assert data["eta"] == 1.0
    assert data["a"] == 0.0
    assert data["rho"]["atoms"] == [[1.0, 1.0]]


def test_levy_variation_steep_map(tmp_path, capsys):
    # p(x) = 2000 x sends the jump 0.0009 to 1.8 > 1: eta' = -b x = -1.8
    path = write_triple(tmp_path, 0.0, 0.0, [[0.0009, 1.0]])
    code, out, _ = run(capsys, "levy", "variation", "--input", str(path), "--p", "poly:2000")
    assert code == 0
    assert json.loads(out)["eta"] == -1.8


def test_levy_to_pair_semicircle(tmp_path, capsys):
    path = write_triple(tmp_path, 0.0, 1.0, [])
    code, out, _ = run(capsys, "levy", "to-pair", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == 0.0
    assert data["sigma"]["atoms"] == [[0.0, 1.0]]


def test_levy_roundtrip_files(tmp_path, capsys):
    path = write_triple(tmp_path, 2.0, 0.5, [[2.0, 1.0]])
    out_dir = tmp_path / "out"
    code, _, _ = run(
        capsys, "levy", "to-pair", "--input", str(path), "--out", str(out_dir)
    )
    assert code == 0
    pair_file = out_dir / "pair.json"
    assert pair_file.exists()
    assert (out_dir / "pair.manifest.json").exists()
    code, out, _ = run(capsys, "levy", "to-triple", "--input", str(pair_file))
    assert code == 0
    data = json.loads(out)
    assert data["eta"] == pytest.approx(2.0, abs=1e-12)
    assert data["a"] == pytest.approx(0.5, abs=1e-12)
    assert data["rho"]["atoms"] == [[2.0, 1.0]]


def test_levy_cumulants(tmp_path, capsys):
    path = write_triple(tmp_path, 1.0, 0.0, [[1.0, 1.0]])
    code, out, _ = run(capsys, "levy", "cumulants", "--input", str(path), "--n", "4")
    assert code == 0
    assert json.loads(out)["cumulants"] == [1.0, 1.0, 1.0, 1.0]


def test_levy_bp_check(tmp_path, capsys):
    out_dir = tmp_path / "bp"
    code, _, _ = run(
        capsys,
        "levy", "bp-check", "--family", "bernoulli", "--lam", "1.0",
        "--ns", "10,100,1000", "--out", str(out_dir),
    )
    assert code == 0
    csv_lines = (out_dir / "bp_check.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "N,gamma,gamma_residual,sigma_mass,sigma_mean"
    assert len(csv_lines) == 4
    gamma_col = [float(line.split(",")[1]) for line in csv_lines[1:]]
    assert all(abs(g - 0.5) < 1e-12 for g in gamma_col)
    summary = json.loads((out_dir / "bp_check.json").read_text())
    assert summary["gamma"] == pytest.approx(0.5, abs=1e-12)
    assert (out_dir / "bp_check.manifest.json").exists()


def test_levy_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"eta\": 0.0}")
    code, _, err = run(capsys, "levy", "to-pair", "--input", str(bad))
    assert code == 2
    assert err


@pytest.mark.parametrize("action", ["to-pair", "to-triple", "variation", "cumulants"])
def test_levy_missing_input_exit_2(capsys, action):
    code, _, err = run(capsys, "levy", action)
    assert code == 2
    assert f"levy {action} needs --input" in err


def test_levy_unreadable_input_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "levy", "to-pair", "--input", str(missing))
    assert code == 2
    assert str(missing) in err
    assert "Traceback" not in err


def test_levy_input_not_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "levy", "cumulants", "--input", str(bad))
    assert code == 2
    assert str(bad) in err


# -- sim --------------------------------------------------------------------------


def write_config(tmp_path, **kw):
    base = {
        "d": 40,
        "trials": 2,
        "master_seed": 5,
        "N": 4,
        "t": 1.0,
        "lam": 1.0,
        "jump": [[1.0, 1.0]],
        "k_max": 5,
    }
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_sim_identity_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, d=30, N=4, k=3)
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "sim", "identity", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")
    report = json.loads((out_dir / "identity_k3.json").read_text())
    assert report["extras"]["relative_error"] <= 1e-10
    assert (out_dir / "identity_k3.manifest.json").exists()
    csvs = list(out_dir.glob("*.csv"))
    assert csvs and all(
        f.read_text().startswith("bin_lo,bin_hi,count") for f in csvs
    )


def test_sim_variation_cli_threads_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, d=60, trials=3, N=8, k=1)
    out1 = tmp_path / "t1"
    out8 = tmp_path / "t8"
    code1, _, _ = run(
        capsys, "sim", "variation", "--config", str(cfg), "--out", str(out1),
        "--threads", "1",
    )
    code8, _, _ = run(
        capsys, "sim", "variation", "--config", str(cfg), "--out", str(out8),
        "--threads", "8",
    )
    assert code1 == code8 == 0
    assert (out1 / "variation_k1.json").read_bytes() == (
        out8 / "variation_k1.json"
    ).read_bytes()


def test_sim_counterexample_cli(tmp_path, capsys):
    cfg = write_config(
        tmp_path, alpha=0.25, mode="square-of-sum", schedule=[100, 10000]
    )
    code, out, _ = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 0
    report = json.loads(out.rsplit("\n", 2)[0])
    table = report["extras"]["table"]
    assert [row["N"] for row in table] == [100, 10000]
    for row in table:
        n = row["N"]
        assert row["quadratic_sum"] == pytest.approx(
            2.0 / n + 2.0 * math.sqrt(n), rel=1e-12
        )


def test_sim_matcauchy_cli(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        d=150,
        B=[[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]],
        A=[[[1.0, 0.0], [0.0, 0.0]]],
    )
    code, out, _ = run(capsys, "sim", "matcauchy", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    entry = payload["matrix"][1][1]
    assert entry[0] == pytest.approx(0.0, abs=1e-12)
    assert entry[1] == pytest.approx(-0.5, abs=1e-12)
    # the matrix is reported unchecked, so no verdict word
    assert out.splitlines()[-1] == "matcauchy k=2 d=150"


def test_sim_matcauchy_shape_mismatch_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, d=10, B=[[[0.0, 2.0]]], A=[[[1.0, 0.0], [0.0, 1.0]]])
    code, _, err = run(capsys, "sim", "matcauchy", "--config", str(cfg))
    assert code == 2
    assert "(1, 1)" in err and "(2, 2)" in err
    assert "broadcast" not in err


def test_sim_matcauchy_draws_independent_samples(tmp_path, capsys, monkeypatch):
    import numpy as np

    import freelevy.cli as cli

    seen = []
    real = cli.matricial_cauchy

    def capture(b_mat, a_mats, x_mats):
        seen.extend(x_mats)
        return real(b_mat, a_mats, x_mats)

    monkeypatch.setattr(cli, "matricial_cauchy", capture)
    cfg = write_config(
        tmp_path,
        d=20,
        B=[[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]],
        A=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
    )
    code, _, _ = run(capsys, "sim", "matcauchy", "--config", str(cfg))
    assert code == 0
    assert len(seen) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.allclose(seen[i], seen[j]), (i, j)


# a misspelt field, and an extra that only `sim mixed` reads
@pytest.mark.parametrize("key, value", [("lamda", 0.5), ("mode", "product")])
def test_sim_unknown_config_key_exit_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, k=2, **{key: value})
    code, _, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 2
    assert key in err


def test_sim_config_error_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, d=1)
    code, _, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 2
    assert err


def test_sim_unreadable_config_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "sim", "variation", "--config", str(missing))
    assert code == 2
    assert str(missing) in err


def test_sim_verification_failure_exit_1(tmp_path, capsys):
    # at coarse N the quadratic power sum carries its O(1/N) truncation
    # gap to the limit law, so the z-gate trips and the run exits 1,
    # with the report still written
    cfg = write_config(tmp_path, d=200, trials=8, N=4, k=2)
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "sim", "variation", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 1
    assert out.strip().splitlines()[-1].startswith("FAIL")
    assert (out_dir / "variation_k2.json").exists()


def test_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    from freelevy.transforms import ConvergenceError
    import freelevy.cli as cli

    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic divergence")

    monkeypatch.setattr(cli, "verify_variation", boom)
    cfg = write_config(tmp_path)
    code, _, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 3
    assert "numeric failure" in err
