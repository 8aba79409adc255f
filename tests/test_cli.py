import argparse
import json
import math
import warnings
from pathlib import Path

import pytest

from freelevy.cli import _load_sim_config, _ManifestWriter, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_levy_variation_keeps_a_tiny_image(tmp_path, capsys):
    # only an image at exactly 0 is dropped: x^2 sends the jump 1e-7 to 1e-14,
    # which stays both in rho and in the compensator's drift
    path = write_triple(tmp_path, 0.0, 0.0, [[1e-7, 1.0]])
    code, out, _ = run(capsys, "levy", "variation", "--input", str(path), "--p", "pow:2")
    assert code == 0
    data = json.loads(out)
    assert data["rho"]["atoms"] == [[1e-7**2, 1.0]]
    assert data["eta"] == 1e-7**2


def test_levy_variation_steep_map(tmp_path, capsys):
    # p(x) = 2000 x sends the jump 0.0009 to 1.8 > 1: eta' = -b x = -1.8
    path = write_triple(tmp_path, 0.0, 0.0, [[0.0009, 1.0]])
    code, out, _ = run(capsys, "levy", "variation", "--input", str(path), "--p", "poly:2000")
    assert code == 0
    assert json.loads(out)["eta"] == -1.8


def test_levy_variation_cube_of_a_grid_fills_the_image(tmp_path, capsys):
    # x^3 spreads each source cell over its image like every map, so the
    # written density has no empty node between the ends of its grid
    xs = [0.5 + 0.01 * i for i in range(201)]
    grid = {"lo": 0.5, "hi": 2.5, "h": 0.01, "values": [math.exp(-x) for x in xs]}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"eta": 0.0, "a": 0.0, "rho": {"atoms": [], "grid": grid}}))
    code, out, _ = run(capsys, "levy", "variation", "--input", str(path), "--p", "pow:3")
    assert code == 0
    values = json.loads(out)["rho"]["grid"]["values"]
    assert len(values) == 4097 and min(values[1:-1]) > 0.0


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


def write_pair(tmp_path, gamma, atoms):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"gamma": gamma, "sigma": {"atoms": atoms, "grid": None}}))
    return path


def test_levy_to_triple_keeps_a_tiny_sigma_atom_off_the_origin(tmp_path, capsys):
    # only sigma's atom at exactly 0 is the semicircular part a
    path = write_pair(tmp_path, 0.0, [[1e-100, 1.0]])
    code, out, _ = run(capsys, "levy", "to-triple", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["a"] == 0.0
    [[atom, mass]] = data["rho"]["atoms"]
    assert atom == 1e-100 and mass == pytest.approx(1e200, rel=1e-15)


@pytest.mark.parametrize("atom", [1e-200, 1e-160], ids=["x2-underflows", "mass-overflows"])
def test_levy_to_triple_whose_rho_leaves_the_floats_exits_3(tmp_path, capsys, atom):
    path = write_pair(tmp_path, 0.0, [[atom, 1.0]])
    code, _, err = run(capsys, "levy", "to-triple", "--input", str(path))
    assert code == 3
    assert "numeric failure: the pair's rho overflows the floats" in err
    assert "Traceback" not in err


def test_levy_cumulants(tmp_path, capsys):
    path = write_triple(tmp_path, 1.0, 0.0, [[1.0, 1.0]])
    code, out, _ = run(capsys, "levy", "cumulants", "--input", str(path), "--n", "4")
    assert code == 0
    assert json.loads(out)["cumulants"] == [1.0, 1.0, 1.0, 1.0]


def test_levy_cumulants_that_leave_the_floats_exit_3(tmp_path, capsys):
    # the exact kappa_400 = 10^400 is rounded once, in a numeric stage
    path = write_triple(tmp_path, 0, 0, [[10, 1]])
    code, out, err = run(capsys, "levy", "cumulants", "--input", str(path), "--n", "400")
    assert code == 3
    assert err.startswith("numeric failure: the cumulants of the triple overflow the floats")
    assert "Traceback" not in err and out == ""


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


FAR_ATOM = {"atoms": [[1e100, 1]]}
FAR_GRID = {"atoms": [], "grid": {"lo": 1e100, "hi": 2e100, "h": 1e99, "values": [1e-100] * 11}}


def far_grid(lo):
    """A grid on [lo, 2 lo] of total mass about 1."""
    return {"atoms": [], "grid": {"lo": lo, "hi": 2 * lo, "h": lo / 10, "values": [1 / lo] * 11}}


@pytest.mark.parametrize("rho, action, flags, named", [
    # x^4 in the atom moments, and p(x) in the compensator
    (FAR_ATOM, "cumulants", ["--n", "6"], "the cumulants of the triple overflow"),
    (FAR_ATOM, "variation", ["--p", "pow:4"], "the variation triple overflows"),
    # on a grid the same powers give inf, in the moments and in p's image
    (FAR_GRID, "cumulants", ["--n", "6"], "report field cumulants[3] is not finite"),
    (FAR_GRID, "variation", ["--p", "pow:4"], "the image of rho's density under p leaves"),
    # rho's (1 + x^2) / x^2 is NaN once x^2 overflows
    ({"atoms": [[1e200, 1.0]]}, "to-triple", [], "the pair's rho overflows"),
    (far_grid(1e200), "to-pair", [], "report field sigma.grid.values[0] is not finite"),
    (far_grid(1e200), "to-triple", [], "the pair's rho overflows"),
], ids=["atom-cumulants", "atom-variation", "grid-cumulants", "grid-variation",
        "far-atom-to-triple", "far-grid-to-pair", "far-grid-to-triple"])
def test_levy_that_overflows_exits_3(tmp_path, capsys, rho, action, flags, named):
    path = tmp_path / "triple.json"
    data = {"gamma": 0, "sigma": rho} if action == "to-triple" else {"eta": 0, "a": 0, "rho": rho}
    path.write_text(json.dumps(data))
    target = tmp_path / "out.json"
    code, _, err = run(capsys, "levy", action, "--input", str(path), *flags, "--out", str(target))
    assert code == 3
    assert f"numeric failure: {named}" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("action, data, measure", [
    ("to-pair", {"eta": 0.0, "a": 0.0, "rho": far_grid(1e120)}, "sigma"),
    ("to-triple", {"gamma": 0.0, "sigma": far_grid(1e120)}, "rho"),
], ids=["to-pair", "to-triple"])
def test_levy_whose_unused_branch_overflows_is_quiet(tmp_path, capsys, action, data, measure):
    # the tilt's x^3 overflows on every node but is not the branch taken there;
    # under the suite's warnings-as-errors a RuntimeWarning would fail the run
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "levy", action, "--input", str(path))
    assert code == 0 and err == ""
    assert all(math.isfinite(v) for v in json.loads(out)[measure]["grid"]["values"])


@pytest.mark.parametrize("action, data, key, want", [
    ("to-pair", {"eta": 0, "a": 0, "rho": {"atoms": [[1e120, 1.0]]}}, "gamma", 1e-120),
    ("to-triple", {"gamma": 0, "sigma": {"atoms": [[1e120, 1.0]]}}, "eta", -1e-120),
], ids=["to-pair", "to-triple"])
def test_levy_whose_unused_branch_overflows_on_an_atom_is_quiet(
        tmp_path, capsys, action, data, key, want):
    # x^3 of an atom at 1e120 overflows, but outside [-1, 1] the tilt is
    # -x / (1 + x^2) = -1e-120, so gamma = eta + 1e-120 and nothing is cubed
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "levy", action, "--input", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)[key] == want


def test_levy_measure_guard_on_a_far_grid_is_quiet(tmp_path, capsys):
    # the mass, about 1e12, sends LevyMeasure to its min(1, x^2) integral,
    # whose x^2 overflows on every node without a warning; the cumulant
    # a + int x^2 is then inf, and the report names it
    rho = {"atoms": [], "grid": {"lo": 1e200, "hi": 2e200, "h": 5e199, "values": [1e-188] * 3}}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"eta": 0, "a": 0, "rho": rho}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "levy", "cumulants", "--input", str(path), "--n", "2")
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert err == "numeric failure: report field cumulants[1] is not finite\n"


def test_levy_bp_check_that_overflows_writes_nothing(tmp_path, capsys):
    # sigma_N's mass N x^2 / (1 + x^2) is inf / inf at x = 1e159
    out_dir = tmp_path / "bp"
    code, _, err = run(capsys, "levy", "bp-check", "--family", "drift", "--c", "1e160",
                       "--ns", "10,100", "--out", str(out_dir))
    assert code == 3
    assert "numeric failure: report field sigma_mass is not finite" in err
    assert "Traceback" not in err
    assert not (out_dir / "bp_check.csv").exists() and not (out_dir / "bp_check.json").exists()


def test_levy_rejects_a_lam_that_is_not_finite_before_writing(tmp_path, capsys):
    path = write_triple(tmp_path, 1.0, 0.0, [[1.0, 1.0]])
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "levy", "to-pair", "--input", str(path),
                       "--out", str(out_dir / "pair.json"), "--lam", "nan")
    assert code == 2
    assert err.startswith("error: --lam must be a finite real number, got nan")
    assert not out_dir.exists()


def test_a_bare_overflow_error_is_still_internal(tmp_path, capsys, monkeypatch):
    import freelevy.cli as cli

    def boom(*args, **kwargs):
        raise OverflowError("not raised by a numeric stage")

    monkeypatch.setattr(cli, "triple_to_cumulants", boom)
    path = write_triple(tmp_path, 1.0, 0.0, [[1.0, 1.0]])
    code, _, err = run(capsys, "levy", "cumulants", "--input", str(path))
    assert code == 4
    assert "Traceback" in err


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


def test_sim_variation_predicts_a_tiny_jump(tmp_path, capsys):
    # for delta_a, lam t = 1 and k = 2 the limit law is free Poisson with
    # jump a^2: m_2 = 2 a^4, where an absolute floor at 1e-12 once gave a^4
    a = 1e-6
    cfg = write_config(tmp_path, d=20, trials=2, N=4, k=2, k_max=2, jump=[[a, 1.0]])
    out_dir = tmp_path / "run"
    run(capsys, "sim", "variation", "--config", str(cfg), "--out", str(out_dir))
    report = json.loads((out_dir / "variation_k2.json").read_text())
    assert report["moments"][1]["predicted"] == pytest.approx(2 * a**4, rel=1e-15, abs=0)


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


# mixed decays by far less than its threshold from n = 4 to 8, so it exits 1
@pytest.mark.parametrize("extras, stem, code", [
    pytest.param({"k": 1}, "variation_k1", 0, id="variation"),
    pytest.param({"mode": "anticommutator", "schedule": [4, 8]}, "mixed_anticommutator", 1,
                 id="mixed-anticommutator"),
    pytest.param({"mode": "product", "schedule": [4, 8]}, "mixed_product", 1,
                 id="mixed-product"),
    pytest.param({"k": 2}, "identity_k2", 0, id="identity"),
])
def test_sim_variation_cli_threads_byte_identical(tmp_path, capsys, extras, stem, code):
    cfg = write_config(tmp_path, d=60, trials=3, N=8, **extras)
    subcommand = stem.split("_")[0]
    for threads in ("1", "8"):
        got, _, _ = run(capsys, "sim", subcommand, "--config", str(cfg),
                        "--out", str(tmp_path / threads), "--threads", threads)
        assert got == code, threads
    assert (tmp_path / "1" / f"{stem}.json").read_bytes() == (
        tmp_path / "8" / f"{stem}.json"
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


@pytest.mark.parametrize("entry", [1e-11, 1.0])
def test_sim_matcauchy_rejects_a_non_hermitian_a_at_any_scale(tmp_path, capsys, entry):
    raw = json.loads((CONFIGS / "matcauchy.json").read_text())
    raw["A"] = [[[0.0, entry], [0.0, 0.0]]]
    cfg = tmp_path / "matcauchy.json"
    cfg.write_text(json.dumps(raw))
    code, _, err = run(capsys, "sim", "matcauchy", "--config", str(cfg))
    assert code == 2
    assert "needs Hermitian coefficients" in err


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


@pytest.mark.parametrize(
    "field",
    [{"lam": 0.0}, {"lam": -0.5}, {"lam": math.nan}, {"jump": [[math.nan, 1.0]]},
     {"jump": [[1.0, 1.5], [2.0, -0.5]]}],
)
def test_sim_mixed_rejects_degenerate_laws_exit_2(tmp_path, capsys, field):
    cfg = write_config(tmp_path, d=4, N=8, **field)
    code, out, err = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 2
    assert next(iter(field)) in err
    assert "PASS" not in out


@pytest.mark.parametrize("schedule", [[0, 4], [-4, 4], [2.5, 4], [True, 4], "8"])
def test_sim_mixed_bad_schedule_exit_2(tmp_path, capsys, schedule):
    cfg = write_config(tmp_path, d=4, N=4, schedule=schedule)
    code, out, err = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 2
    assert "schedule" in err and repr(schedule[0]) in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize(
    "field, value",
    [("k", 2.7), ("k", True), ("k", "2"), ("k_max", True), ("N", 4.0), ("d", 40.5)],
)
def test_sim_non_integer_field_exit_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, **{field: value})
    code, out, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 2
    assert f"{field} must be an integer" in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize(
    "field, value",
    [("decay_threshold", True), ("decay_threshold", "0.5"), ("t", True), ("t", "1"),
     ("lam", True), ("alpha", "0.25"), ("jump", [["1", 1.0]]),
     ("decay_threshold", math.nan), ("t", math.inf), ("lam", math.nan),
     pytest.param("lam", 10**400, id="lam-401-digits"),
     ("jump", [[1.0, math.inf]])],
)
def test_sim_non_real_field_exit_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, d=4, N=4, **{field: value})
    code, out, err = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"error: {field} ") and "real number" in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("k_max", [0, -1])
def test_sim_variation_k_max_below_1_exit_2(tmp_path, capsys, k_max):
    cfg = write_config(tmp_path, k=2, k_max=k_max)
    code, out, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 2
    assert f"error: k_max must be an integer >= 1, got {k_max}" in err and "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("mode", ["anticommutator", "product", "square-of-sum"])
def test_sim_mixed_empty_schedule_exit_2(tmp_path, capsys, mode):
    cfg = write_config(tmp_path, d=4, N=4, alpha=0.25, mode=mode, schedule=[])
    code, out, err = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 2
    assert "schedule must be a nonempty list" in err and "Traceback" not in err
    assert "PASS" not in out and "FAIL" not in out


def test_sim_variation_one_trial_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=1, k=2)
    code, out, err = run(capsys, "sim", "variation", "--config", str(cfg))
    assert code == 2
    assert "at least 2 trials" in err
    assert "FAIL" not in out


def strict_json(text):
    """The JSON in text, refusing the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_sim_variation_with_no_spread_writes_strict_json(tmp_path, capsys):
    # at lam = 1e-9 no step fires, so both trials give the same moments: the
    # spread is 0, the mean misses, and each z is null with its reason
    cfg = write_config(tmp_path, d=2, trials=2, N=4, lam=1e-9, jump=[[1.0, 1.0]], k=2)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "sim", "variation", "--config", str(cfg), "--out", str(out_dir))
    assert code == 1
    assert out.splitlines()[-1] == "FAIL k=2 z=null n=4"
    report = strict_json((out_dir / "variation_k2.json").read_text())
    assert not report["passed"]
    for m in report["moments"]:
        assert m["stderr"] == 0.0 and m["z"] is None
        assert m["z_reason"] == "no spread across the trials, and the mean misses the prediction"
    assert strict_json((out_dir / "variation_k2.manifest.json").read_text())["exit_status"] == 1


_B = [[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]
_A = [[[1.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "key, fields",
    [("B", {"A": _A}), ("A", {"B": _B}),
     ("B", {"A": _A, "B": [[[0.0, "2"], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}),
     ("B", {"A": _A, "B": [[0.0, 2.0], [0.0, 2.0]]}),
     ("A", {"B": _B, "A": [[["1", 0.0], [0.0, 0.0]]]}),
     ("A", {"B": _B, "A": [[[True, 0.0], [0.0, 0.0]]]}),
     ("A", {"B": _B, "A": [[1.0, 0.0], [0.0, 0.0]]}),
     ("B", {"A": _A, "B": [[[0.0, math.nan], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}),
     ("A", {"B": _B, "A": [[[math.inf, 0.0], [0.0, 0.0]]]})],
)
def test_sim_matcauchy_missing_or_malformed_inputs_exit_2(tmp_path, capsys, key, fields):
    cfg = write_config(tmp_path, d=10, **fields)
    code, out, err = run(capsys, "sim", "matcauchy", "--config", str(cfg))
    assert code == 2
    assert f"needs '{key}'" in err and "k x k" in err
    assert out == ""


def test_sim_mixed_without_mixed_mass_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, d=4, N=16, lam=1e-9)
    code, out, _ = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 1
    assert out.strip().splitlines()[-1].startswith("FAIL")


@pytest.mark.parametrize(
    "name, subcommand",
    [("cp1", "variation"), ("identity_small", "identity"), ("mixed", "mixed"),
     ("counterexample", "mixed"), ("matcauchy", "matcauchy")],
)
def test_example_config_loads_under_its_subcommand(name, subcommand):
    path = CONFIGS / f"{name}.json"
    manifest = _ManifestWriter("sim", argparse.Namespace())
    cfg, raw = _load_sim_config(path, subcommand, manifest)
    # every field is spelled out in the file, none falls back to a default
    assert cfg.to_json() == {key: raw[key] for key in cfg.to_json()}


@pytest.mark.parametrize(
    "name, subcommand, verdict",
    [("identity_small", "identity", "PASS"), ("counterexample", "mixed", "PASS"),
     ("matcauchy", "matcauchy", "matcauchy k=2 d=200")],
)
def test_example_config_runs(tmp_path, capsys, name, subcommand, verdict):
    config = str(CONFIGS / f"{name}.json")
    code, out, _ = run(capsys, "sim", subcommand, "--config", config, "--out", str(tmp_path))
    assert code == 0
    assert out.strip().splitlines()[-1].startswith(verdict)


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


_TRIPLE = {"eta": 0.0, "a": 0.0, "rho": {"atoms": [[1.0, 1.0]], "grid": None}}
_CONFIG = {"d": 4, "trials": 2, "master_seed": 5, "N": 4, "t": 1.0, "lam": 1.0,
           "jump": [[1.0, 1.0]], "k_max": 3}


# argv, the JSON (or raw text) given as --input (levy) or --config (sim), text the error must hold
@pytest.mark.parametrize(
    "argv, data, named",
    [pytest.param(["levy", "to-pair"], dict(_TRIPLE, rho=[1]), "rho", id="rho-list"),
     pytest.param(["levy", "to-triple"], {"gamma": 0.0, "sigma": [1]}, "sigma", id="sigma-list"),
     pytest.param(["levy", "to-pair"], {"eta": 0.0, "rho": _TRIPLE["rho"]}, "'a'",
                  id="missing-a"),
     pytest.param(["levy", "to-pair"], dict(_TRIPLE, rho={"atoms": [[1.0]]}), "rho atoms",
                  id="atom-not-a-pair"),
     pytest.param(["levy", "to-pair"], dict(_TRIPLE, eta="x"), "eta", id="eta-string"),
     pytest.param(["levy", "to-pair"], dict(_TRIPLE, eta=math.nan), "eta", id="eta-nan"),
     pytest.param(["levy", "to-pair"], dict(_TRIPLE, a=-math.inf), "a must", id="a-inf"),
     pytest.param(["levy", "to-pair"], dict(_TRIPLE, eta=10**400), "eta", id="eta-401-digits"),
     pytest.param(["levy", "to-pair"], '{"eta": %s, "a": 0, "rho": {}}' % ("1" * 5000),
                  "is not JSON", id="eta-5000-digits"),
     pytest.param(["levy", "to-triple"], {"gamma": 0.0, "sigma": {"atoms": [[1.0, math.nan]]}},
                  "sigma atoms", id="sigma-mass-nan"),
     pytest.param(["levy", "variation", "--p", "pow:x"], _TRIPLE, "--p", id="p-pow"),
     pytest.param(["levy", "variation", "--p", "poly:a"], _TRIPLE, "--p", id="p-poly"),
     pytest.param(["levy", "variation", "--p", "pow:2,3"], _TRIPLE, "--p", id="p-pow-list"),
     pytest.param(["levy", "cumulants", "--n", "0"], _TRIPLE, "order n", id="cumulants-n-0"),
     pytest.param(["levy", "bp-check", "--ns", "10,x"], None, "--ns", id="ns-not-int"),
     *[pytest.param(["levy", "bp-check", "--family", family, "--ns", "0,10"], None, "ns ",
                    id=f"ns-0-{family}") for family in ("bernoulli", "drift", "symmetric")],
     *[pytest.param(["levy", "bp-check", "--lam", lam], None, "lam ", id=f"lam-{lam}")
       for lam in ("nan", "inf")],
     *[pytest.param(["levy", "bp-check", "--family", "drift", "--c", c], None, "--c ",
                    id=f"c-{c}") for c in ("nan", "inf")],
     pytest.param(["ncsym", "distinct", "--composition", "2,x"], None, "--composition",
                  id="composition-not-int"),
     pytest.param(["ncsym", "distinct", "--k", "2", "--verify", "--letters", "0"], None,
                  "letters must be", id="letters-0"),
     *[pytest.param(["sim", "mixed"], dict(_CONFIG, jump=jump), "jump", id=f"jump-{jump}")
       for jump in ([1.0], 5, [[1.0]], [[1, 1, 2]])],
     pytest.param(["sim", "mixed"], {k: v for k, v in _CONFIG.items() if k != "d"},
                  "required keys: d", id="config-without-d"),
     pytest.param(["sim", "variation", "--threads", "0"], _CONFIG, "threads", id="threads-0")],
)
def test_malformed_input_exit_2(tmp_path, capsys, argv, data, named):
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        argv = argv + ["--config" if argv[0] == "sim" else "--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert "PASS" not in out and "FAIL" not in out


def test_unknown_bp_family_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["levy", "bp-check", "--family", "poisson"])
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


def run_with_a_bug(tmp_path, capsys, monkeypatch, where):
    import freelevy.cli as cli

    def bug(*args, **kwargs):
        raise TypeError("synthetic internal error")

    monkeypatch.setattr(cli, where, bug)
    cfg = write_config(tmp_path, k=2)
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "sim", "variation", "--config", str(cfg), "--out", str(out_dir))
    assert code == 4
    assert "Traceback" in err and err.rstrip().endswith("TypeError: synthetic internal error")
    return out_dir / "variation_k2.manifest.json"


def test_internal_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    manifest = run_with_a_bug(tmp_path, capsys, monkeypatch, "verify_variation")
    assert not manifest.exists()


def test_internal_error_after_the_report_is_in_the_manifest(tmp_path, capsys, monkeypatch):
    # the CSV writer fails after the report file is written
    manifest = run_with_a_bug(tmp_path, capsys, monkeypatch, "histogram_csv_lines")
    assert json.loads(manifest.read_text())["exit_status"] == 4


def test_sim_passes_only_the_extras_in_the_config(tmp_path, capsys, monkeypatch):
    import freelevy.cli as cli

    seen = []
    real = cli.mixed_decay

    def capture(config, **kwargs):
        seen.append(kwargs)
        return real(config, **kwargs)

    monkeypatch.setattr(cli, "mixed_decay", capture)
    cfg = write_config(tmp_path, d=4, N=4, mode="product")
    code, _, _ = run(capsys, "sim", "mixed", "--config", str(cfg), "--out", str(tmp_path))
    assert seen == [{"mode": "product", "threads": 1}]
    assert code == 1 and (tmp_path / "mixed_product.json").exists()


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


@pytest.mark.parametrize("atom, k_max, named", [
    (1e60, 3, "the predicted moments overflow"),  # an OverflowError in the exact pipeline
    (1e80, 1, "report field extras.proxy_norms[0] is not finite"),  # inf in the Monte Carlo
], ids=["exact-pipeline", "monte-carlo"])
def test_sim_variation_that_overflows_exits_3(tmp_path, capsys, atom, k_max, named):
    cfg = write_config(tmp_path, d=8, N=4, k=2, k_max=k_max, jump=[[atom, 1.0]])
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "sim", "variation", "--config", str(cfg), "--out", str(out_dir))
    assert code == 3
    assert f"numeric failure: {named}" in err and "Traceback" not in err
    assert not (out_dir / "variation_k2.json").exists()


def test_sim_mixed_that_overflows_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, d=8, N=4, jump=[[1e200, 1.0]])
    code, _, err = run(capsys, "sim", "mixed", "--config", str(cfg))
    assert code == 3
    assert "numeric failure: the predicted m2 overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("alpha, n", [
    (1e300, 2),  # 2 ** 1e300 raises OverflowError
    (-1000, 10),  # 10 ** -2000.0 is 0.0, and a division by it raises ZeroDivisionError
], ids=["overflow", "underflow"])
def test_sim_square_of_sum_that_overflows_exits_3(tmp_path, capsys, alpha, n):
    cfg = write_config(tmp_path, alpha=alpha, mode="square-of-sum", schedule=[n])
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "sim", "mixed", "--config", str(cfg), "--out", str(out_dir))
    assert code == 3
    assert err.startswith("numeric failure: the counterexample's quadratic sums leave the floats: ")
    assert "Traceback" not in err and not (out_dir / "mixed_square_of_sum.json").exists()
