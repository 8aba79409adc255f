import math

import numpy as np
import pytest

from freelevy.cumulants import free_joint_functional, mixed_free_cumulant
from freelevy.measures import semicircle
from freelevy.rmt import (
    SimConfig,
    SimError,
    counterexample_rows,
    esd,
    hermitize,
    matricial_cauchy,
    mixed_decay,
    power_sums,
    predicted_variation_moments,
    sample_cp_increments,
    sample_gue,
    stream,
    trace_moments,
    variation_target,
    verify_integral_identity,
    verify_variation,
)
from freelevy.transforms import cauchy


def small_config(**kw):
    base = dict(d=60, trials=4, master_seed=99, N=8, t=1.0, lam=1.0, jump=[[1.0, 1.0]])
    base.update(kw)
    return SimConfig(**base)


# -- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(SimError):
        small_config(d=1)
    with pytest.raises(SimError):
        small_config(lam=2.0, t=0.9)
    with pytest.raises(SimError):
        small_config(jump=[[0.0, 1.0]])
    with pytest.raises(SimError):
        small_config(jump=[[1.0, 0.5]])
    with pytest.raises(SimError):
        small_config(t=1.5)


def test_config_json_roundtrip():
    cfg = small_config()
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_json_rejects_unknown_keys():
    cfg = small_config()
    # subcommand extras are skipped, anything else is an error
    assert SimConfig.from_json(dict(cfg.to_json(), k=3, mode="product")) == cfg
    with pytest.raises(SimError, match="lamda"):
        SimConfig.from_json(dict(cfg.to_json(), lamda=0.5))
    with pytest.raises(SimError, match="JSON object"):
        SimConfig.from_json([1, 2])


# -- sampling ------------------------------------------------------------------


def test_gue_moments_large_d():
    rng = stream(7, 0, "gue_a")
    h = sample_gue(1000, rng)
    m = trace_moments(h, 4)
    assert abs(m[0]) <= 0.05
    assert abs(m[1] - 1.0) <= 0.05
    assert abs(m[3] - 2.0) <= 0.1


def test_gue_hermitian():
    h = sample_gue(50, stream(1, 2, "gue_a"))
    assert np.allclose(h, h.conj().T)


def test_streams_are_reproducible_and_distinct():
    a1 = stream(5, 1, "gue_a").random(4)
    a2 = stream(5, 1, "gue_a").random(4)
    b = stream(5, 2, "gue_a").random(4)
    c = stream(5, 1, "gue_b").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_cp_process_delta1_is_squared_gue():
    cfg = small_config(d=200, N=1)
    (x,) = sample_cp_increments(cfg, 0)
    s, _, _ = __import__("freelevy.rmt", fromlist=["_draw_marks"])._draw_marks(cfg, 0)
    assert np.allclose(x, hermitize(s @ s), atol=1e-10)
    assert trace_moments(x, 1)[0] == pytest.approx(1.0, abs=0.1)


def test_telescoping_sum_independent_of_n():
    cfg_a = small_config(N=4)
    cfg_b = small_config(N=32)
    sum_a = power_sums(sample_cp_increments(cfg_a, 3), 1)
    sum_b = power_sums(sample_cp_increments(cfg_b, 3), 1)
    assert np.max(np.abs(sum_a - sum_b)) <= 1e-12 * max(1.0, np.max(np.abs(sum_a)))


def test_cp_second_moment_free_poisson():
    # free Poisson(1): m2 = lam + lam^2 = 2
    cfg = small_config(d=500, trials=20, N=1)
    vals = []
    for trial in range(cfg.trials):
        (x,) = sample_cp_increments(cfg, trial)
        vals.append(trace_moments(x, 2)[1])
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert abs(mean - 2.0) <= 3 * stderr + 0.02


def test_power_sums_rejects_empty_input():
    for empty in ([], iter(())):
        with pytest.raises(SimError, match="needs at least one increment"):
            power_sums(empty, 2)


def test_variation_target_projection_powers():
    cfg = small_config(d=80)
    t1 = variation_target(cfg, 1, trial=5)
    t3 = variation_target(cfg, 3, trial=5)
    assert np.allclose(t1, t3)  # 0/1 diagonal: e(t)^k = e(t)


def test_variation_target_mean_jump2():
    cfg = small_config(d=400, lam=0.5, jump=[[2.0, 1.0]], trials=8)
    vals = [
        trace_moments(variation_target(cfg, 2, trial=i), 1)[0]
        for i in range(cfg.trials)
    ]
    # kappa_1(X^(2)) = lam * t * 4
    assert abs(float(np.mean(vals)) - 2.0) <= 0.15


# -- esd / moments ---------------------------------------------------------------


def test_esd_identity():
    eigs = esd(np.eye(10, dtype=complex))
    assert np.allclose(eigs, 1.0)
    assert trace_moments(np.eye(10), 3) == [1.0, 1.0, 1.0]


def test_esd_uniform_diag():
    d = 100
    h = np.diag(np.arange(1, d + 1) / d).astype(complex)
    assert trace_moments(h, 1)[0] == pytest.approx(0.505, abs=1e-12)


def test_trace_moments_match_eigenvalues():
    rng = stream(3, 0, "gue_a")
    h = sample_gue(200, rng)
    eigs = esd(h)
    via_powers = trace_moments(h, 6)
    via_eigs = [float(np.mean(eigs**m)) for m in range(1, 7)]
    for a, b in zip(via_powers, via_eigs):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


# -- variation verification --------------------------------------------------------


def test_predicted_moments_catalan():
    cfg = small_config()
    assert predicted_variation_moments(cfg, 2, 5) == [1.0, 2.0, 5.0, 14.0, 42.0]


def test_predicted_moments_symmetric_cube():
    cfg = small_config(lam=1.0, jump=[[-1.0, 0.5], [1.0, 0.5]])
    # kappa_m of the cubic variation alternates 0, 1, 0, 1
    from freelevy.cumulants import cumulants_to_moments

    expected = [float(x) for x in cumulants_to_moments([0, 1, 0, 1, 0])]
    assert predicted_variation_moments(cfg, 3, 5) == expected


def test_verify_variation_small():
    cfg = small_config(d=150, trials=6, N=16)
    report = verify_variation(cfg, 2)
    assert [m["order"] for m in report.moments] == [1, 2, 3, 4, 5]
    assert report.moments[0]["predicted"] == 1.0
    hist = report.histograms["power_sum_spectrum"]
    assert sum(hist["counts"]) == cfg.d * cfg.trials
    # proxy norms decrease along the doubling schedule
    assert report.extras["proxy_inversions"] <= 1
    # the simulated means track the exact finite-N law (k >= 2 carries an
    # O(1/N) truncation gap to the limiting law, visible in the z column)
    reference = report.extras["finite_n_reference"]
    assert reference[0] == pytest.approx(1.0 + 1.0 / cfg.N, rel=1e-12)
    for m, ref in zip(report.moments, reference):
        slack = 5.0 * m["stderr"] + 0.05 * abs(ref)
        assert abs(m["mean"] - ref) <= slack, (m, ref)
    # the pass flag is the conjunction of the moment and proxy criteria
    zs_ok = all(abs(m["z"]) <= 4.0 for m in report.moments if not m["informational"])
    assert report.passed == (zs_ok and report.extras["proxy_inversions"] <= 1)


def test_verify_variation_k1_matches_process():
    cfg = small_config(d=120, trials=5, N=8)
    report = verify_variation(cfg, 1)
    assert report.passed
    assert report.moments[0]["predicted"] == 1.0


def test_verify_variation_reports_finite_n_reference_above_order_12():
    # k * k_max = 15: the pre-limit law needs increment moments up to order 15
    cfg = small_config(d=20, trials=2, N=4, k_max=5)
    report = verify_variation(cfg, 3)
    reference = report.extras["finite_n_reference"]
    assert len(reference) == 5
    # first moment of sum_i X_i^3 for unit jumps: N * m_3 of one increment,
    # m_3 = delta + 3 delta^2 + delta^3 with delta = lam t / N
    delta = 1.0 / cfg.N
    assert reference[0] == pytest.approx(cfg.N * (delta + 3 * delta**2 + delta**3), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_variation_means_are_the_public_model(k):
    cfg = small_config(d=30, trials=1, N=8, t=0.7, lam=0.9, jump=[[-0.7, 0.4], [1.3, 0.6]])
    report = verify_variation(cfg, k)
    expected = trace_moments(power_sums(sample_cp_increments(cfg, 0), k), cfg.k_max)
    assert [m["mean"] for m in report.moments] == expected


def test_verify_variation_threads_deterministic():
    cfg = small_config(d=80, trials=6, N=8)
    r1 = verify_variation(cfg, 2, threads=1)
    r8 = verify_variation(cfg, 2, threads=8)
    assert r1.dumps() == r8.dumps()


# -- integral identity ---------------------------------------------------------------


def test_identity_k1_exact():
    cfg = small_config(d=30, trials=2, N=4)
    report = verify_integral_identity(cfg, 1)
    assert report.passed
    assert report.extras["relative_error"] <= 1e-14


def test_identity_k2_is_square_minus_squares():
    cfg = small_config(d=25, trials=1, N=5)
    report = verify_integral_identity(cfg, 2)
    assert report.passed


@pytest.mark.parametrize("n,k", [(4, 3), (5, 4)])
def test_identity_suite(n, k):
    cfg = small_config(d=50, trials=2, N=n)
    report = verify_integral_identity(cfg, k)
    assert report.passed, report.extras


def test_identity_bounds():
    cfg = small_config(N=7)
    with pytest.raises(SimError):
        verify_integral_identity(cfg, 2)
    with pytest.raises(SimError):
        verify_integral_identity(small_config(N=4), 6)


def test_identity_threads_deterministic():
    cfg = small_config(d=40, trials=3, N=4)
    assert (
        verify_integral_identity(cfg, 3, threads=1).dumps()
        == verify_integral_identity(cfg, 3, threads=4).dumps()
    )


# -- mixed decay -----------------------------------------------------------------------


def test_mixed_decay_trend():
    cfg_a = small_config(d=150, trials=4, N=32, master_seed=11)
    cfg_b = small_config(d=150, trials=4, N=32, master_seed=11)
    report = mixed_decay(cfg_a, cfg_b, "anticommutator", schedule=[4, 8, 16, 32])
    m2 = report.extras["m2_by_n"]
    assert report.extras["inversions"] <= 1
    assert m2[-1] <= 0.5 * m2[0]


def test_mixed_decay_product_mode():
    cfg = small_config(d=100, trials=4, N=16, master_seed=21)
    report = mixed_decay(cfg, cfg, "product", schedule=[4, 16])
    assert report.extras["m2_by_n"][-1] <= report.extras["m2_by_n"][0]


@pytest.mark.parametrize("mode", ["anticommutator", "product"])
def test_mixed_decay_is_the_public_model(mode):
    cfg_a = small_config(d=30, trials=1, N=8, t=0.7, lam=0.9, jump=[[-0.7, 0.4], [1.3, 0.6]])
    cfg_b = small_config(d=30, trials=1, N=8, master_seed=7, lam=0.6, jump=[[0.5, 1.0]])
    report = mixed_decay(cfg_a, cfg_b, mode, schedule=[cfg_a.N])
    acc = np.zeros((cfg_a.d, cfg_a.d), dtype=complex)
    for x, y in zip(sample_cp_increments(cfg_a, 0, "a"), sample_cp_increments(cfg_b, 0, "b")):
        acc += x @ y + y @ x if mode == "anticommutator" else x @ y
    m2 = float(np.trace(acc @ acc.conj().T).real) / cfg_a.d
    assert report.extras["m2_by_n"] == [m2]


def test_mixed_decay_rejects_config_b_of_another_d():
    cfg_a = small_config(d=5, trials=1, N=4)
    cfg_b = small_config(d=4, trials=1, N=4)
    with pytest.raises(SimError, match="one d "):
        mixed_decay(cfg_a, cfg_b, "product")


@pytest.mark.parametrize("field, value", [("N", 2), ("trials", 3)])
def test_mixed_decay_rejects_config_b_with_another_schedule(field, value):
    cfg_a = small_config(d=5, trials=1, N=4)
    cfg_b = small_config(**{"d": 5, "trials": 1, "N": 4, field: value})
    with pytest.raises(SimError, match=f"one {field} "):
        mixed_decay(cfg_a, cfg_b, "anticommutator", schedule=[4])


def test_counterexample_exact_rows():
    rows = counterexample_rows(0.25, [100, 10000])
    for row in rows:
        # exact value: 2/N + 2 sqrt(N)
        n = row["N"]
        assert row["quadratic_sum"] == pytest.approx(2.0 / n + 2.0 * math.sqrt(n), rel=1e-12)
        assert abs(row["ratio"] - 1.0) <= 0.05


def test_counterexample_mode_via_mixed_decay():
    cfg = small_config(alpha=0.25)
    report = mixed_decay(cfg, None, "square-of-sum", schedule=[100, 10000])
    assert report.passed
    assert len(report.extras["table"]) == 2


# -- matricial transform ------------------------------------------------------------------


def test_matricial_empty_is_inverse():
    b = np.array([[2j, 0], [0, 3j]])
    out = matricial_cauchy(b, [], [])
    assert np.allclose(out, np.linalg.inv(b))


def test_matricial_scalar_reduces_to_cauchy():
    h = sample_gue(300, stream(17, 0, "gue_a"))
    z = 2j
    out = matricial_cauchy(np.array([[z]]), [np.array([[1.0]])], [h])
    eigs = esd(h)
    direct = np.mean(1.0 / (z - eigs))
    assert abs(out[0, 0] - direct) <= 1e-10


def test_matricial_block_decouples():
    d = 200
    h = sample_gue(d, stream(23, 0, "gue_a"))
    z = 2j
    b = np.array([[z, 0], [0, z]])
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = matricial_cauchy(b, [a1], [h])
    mu = semicircle(1.0, n_points=4001)
    assert abs(out[0, 0] - cauchy(mu, z)) <= 0.02
    assert abs(out[1, 1] - 1.0 / z) <= 1e-12
    assert abs(out[0, 1]) <= 1e-12


def test_matricial_requires_upper_b():
    with pytest.raises(SimError):
        matricial_cauchy(np.array([[1.0 + 0j]]), [], [])


def test_matricial_rejects_mismatched_shapes():
    b = np.array([[2j]])
    h = sample_gue(4, stream(1, 0, "gue_a"))
    with pytest.raises(SimError, match=r"\(1, 1\).*\(2, 2\)"):
        matricial_cauchy(b, [np.eye(2)], [h])
    with pytest.raises(SimError, match=r"\(4, 4\).*\(3, 3\)"):
        matricial_cauchy(b, [np.eye(1), np.eye(1)], [h, np.eye(3)])
    with pytest.raises(SimError, match="square B"):
        matricial_cauchy(np.array([[2j, 0]]), [np.eye(1)], [h])


# -- freeness proxy --------------------------------------------------------------------


def test_freeness_proxy_independent_gues():
    d = 1000
    h1 = sample_gue(d, stream(31, 0, "gue_a"))
    h2 = sample_gue(d, stream(31, 0, "gue_b"))

    def tau(word):
        prod = None
        for label in word:
            m = h1 if label == "a" else h2
            prod = m if prod is None else prod @ m
        return float(np.trace(prod).real) / d

    import itertools

    for length in (2, 3, 4):
        for word in itertools.product("ab", repeat=length):
            if len(set(word)) > 1:
                value = mixed_free_cumulant(word, tau)
                assert abs(value) <= 0.05, (word, value)
