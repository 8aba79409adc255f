import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from freelevy.cumulants import free_joint_functional, mixed_free_cumulant
from freelevy import rmt
from freelevy.measures import semicircle
from freelevy.rmt import (
    SimConfig,
    SimError,
    _draw_marks,
    _fire_steps,
    _fired,
    _free_mixed_m2,
    _increments,
    _neighbor_distinct_sum,
    _sandwich,
    _step_kernel,
    _variation_matrix,
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


@pytest.mark.parametrize("jump", [[1.0], 5, [[1.0]], [[1, 1, 2]], [(1.0,)], "ab"])
def test_config_rejects_a_jump_that_is_not_a_list_of_pairs(jump):
    with pytest.raises(SimError, match=r"^jump must be \[atom, mass\] pairs"):
        small_config(jump=jump)


def test_config_from_json_names_the_missing_keys():
    with pytest.raises(SimError, match="required keys: d, master_seed$"):
        SimConfig.from_json({"trials": 2})


@pytest.mark.parametrize("lam", [0.0, -0.5, math.nan, math.inf])
def test_config_rejects_a_rate_that_is_not_positive_and_finite(lam):
    with pytest.raises(SimError, match="lam"):
        small_config(lam=lam)


@pytest.mark.parametrize(
    "jump",
    [[[math.nan, 1.0]], [[math.inf, 1.0]], [[1.0, math.nan]], [[1.0, 1.5], [2.0, -0.5]]],
)
def test_config_rejects_jump_laws_that_are_not_finite_probabilities(jump):
    with pytest.raises(SimError, match="jump"):
        small_config(jump=jump)


@pytest.mark.parametrize(
    "field, value",
    [("d", 40.0), ("d", "40"), ("trials", True), ("master_seed", 1.5), ("N", 4.0),
     ("k_max", True), ("k_max", 2.7)],
)
def test_config_rejects_integer_fields_that_are_not_integers(field, value):
    with pytest.raises(SimError, match=f"{field} must be an integer"):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("t", True), ("t", "1"), ("lam", True), ("lam", "0.5"), ("alpha", "0.25"),
     ("alpha", False), ("jump", [[True, 1.0]]), ("jump", [["1", 1.0]]),
     ("jump", [[1.0, "1"]])],
)
def test_config_rejects_real_fields_that_are_not_real_numbers(field, value):
    with pytest.raises(SimError, match=rf"^{field} .*real number"):
        small_config(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = small_config(d=np.int64(40), N=np.int32(8), k_max=np.int64(3))
    assert (cfg.d, cfg.N, cfg.k_max) == (40, 8, 3)


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


# -- rank-structured kernel -----------------------------------------------------------

# (config, grid sizes): lam t < 1 with lam <= 1, lam > 1 with t < 1 (one with
# lam t = 1), a two-atom law with a negative atom, grids that are not powers of 2
KERNEL_CASES = [
    (small_config(d=30, trials=1, t=0.6, lam=0.5), [1, 3, 8]),
    (small_config(d=40, trials=1, t=0.3, lam=2.5, jump=[[-0.7, 0.4], [1.3, 0.6]]), [5, 13]),
    (small_config(d=25, trials=1, t=0.5, lam=2.0, jump=[[-1.0, 0.5], [1.0, 0.5]]), [7, 12]),
]


def relative_distance(got, expected):
    return np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-300)


def fire_step_by_loop(u, cfg, n):
    """The least i in 1..n with u <= lam t (i / n), n + 1 when there is none."""
    for i in range(1, n + 1):
        if u <= cfg.lam * cfg.t * (i / n):
            return i
    return n + 1


@pytest.mark.parametrize("cfg, ns", KERNEL_CASES)
def test_fire_steps_are_the_least_level_at_or_above_u(cfg, ns):
    for n in ns:
        levels = [cfg.lam * cfg.t * (i / n) for i in range(1, n + 1)]
        assert levels[-1] == cfg.lam * cfg.t
        hand_built = [x for level in levels for x in
                      (np.nextafter(level, 0.0), level, np.nextafter(level, 2.0))]
        hand_built += [(1.0 + cfg.lam * cfg.t) / 2, 1.0]
        for u in (np.array(hand_built), _draw_marks(cfg, 0)[1]):
            u = u[(0.0 < u) & (u <= 1.0)]
            expected = [fire_step_by_loop(x, cfg, n) for x in u]
            assert _fire_steps(u, cfg, n).tolist() == expected, n


def test_increments_telescope_at_the_grid_end():
    # t = 0.1, lam = 1, n = 3: lam * (t * 3 / 3) is 0.10000000000000002, one
    # ulp above lam t; the last level must be lam t itself
    cfg = small_config(d=4, trials=1, N=3, t=0.1, lam=1.0)
    u = np.array([0.1, np.nextafter(0.1, 1.0), 0.05, 0.9])
    marks = (np.eye(4), u, np.array([1.0, -0.5, 2.0, 3.0]))
    total = sum(_increments(marks, cfg, 3))
    assert np.array_equal(total, _variation_matrix(marks, cfg, 1))
    assert np.array_equal(np.diag(total).real, [1.0, 0.0, 2.0, 0.0])


# the campaign words: [a] * k for the k-th power sum, [a, b] for the mixed sums
KERNEL_WORDS = [
    pytest.param(["a"] * k, None, id=f"power{k}") for k in (1, 2, 3, 4)
] + [pytest.param(["a", "b"], mode, id=mode) for mode in ("product", "anticommutator")]


def dense_word_sum(cfg, families, n, mode=None):
    """The sum over the n steps of the word's increment products, built one
    dense increment at a time; y x is added for the anticommutator."""
    steps = list(zip(*(_increments(_draw_marks(cfg, 0, f), cfg, n) for f in families)))
    dense = sum(functools.reduce(np.matmul, xs) for xs in steps)
    if mode == "anticommutator":
        dense = dense + sum(y @ x for x, y in steps)
    return dense


def kernel_sum(cfg, families, n):
    """The step kernel's middle factor between the fired columns of the
    word's first and last family."""
    fired = {f: _fired(cfg, 0, f) for f in set(families)}
    word = [fired[f][1] for f in families]
    grams = [fired[f][0].conj().T @ fired[g][0] for f, g in zip(families, families[1:])]
    blocks = _step_kernel(word, grams, cfg, n)
    return _sandwich(fired[families[0]][0], blocks, fired[families[-1]][0])


@pytest.mark.parametrize("cfg, ns", KERNEL_CASES)
@pytest.mark.parametrize("families, mode", KERNEL_WORDS)
def test_step_kernel_is_the_dense_sum(cfg, ns, families, mode):
    for n in ns:
        got = kernel_sum(cfg, families, n)
        if mode == "anticommutator":
            got = got + got.conj().T
        assert relative_distance(got, dense_word_sum(cfg, families, n, mode)) <= 1e-12


def test_fired_columns_are_in_increasing_u():
    cfg = small_config(d=30, trials=1, t=0.6, lam=0.5)
    s, u, v = _draw_marks(cfg, 0)
    cols, (u_fired, v_fired) = _fired(cfg, 0)
    assert np.all(np.diff(u_fired) >= 0) and np.all(u_fired <= cfg.lam * cfg.t)
    assert len(u_fired) == np.sum(u <= cfg.lam * cfg.t)
    index = [int(np.flatnonzero(u == x)[0]) for x in u_fired]
    assert np.array_equal(cols, s[:, index]) and np.array_equal(v_fired, v[index])


def test_mixed_decay_with_no_spread_gives_null_z_scores(monkeypatch):
    # trials that agree exactly and miss the free prediction have no z-score:
    # the report says null and why, and stays standard JSON
    rows = [1.0, 0.5, 0.25, 0.125]
    monkeypatch.setattr(rmt, "_run_trials", lambda fn, trials, threads: [rows] * trials)
    report = mixed_decay(small_config(d=10, trials=2), schedule=[8, 16, 32, 64])
    assert report.extras["z_by_n"] == [None] * 4
    assert report.extras["z_reason"] == rmt.NO_SPREAD
    assert "Infinity" not in report.dumps()


def test_kernels_with_no_fired_coordinate_give_zero():
    cfg = small_config(d=6, trials=1, N=4, lam=1e-9)
    assert all(_fired(cfg, 0, f)[0].shape == (6, 0) for f in "ab")
    for families in (["a"] * 3, ["a", "b"]):
        assert not np.any(kernel_sum(cfg, families, 4))


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


def test_finite_n_reference_keeps_a_tiny_rate():
    # lam = 3e-13 once rounded to 0 at a denominator bound of 10^12; the first
    # moment of sum X_i^2 for unit jumps is N (delta + delta^2) = lam + lam^2 / N
    cfg = small_config(d=4, N=8, lam=3e-13)
    got = rmt.finite_n_power_sum_moments(cfg, 2, 3)
    lam = Fraction(3e-13)
    assert got[0] == float(lam + lam * lam / 8)
    assert got == pytest.approx([3e-13] * 3, rel=1e-11)
    assert predicted_variation_moments(cfg, 2, 3) == pytest.approx([3e-13] * 3, rel=1e-11)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_finite_n_reference_scales_with_the_jumps(k):
    # c = 2^j scales every float exactly, so moment n of c nu is c^(kn) times
    # that of nu, as floats too
    jump = [[1.5, 0.25], [-3.0, 0.75]]
    base = rmt.finite_n_power_sum_moments(small_config(N=4, lam=0.75, jump=jump), k, 3)
    for j in range(-40, 41):
        c = math.ldexp(1.0, j)
        scaled = small_config(N=4, lam=0.75, jump=[[c * x, m] for x, m in jump])
        got = rmt.finite_n_power_sum_moments(scaled, k, 3)
        assert got == [math.ldexp(m, j * k * n) for n, m in enumerate(base, 1)], j


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_variation_means_are_the_public_model(k):
    cfg = small_config(d=30, trials=2, N=8, t=0.7, lam=0.9, jump=[[-0.7, 0.4], [1.3, 0.6]])
    report = verify_variation(cfg, k)
    rows = np.array([
        trace_moments(power_sums(sample_cp_increments(cfg, trial), k), cfg.k_max)
        for trial in (0, 1)
    ])
    # the campaign sums by the rank-structured kernel, so only rounding differs
    expected = [float(col.mean()) for col in rows.T]
    assert [m["mean"] for m in report.moments] == pytest.approx(expected, rel=1e-12)


def test_verify_variation_needs_two_trials():
    with pytest.raises(SimError, match="at least 2 trials"):
        verify_variation(small_config(d=10, trials=1, N=4), 2)


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


def neighbor_distinct_bruteforce(increments, k):
    """The sum of X_(i1) ... X_(ik) over all N (N-1)^(k-1) index tuples with
    distinct neighbors."""
    total = np.zeros_like(increments[0])
    for tup in itertools.product(range(len(increments)), repeat=k):
        if all(a != b for a, b in zip(tup, tup[1:])):
            prod = increments[tup[0]]
            for i in tup[1:]:
                prod = prod @ increments[i]
            total = total + prod
    return total


def test_neighbor_distinct_sum_matches_the_tuple_bruteforce():
    rng = stream(3, 0, "identity")
    for n in range(1, 7):
        increments = [sample_gue(4, rng) / n for _ in range(n)]
        for k in range(1, 6):
            want = neighbor_distinct_bruteforce(increments, k)
            got = _neighbor_distinct_sum(increments, k)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (n, k)


def test_identity_at_the_campaigns_step_count():
    report = verify_integral_identity(small_config(d=6, trials=1, N=64), 5)
    assert report.passed
    assert report.extras["relative_error"] <= 1e-10


def test_identity_bounds():
    # any N runs; k is bounded since the right side has 2^(k-1) terms
    assert verify_integral_identity(small_config(d=10, trials=1, N=7), 2).passed
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
    cfg = small_config(d=150, trials=4, N=32, master_seed=11)
    report = mixed_decay(cfg, "anticommutator", schedule=[4, 8, 16, 32])
    m2 = report.extras["m2_by_n"]
    assert report.extras["inversions"] <= 1
    assert m2[-1] <= 0.5 * m2[0]


def test_mixed_decay_product_mode():
    cfg = small_config(d=100, trials=4, N=16, master_seed=21)
    report = mixed_decay(cfg, "product", schedule=[4, 16])
    assert report.extras["m2_by_n"][-1] <= report.extras["m2_by_n"][0]


@pytest.mark.parametrize("mode", ["anticommutator", "product"])
def test_mixed_decay_is_the_public_model(mode):
    cfg = small_config(d=30, trials=1, N=8, t=0.7, lam=0.9, jump=[[-0.7, 0.4], [1.3, 0.6]])
    report = mixed_decay(cfg, mode, schedule=[cfg.N])
    acc = np.zeros((cfg.d, cfg.d), dtype=complex)
    for x, y in zip(sample_cp_increments(cfg, 0, "a"), sample_cp_increments(cfg, 0, "b")):
        acc += x @ y + y @ x if mode == "anticommutator" else x @ y
    # m2 = (1/d) tr(S S*) is taken as the squared Frobenius norm of the dense
    # sum; the campaign's block norms give the same float on this config, and
    # the trace of the product agrees to 1e-15
    m2 = float(np.vdot(acc, acc).real) / cfg.d
    assert report.extras["m2_by_n"] == [m2]
    assert m2 == pytest.approx(float(np.trace(acc @ acc.conj().T).real) / cfg.d, rel=1e-15, abs=0)
    assert report.extras["z_by_n"] == [None]  # one trial has no standard error


@pytest.mark.parametrize("mode", ["anticommutator", "product"])
def test_free_mixed_m2_is_the_free_joint_functional(mode):
    delta, mu1, mu2 = Fraction(3, 7), Fraction(-2, 5), Fraction(11, 9)
    m1, m2 = delta * mu1, delta * mu2 + (delta * mu1) ** 2
    for n in range(1, 5):
        labels = [("x", i) for i in range(n)] + [("y", i) for i in range(n)]
        tau = free_joint_functional({label: [m1, m2] for label in labels})
        # the words of A = sum_i x_i y_i (+ y_i x_i) and of A*
        terms = [(("x", i), ("y", i)) for i in range(n)]
        if mode == "anticommutator":
            terms += [(("y", i), ("x", i)) for i in range(n)]
        adjoints = [tuple(reversed(w)) for w in terms]
        exact = sum(tau(w + w_star) for w in terms for w_star in adjoints)
        assert _free_mixed_m2(m1, m2, n, mode) == exact


def test_mixed_decay_reports_the_free_reference():
    # centred jumps: m1 = 0, so the anticommutator's m2 is 2 (lam t mu2)^2 / n
    cfg = small_config(d=40, trials=3, N=16, t=0.8, lam=1.0, jump=[[-1.5, 0.5], [1.5, 0.5]])
    report = mixed_decay(cfg, "anticommutator")
    extras = report.extras
    assert extras["predicted_m2_by_n"] == pytest.approx(
        [2 * (0.8 * 2.25) ** 2 / n for n in extras["schedule"]], rel=1e-12
    )
    rows = np.array([dense_mixed_m2(cfg, trial, extras["schedule"], "anticommutator")
                     for trial in range(cfg.trials)])
    stderr = rows.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    z = (rows.mean(axis=0) - np.array(extras["predicted_m2_by_n"])) / stderr
    assert extras["z_by_n"] == pytest.approx(list(z), rel=1e-9)


# -- the campaigns' norms against dense increments ------------------------------


def dense_proxies(cfg, k, schedule):
    """verify_variation's proxy_norms from dense increments: the mean over the
    trials of ||sum_i X_i^k - s e(t)^k s|| / sqrt(d)."""
    rows = []
    for trial in range(cfg.trials):
        marks = rmt._draw_marks(cfg, trial)
        target = _variation_matrix(marks, cfg, k)
        rows.append([np.linalg.norm(power_sums(_increments(marks, cfg, n), k) - target)
                     for n in schedule])
    return np.mean(rows, axis=0) / math.sqrt(cfg.d)


def dense_mixed_m2(cfg, trial, schedule, mode):
    """One trial's mixed_decay m2 values from dense increments, ||S||^2 / d."""
    out = []
    for n in schedule:
        pairs = zip(*(_increments(rmt._draw_marks(cfg, trial, f), cfg, n) for f in "ab"))
        acc = sum(x @ y + y @ x if mode == "anticommutator" else x @ y for x, y in pairs)
        out.append(float(np.vdot(acc, acc).real) / cfg.d)
    return out


def assert_close_in_list(got, expected, rel=1e-12):
    expected = np.asarray(expected)
    assert np.max(np.abs(np.asarray(got) - expected)) <= rel * np.max(np.abs(expected))


# u marks of d = 12 coordinates at lam t = 0.5, per family: none fires; exactly
# one fires; steps where only one family fires; equal u values, some on a level
HAND_U = {
    "none": {"a": [0.5 + 0.04 * i for i in range(1, 13)],
             "b": [0.98 - 0.04 * i for i in range(12)]},
    "one": {"a": [0.2] + [0.9] * 11, "b": [0.9] * 11 + [0.3]},
    "one-family-steps": {"a": [0.01 * i for i in range(1, 12)] + [0.45],
                         "b": [0.3 + 0.015 * i for i in range(1, 12)] + [0.05]},
    "ties": {"a": [0.25] * 4 + [0.5] * 3 + [0.1] * 3 + [0.7] * 2,
             "b": [0.5] * 5 + [0.25] * 2 + [0.375] * 3 + [0.9] * 2},
}


@pytest.mark.parametrize("hand_u", [None] + list(HAND_U.values()), ids=["drawn"] + list(HAND_U))
def test_campaign_norms_are_the_dense_norms(monkeypatch, hand_u):
    # the block norms against the dense d x d norms of the increments, on a
    # mixed schedule that is neither doubling nor nested
    jump = [[-0.7, 0.4], [1.3, 0.6]]
    if hand_u is None:
        cfg = small_config(d=30, trials=2, N=12, t=0.7, lam=0.9, jump=jump)
    else:
        cfg = small_config(d=12, trials=2, N=12, t=0.5, lam=1.0, jump=jump)
        draw = rmt._draw_marks

        def hand_marks(config, trial, family="a"):
            s, _, v = draw(config, trial, family)
            return s, np.array(hand_u[family]), v

        monkeypatch.setattr(rmt, "_draw_marks", hand_marks)
    for k in (2, 3):
        extras = verify_variation(cfg, k).extras
        assert_close_in_list(extras["proxy_norms"], dense_proxies(cfg, k, extras["schedule"]))
    schedule = [3, 5, 7, 12]
    for mode in ("product", "anticommutator"):
        dense = np.mean([dense_mixed_m2(cfg, trial, schedule, mode)
                         for trial in range(cfg.trials)], axis=0)
        assert_close_in_list(mixed_decay(cfg, mode, schedule=schedule).extras["m2_by_n"], dense)


MEMORY_GUARD_MIB = 4.5


@pytest.mark.parametrize("campaign", [
    pytest.param(lambda cfg: verify_variation(cfg, 2), id="variation_k2"),
    pytest.param(lambda cfg: verify_variation(dataclasses.replace(cfg, k_max=3), 3),
                 id="variation_k3"),
    pytest.param(lambda cfg: mixed_decay(dataclasses.replace(cfg, jump=[[-1.0, 0.5], [1.0, 0.5]]),
                                         "anticommutator", schedule=[8, 16, 32, 64]),
                 id="mixed_anticommutator"),
])
def test_campaign_peak_memory_stays_under_the_guard(campaign):
    # the traced peak of one campaign at the benchmark's size; a campaign that
    # holds d x d matrices per schedule point read 4.42 MiB, the block path
    # about 2.2 (variation) and 3.3 (mixed). The untraced first run builds the
    # library's caches, which are not the campaign's.
    cfg = small_config(d=200, trials=2, N=64, master_seed=7)
    campaign(cfg)
    tracemalloc.start()
    try:
        campaign(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_GUARD_MIB * 2**20


@pytest.mark.parametrize("mode", ["anticommutator", "square-of-sum"])
@pytest.mark.parametrize(
    "schedule, named", [([0, 4], "0"), ([-4, 4], "-4"), ([2.5, 4], "2.5"),
                        ([True, 4], "True"), ("8", "'8'"), (8, "8")],
)
def test_mixed_decay_rejects_a_schedule_entry_that_is_not_a_positive_int(
    mode, schedule, named
):
    cfg = small_config(d=4, trials=1, N=4, alpha=0.25)
    with pytest.raises(SimError, match=f"schedule .*{re.escape(named)}"):
        mixed_decay(cfg, mode, schedule=schedule)


@pytest.mark.parametrize("campaign", [verify_variation, verify_integral_identity])
@pytest.mark.parametrize("k", [2.5, True, "2"])
def test_campaign_rejects_a_k_that_is_not_an_int(campaign, k):
    with pytest.raises(SimError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
        campaign(small_config(d=4, trials=2, N=4), k)


@pytest.mark.parametrize("mode", ["anticommutator", "square-of-sum"])
@pytest.mark.parametrize("threshold", [True, "0.5", None])
def test_mixed_decay_rejects_a_decay_threshold_that_is_not_real(mode, threshold):
    cfg = small_config(d=4, trials=2, N=4, alpha=0.25)
    with pytest.raises(SimError, match="^decay_threshold must be a real number"):
        mixed_decay(cfg, mode, decay_threshold=threshold)


@pytest.mark.parametrize("threads", [0, -1, 1.5])
def test_campaign_rejects_threads_that_are_not_a_positive_int(threads):
    with pytest.raises(SimError, match="^threads must be a positive integer"):
        verify_integral_identity(small_config(d=4, trials=2, N=4), 2, threads=threads)


def test_campaign_extras_default_as_documented():
    cfg = small_config(d=6, trials=2, N=4)
    assert verify_variation(cfg).extras["k"] == 2
    assert verify_integral_identity(cfg).extras["k"] == 2
    report = mixed_decay(cfg)
    assert report.extras["mode"] == "anticommutator"
    assert report.extras["schedule"] == [4]
    assert report.passed == (report.extras["decay_ratio"] <= 0.15)


def test_mixed_decay_without_mixed_mass_fails():
    # at lam = 1e-9 no coordinate fires, so m2 is 0 at every schedule point
    cfg = small_config(d=4, trials=2, N=16, lam=1e-9)
    report = mixed_decay(cfg, "anticommutator")
    assert report.extras["m2_by_n"] == [0.0, 0.0]
    assert not report.passed


def test_counterexample_exact_rows():
    rows = counterexample_rows(0.25, [100, 10000])
    for row in rows:
        # exact value: 2/N + 2 sqrt(N)
        n = row["N"]
        assert row["quadratic_sum"] == pytest.approx(2.0 / n + 2.0 * math.sqrt(n), rel=1e-12)
        assert abs(row["ratio"] - 1.0) <= 0.05


def test_counterexample_mode_via_mixed_decay():
    cfg = small_config(alpha=0.25)
    report = mixed_decay(cfg, "square-of-sum", schedule=[100, 10000])
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

    @functools.lru_cache(maxsize=None)
    def tau(word):
        prod = None
        for label in word:
            m = h1 if label == "a" else h2
            prod = m if prod is None else prod @ m
        return float(np.trace(prod).real) / d

    for length in (2, 3, 4):
        for word in itertools.product("ab", repeat=length):
            if len(set(word)) > 1:
                value = mixed_free_cumulant(word, tau)
                assert abs(value) <= 0.05, (word, value)
