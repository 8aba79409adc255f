"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Criterion 9's moment clause compares finite-N simulation
means against the limiting law; see its test for the quantitative analysis
of why that clause cannot pass at the stated parameters.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from freelevy.cumulants import (
    cumulants_to_moments,
    free_poisson_moments,
    moments_to_cumulants,
)
from freelevy.levy import (
    GeneratingTriple,
    LevyMeasure,
    VariationMap,
    bernoulli_family,
    bp_limit_check,
    compound_poisson_triple,
    pair_to_triple,
    triple_to_cumulants,
    triple_to_pair,
    variation_triple,
)
from freelevy.measures import (
    arcsine_density,
    bernoulli_symmetric,
    point_mass,
    semicircle,
    semicircle_density,
)
from freelevy.ncsym import (
    composition_of,
    distinct_neighbor_bruteforce,
    expand_letters,
    p_basis,
)
from freelevy.partitions import catalan, enumerate_int, enumerate_nc, mobius_nc
from freelevy.rmt import (
    SimConfig,
    counterexample_rows,
    mixed_decay,
    verify_integral_identity,
    verify_variation,
)
from freelevy.transforms import (
    free_convolve,
    free_multiply_moments,
)


class Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.started = time.time()

    def finish(self, ok, detail=""):
        elapsed = time.time() - self.started
        flag = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number}: {flag} ({elapsed:.1f}s) {detail}")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget "
            f"({elapsed:.1f}s)"
        )


def test_criterion_1_combinatorics():
    crit = Criterion(1, 10)
    counts_ok = all(len(enumerate_nc(n)) == catalan(n) for n in range(1, 11))

    recursion_ok = True
    for n in range(2, 8):
        parts = enumerate_nc(n)
        m = len(parts)
        refines = [[parts[i].refines(parts[j]) for j in range(m)] for i in range(m)]
        coarser = [
            sum(1 << j for j in range(m) if refines[i][j]) for i in range(m)
        ]
        finer = [
            sum(1 << i for i in range(m) if refines[i][j]) for j in range(m)
        ]
        for si in range(m):
            for pj in range(m):
                if si == pj or not refines[si][pj]:
                    continue
                interval = coarser[si] & finer[pj]
                total = 0
                bits = interval
                while bits:
                    low = bits & -bits
                    total += mobius_nc(parts[si], parts[low.bit_length() - 1])
                    bits ^= low
                if total != 0:
                    recursion_ok = False
    crit.finish(
        counts_ok and recursion_ok,
        "Catalan counts n<=10 and Mobius recursion on all proper intervals n<=7",
    )


def test_criterion_2_cumulant_roundtrip():
    crit = Criterion(2, 5)
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        length = rng.randint(1, 8)
        moments = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(length)
        ]
        if cumulants_to_moments(moments_to_cumulants(moments)) != moments:
            ok = False
        if moments_to_cumulants(cumulants_to_moments(moments)) != moments:
            ok = False
    crit.finish(ok, "200 exact rational roundtrips, lengths <= 8")


def test_criterion_3_appendix_identity():
    crit = Criterion(3, 60)
    ok = True
    for n in range(1, 7):
        for sigma in enumerate_int(n):
            u = composition_of(sigma)
            for n_letters in range(1, 5):
                lhs = expand_letters(p_basis(sigma), n_letters)
                rhs = distinct_neighbor_bruteforce(u, n_letters)
                if lhs != rhs:
                    ok = False
    crit.finish(ok, "expand_letters(p_basis) == distinct-neighbor sum, n<=6, N<=4")


def test_criterion_4_matrix_identity():
    crit = Criterion(4, 30)
    worst = 0.0
    for d in (10, 50):
        for n in (2, 3, 4, 5):
            for k in (1, 2, 3, 4):
                cfg = SimConfig(
                    d=d, trials=1, master_seed=4000 + 10 * n + k, N=n,
                    t=1.0, lam=1.0, jump=[[1.0, 1.0]],
                )
                report = verify_integral_identity(cfg, k)
                worst = max(worst, report.extras["relative_error"])
    crit.finish(worst <= 1e-10, f"max relative Frobenius error {worst:.2e}")


def _random_atomic_triple(rng):
    eta = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    atoms = []
    for _ in range(rng.randint(1, 4)):
        loc = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if loc != 0 and loc not in [x for x, _ in atoms]:
            atoms.append((loc, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    return GeneratingTriple(eta, a, LevyMeasure(atoms))


def test_criterion_5_triple_calculus():
    crit = Criterion(5, 5)
    rng = random.Random(55)
    ok = True
    for _ in range(20):
        t = _random_atomic_triple(rng)
        back = pair_to_triple(triple_to_pair(t))
        if (back.eta, back.a, back.rho.atoms) != (t.eta, t.a, t.rho.atoms):
            ok = False

    for a in (Fraction(0), Fraction(2), Fraction(5, 3)):
        out = variation_triple(
            GeneratingTriple(Fraction(7, 2), a, LevyMeasure([(1, 1)])),
            VariationMap.power(2),
        )
        if (out.eta, out.a, out.rho.atoms) != (a + 1, 0, [(1, 1)]):
            ok = False

    for _ in range(20):
        t = _random_atomic_triple(rng)
        kappa1 = triple_to_cumulants(variation_triple(t, VariationMap.power(2)), 1)[0]
        if kappa1 != t.a + t.rho.moment(2):
            ok = False
    crit.finish(ok, "rel23/rel32 roundtrip and quadratic-variation drift, exact")


def test_criterion_6_limit_pair_conditions():
    crit = Criterion(6, 5)
    report = bp_limit_check(bernoulli_family(1), [10, 100, 1000, 10000])
    ok = abs(report.gamma - 0.5) <= 1e-3
    (loc, mass), = report.sigma_atoms
    ok = ok and loc == 1 and abs(float(mass) - 0.5) <= 1e-3
    induced = pair_to_triple(report.pair())
    expected = compound_poisson_triple(1, point_mass(1))
    ok = ok and induced.eta == expected.eta
    ok = ok and induced.a == expected.a
    ok = ok and induced.rho.atoms == expected.rho.atoms
    crit.finish(
        ok,
        f"gamma={report.gamma}, sigma atom mass={float(mass)}, induced triple exact",
    )


def test_criterion_7_free_convolution():
    crit = Criterion(7, 60)
    mu = semicircle(1.0, n_points=4001)
    conv = free_convolve(mu, mu)
    xs = conv.grid.xs()
    sup_err = float(np.max(np.abs(conv.grid.values - semicircle_density(xs, 2.0))))

    bern = bernoulli_symmetric()
    arc = free_convolve(bern, bern, n_points=4601)
    m2 = arc.moment(2)
    m4 = arc.moment(4)
    ok = sup_err <= 5e-3 and abs(m2 - 2.0) <= 1e-2 and abs(m4 - 6.0) <= 1e-2
    crit.finish(
        ok, f"semicircle sup err {sup_err:.2e}; arcsine m2={m2:.4f}, m4={m4:.4f}"
    )


def test_criterion_8_power_dilation_identity():
    crit = Criterion(8, 5)
    t = 2
    m_mu = free_poisson_moments(1, 6)
    m_nu = [Fraction(1, 2)] * 6

    def power(ms, s):
        return cumulants_to_moments([s * k for k in moments_to_cumulants(ms)])

    lhs = free_multiply_moments(power(m_mu, t), power(m_nu, t), 6)
    core = free_multiply_moments(m_mu, m_nu, 6)
    rhs = [t**n * m for n, m in enumerate(power(core, t), start=1)]
    crit.finish(lhs == rhs, "first 6 moments agree exactly in cumulant mode")


def test_criterion_9_variation_convergence():
    """Moment z-scores and the a.u. proxy at d=500, trials=20, N=64, k=2.

    The proxy clause passes. The moment clause compares the simulated means
    of the quadratic power sum against the limiting variation moments
    (1, 2, 5, 14, 42): that comparison carries the deterministic truncation
    gap of the pre-limit law, e.g. the exact first moment at N=64 is
    1 + 1/64 = 1.015625, about eleven across-trial standard errors at this
    dimension and trial count, so |z| <= 4 against the limit is not
    attainable at these parameters. Against the report's finite_n_reference
    column, the exact pre-limit law, the detail line prints z = 2.0, 3.3,
    3.9, 4.2 for orders 1-4: much closer, but beyond normal Monte Carlo
    fluctuation from order 2 up. That rest is the O(1/d) bias of sampling
    the marks at finite dimension (ROADMAP item 2).
    """
    crit = Criterion(9, 180)
    cfg = SimConfig(
        d=500, trials=20, master_seed=20260810, N=64, t=1.0, lam=1.0,
        jump=[[1.0, 1.0]], k_max=5,
    )
    report = verify_variation(cfg, 2, threads=2)
    predicted = [m["predicted"] for m in report.moments]
    proxy_ok = report.extras["proxy_inversions"] <= 1
    zs = [m["z"] for m in report.moments[:4]]
    z_ok = all(abs(z) <= 4.0 for z in zs)
    reference = report.extras["finite_n_reference"]
    finite_zs = [
        (m["mean"] - ref) / m["stderr"] if m["stderr"] > 0 else 0.0
        for m, ref in zip(report.moments, reference)
    ]
    detail = (
        f"predicted={predicted}; z(limit)={[f'{z:.1f}' for z in zs]}; "
        f"z(exact finite-N law)={[f'{z:.1f}' for z in finite_zs[:4]]}; "
        f"proxy={[f'{p:.3f}' for p in report.extras['proxy_norms']]} "
        f"inversions={report.extras['proxy_inversions']}"
    )
    crit.finish(proxy_ok and z_ok, detail)


def test_criterion_10_mixed_decay():
    crit = Criterion(10, 180)
    cfg = SimConfig(
        d=400, trials=10, master_seed=31, N=64, t=1.0, lam=1.0,
        jump=[[-1.0, 0.5], [1.0, 0.5]],
    )
    report = mixed_decay(cfg, "anticommutator", schedule=[8, 16, 32, 64])
    ratio = report.extras["decay_ratio"]
    crit.finish(
        ratio <= 0.15,
        f"anticommutator m2 ratio N=64 vs N=8: {ratio:.4f}",
    )


def test_criterion_11_counterexample():
    crit = Criterion(11, 1)
    rows = counterexample_rows(0.25, [100, 10000])
    ok = all(abs(r["ratio"] - 1.0) <= 0.05 for r in rows)
    crit.finish(
        ok,
        "; ".join(
            f"N={r['N']}: sum={r['quadratic_sum']:.4f} vs 2 sqrt(N)={r['reference']:.1f}"
            for r in rows
        ),
    )


def test_criterion_12_determinism():
    crit = Criterion(12, 60)
    cfg = SimConfig(
        d=80, trials=4, master_seed=77, N=8, t=1.0, lam=1.0, jump=[[1.0, 1.0]]
    )
    a = verify_variation(cfg, 2, threads=1).dumps()
    b = verify_variation(cfg, 2, threads=8).dumps()
    c = verify_variation(cfg, 2, threads=3).dumps()
    ident1 = verify_integral_identity(
        SimConfig(d=30, trials=3, master_seed=5, N=4, jump=[[1.0, 1.0]]), 3, threads=1
    ).dumps()
    ident8 = verify_integral_identity(
        SimConfig(d=30, trials=3, master_seed=5, N=4, jump=[[1.0, 1.0]]), 3, threads=8
    ).dumps()
    ok = a == b == c and ident1 == ident8
    crit.finish(ok, "reports byte-identical across thread counts")
