import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freelevy.cumulants import cumulants_to_moments
from freelevy.levy import (
    GeneratingPair,
    GeneratingTriple,
    LevyError,
    LevyMeasure,
    VariationMap,
    bernoulli_family,
    bp_limit_check,
    compound_poisson_triple,
    pair_to_triple,
    pushforward_levy,
    shifted_atom_family,
    symmetric_pm_family,
    triple_to_cumulants,
    triple_to_pair,
    variation_triple,
)
from freelevy.measures import DensityGrid, GridMeasure, point_mass, two_point


def atomic(pairs):
    return LevyMeasure(list(pairs))


def triple(eta, a, rho_pairs):
    return GeneratingTriple(eta, a, atomic(rho_pairs))


# -- construction -----------------------------------------------------------


def test_levy_measure_rejects_origin_atom():
    with pytest.raises(LevyError):
        LevyMeasure([(0.0, 1.0)])


def test_levy_measure_zeroes_origin_cell():
    grid = DensityGrid(-1.0, 1.0, 0.5, np.ones(5))
    rho = LevyMeasure([], grid)
    assert rho.grid.values[2] == 0.0


# -- triple <-> pair ----------------------------------------------------------


def test_pure_semicircle_pair():
    p = triple_to_pair(triple(0, 1, []))
    assert p.gamma == 0
    assert p.sigma.atoms == [(0, 1)]


def test_compound_poisson_pair():
    lam = Fraction(3, 2)
    p = triple_to_pair(triple(lam, 0, [(1, lam)]))
    assert p.gamma == lam / 2
    assert p.sigma.atoms == [(1, lam / 2)]


def test_pair_at_two():
    # rho = delta_2: gamma = 2 - 2(0 - 1/5) = 12/5, sigma = (4/5) delta_2
    p = triple_to_pair(triple(2, 0, [(2, 1)]))
    assert p.gamma == Fraction(12, 5)
    assert p.sigma.atoms == [(2, Fraction(4, 5))]


def test_pair_to_triple_inverse():
    t = pair_to_triple(GeneratingPair(0, GridMeasure([(0, 1)])))
    assert (t.eta, t.a) == (0, 1)
    assert t.rho.is_trivial()

    lam = Fraction(5, 3)
    t = pair_to_triple(GeneratingPair(lam / 2, GridMeasure([(1, lam / 2)])))
    assert t.eta == lam
    assert t.a == 0
    assert t.rho.atoms == [(1, lam)]


def test_roundtrip_random_atomic_triples():
    rng = random.Random(11)
    for _ in range(20):
        eta = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        rho = []
        for _ in range(rng.randint(0, 4)):
            loc = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            if loc == 0:
                continue
            rho.append((loc, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        t = triple(eta, a, rho)
        back = pair_to_triple(triple_to_pair(t))
        assert back.eta == t.eta
        assert back.a == t.a
        assert back.rho.atoms == t.rho.atoms


def test_roundtrip_density_triple():
    grid = DensityGrid.from_function(0.5, 2.5, 801, lambda x: np.exp(-x))
    t = GeneratingTriple(0.3, 0.7, LevyMeasure([], grid))
    back = pair_to_triple(triple_to_pair(t))
    assert back.a == pytest.approx(0.7, abs=1e-12)
    assert back.eta == pytest.approx(0.3, abs=1e-9)
    diff = np.abs(back.rho.grid.values - t.rho.grid.values)
    # total variation on the grid
    assert np.trapezoid(diff, dx=grid.h) <= 1e-6


# -- pushforward ----------------------------------------------------------------


def test_pushforward_merges_collisions():
    rho = atomic([(-1, 1), (1, 1)])
    out = pushforward_levy(rho, VariationMap.power(2))
    assert out.atoms == [(1, 2)]


def test_pushforward_scales_mass():
    lam = Fraction(7, 2)
    out = pushforward_levy(atomic([(1, lam)]), VariationMap.power(2))
    assert out.atoms == [(1, lam)]


def test_pushforward_drops_zero_images():
    vm = VariationMap.polynomial([-1, 0, 1])  # p(x) = x^3 - x, p(1) = 0
    out = pushforward_levy(atomic([(1, 2)]), vm)
    assert out.is_trivial()


def test_pushforward_density_preserves_test_integrals():
    grid = DensityGrid.from_function(0.5, 2.5, 8001, lambda x: np.exp(-x))
    rho = LevyMeasure([], grid)
    vm = VariationMap.power(2)
    out = pushforward_levy(rho, vm)
    cases = [
        (lambda x: x * x, 1e-6),
        (lambda x: np.minimum(1.0, x * x), 1e-6),
        # a discontinuous test function is limited by the alignment of its
        # cut with the 4096-cell target grid (~ cell width times density)
        (lambda x: (np.abs(x) > 1.0).astype(float), 2e-4),
    ]
    for f, tol in cases:
        lhs = rho.integrate(lambda x, f=f: f(np.asarray(x * x, dtype=float)))
        rhs = out.integrate(f)
        assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs)), (f, tol)


def test_pushforward_density_mass_exact():
    grid = DensityGrid.from_function(0.5, 2.5, 2001, lambda x: np.exp(-x))
    rho = LevyMeasure([], grid)
    out = pushforward_levy(rho, VariationMap.power(2))
    assert out.grid.mass() == pytest.approx(rho.grid.mass(), rel=1e-12)


def test_pushforward_square_nonnegative_support():
    grid = DensityGrid.from_function(-2.0, 2.0, 1201, lambda x: np.exp(-x * x))
    rho = LevyMeasure([(-1.5, 0.5), (1.5, 0.5)], grid)
    out = pushforward_levy(rho, VariationMap.power(2))
    assert all(x >= -1e-12 for x, _ in out.atoms)
    assert out.grid is None or out.grid.lo >= -1e-12


# -- variation triple -------------------------------------------------------------


def test_variation_identity_map():
    t = triple(Fraction(1, 3), Fraction(2), [(1, 1), (-2, Fraction(1, 2))])
    out = variation_triple(t, VariationMap.power(1))
    assert out.eta == t.eta
    assert out.a == t.a
    assert out.rho.atoms == t.rho.atoms


def test_variation_square_on_unit_atom():
    out = variation_triple(triple(5, 3, [(1, 1)]), VariationMap.power(2))
    assert out.eta == 3 + 1  # a + int x^2 1{0<x^2<=1} drho
    assert out.a == 0
    assert out.rho.atoms == [(1, 1)]


def test_variation_square_beyond_unit():
    out = variation_triple(triple(0, 3, [(2, 1)]), VariationMap.power(2))
    assert out.eta == 3  # p(2) = 4 > 1: indicator contributes nothing
    assert out.a == 0
    assert out.rho.atoms == [(4, 1)]


def test_variation_linear_b_scaling():
    vm = VariationMap.polynomial([Fraction(2)])  # p(x) = 2x
    t = triple(Fraction(3), Fraction(1), [(Fraction(1, 4), 1)])
    out = variation_triple(t, vm)
    # eta' = 2*3 + 0 + [p(1/4)=1/2 in (0,1] -> 1/2] - 2*(1/4) = 6
    assert out.eta == 6
    assert out.a == 4
    assert out.rho.atoms == [(Fraction(1, 2), 1)]


def test_variation_steep_map_keeps_the_indicator_on_small_jumps():
    # p(9/10000) = 9/5 > 1, so the indicator drops p(x) and only -b x remains
    t = triple(0, 0, [(Fraction(9, 10000), 1)])
    out = variation_triple(t, VariationMap.polynomial([2000]))
    assert out.eta == Fraction(-9, 5)
    assert out.rho.atoms == [(Fraction(9, 5), 1)]


def test_variation_density_compensator_matches_the_formula():
    # rho = 1 on [0, 1/2], p(x) = 4x: the indicator keeps p only for
    # x <= 1/4, so eta' = int_{1/4}^{1/2} -4x dx = -3/8 (grid path)
    grid = DensityGrid(0.0, 0.5, 1.0 / 4000, np.ones(2001))
    out = variation_triple(GeneratingTriple(0.0, 0.0, LevyMeasure([], grid)),
                           VariationMap.polynomial([4.0]))
    assert out.eta == pytest.approx(-3.0 / 8.0, abs=2e-3)


def test_variation_cumulant_consistency_powers():
    rng = random.Random(5)
    for k in (1, 2, 3):
        vm = VariationMap.power(k)
        for _ in range(6):
            eta = Fraction(rng.randint(-4, 4))
            a = Fraction(rng.randint(0, 3))
            locs = []
            while len(locs) < 2:
                cand = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if cand != 0 and cand not in [l for l, _ in locs]:
                    locs.append((cand, Fraction(rng.randint(1, 4), 2)))
            t = triple(eta, a, locs)
            got = triple_to_cumulants(variation_triple(t, vm), 4)
            rho = t.rho
            b = 1 if k == 1 else 0
            c = 1 if k == 2 else 0
            for m in range(1, 5):
                if m == 1:
                    # kappa_1 = b eta + a c + int_{p != 0} x^k drho
                    #           - b int_{0<|x|<=1} x drho
                    expected = (
                        b * eta
                        + a * c
                        + rho.moment(k)
                        - b * rho.integrate(lambda x: x if abs(x) <= 1 else 0)
                    )
                elif m == 2:
                    expected = a * b * b + rho.moment(2 * k)
                else:
                    expected = rho.moment(m * k)
                assert got[m - 1] == expected, (k, m)


def test_variation_square_k1_means_a_plus_m2():
    # kappa_1 of the quadratic variation is a + int x^2 drho
    for _ in range(5):
        rng = random.Random(_)
        a = Fraction(rng.randint(0, 5))
        rho = [(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))]
        t = triple(Fraction(rng.randint(-3, 3)), a, rho)
        out = triple_to_cumulants(variation_triple(t, VariationMap.power(2)), 1)
        assert out[0] == a + t.rho.moment(2)


# -- cumulants of triples --------------------------------------------------------


def test_semicircle_cumulants_from_triple():
    assert triple_to_cumulants(triple(0, 1, []), 4) == [0, 1, 0, 0]


def test_free_poisson_cumulants_from_triple():
    lam = Fraction(2)
    t = compound_poisson_triple(lam, point_mass(1))
    assert triple_to_cumulants(t, 5) == [lam] * 5


def test_delta2_cumulants_from_triple():
    t = triple(0, 0, [(2, 1)])
    assert triple_to_cumulants(t, 4) == [2, 4, 8, 16]


def test_series_oracle_matches_power_series():
    """Independent oracle: expand z phi(1/z) as a power series numerically."""
    t = triple(Fraction(1, 2), Fraction(3, 4), [(2, Fraction(1, 3)), (-1, 1)])
    kappas = triple_to_cumulants(t, 6)

    def phi(z):
        # eta + a/z + int [ z^2/(z-x) - z - x 1_[-1,1](x) ] drho
        total = complex(t.eta) + complex(t.a) / z
        for x, m in t.rho.atoms:
            x, m = float(x), float(m)
            total += m * (z * z / (z - x) - z - (x if abs(x) <= 1 else 0.0))
        return total

    # kappa_n are the Taylor coefficients of C(z) = z phi(1/z) at 0; read
    # them off a circle of radius r by the discrete Fourier transform
    r = 0.05
    npts = 512
    zs = r * np.exp(2j * np.pi * np.arange(npts) / npts)
    cz = np.array([z * phi(1.0 / z) for z in zs])
    for n in range(1, 7):
        coeff = (cz * np.exp(-2j * np.pi * n * np.arange(npts) / npts)).mean() / r**n
        assert abs(coeff.real - float(kappas[n - 1])) <= 1e-8, n
        assert abs(coeff.imag) <= 1e-8


def test_compound_poisson_examples():
    t = compound_poisson_triple(1, point_mass(1))
    assert (t.eta, t.a) == (1, 0)
    assert t.rho.atoms == [(1, 1)]

    t = compound_poisson_triple(2, two_point(-1, 1, Fraction(1, 2), Fraction(1, 2)))
    assert (t.eta, t.a) == (0, 0)
    assert t.rho.atoms == [(-1, 1), (1, 1)]

    t = compound_poisson_triple(1, point_mass(2))
    assert (t.eta, t.a) == (0, 0)
    assert t.rho.atoms == [(2, 1)]
    assert triple_to_cumulants(t, 1)[0] == 2


# -- limit checker ---------------------------------------------------------------


def test_bp_bernoulli_family():
    report = bp_limit_check(bernoulli_family(1), [10, 100, 1000, 10000])
    assert abs(report.gamma - 0.5) <= 1e-3
    assert report.sigma_atoms is not None
    (loc, mass), = report.sigma_atoms
    assert loc == 1
    assert abs(float(mass) - 0.5) <= 1e-3
    t = pair_to_triple(report.pair())
    expected = compound_poisson_triple(1, point_mass(1))
    assert t.eta == expected.eta
    assert t.a == expected.a
    assert t.rho.atoms == expected.rho.atoms


def test_bp_drift_family():
    report = bp_limit_check(shifted_atom_family(3), [100, 1000, 10000])
    assert abs(report.gamma - 3.0) <= 1e-3
    assert report.sigma_mass <= 1e-2


def test_bp_semicircle_family():
    report = bp_limit_check(symmetric_pm_family(), [100, 1000, 10000])
    assert abs(report.gamma) <= 1e-6
    assert abs(report.sigma_mass - 1.0) <= 1e-3
    assert abs(report.sigma_mean) <= 1e-2


# -- serialization -----------------------------------------------------------------


def test_triple_json_roundtrip():
    t = triple(1.5, 0.25, [(1.0, 2.0)])
    data = t.to_json()
    assert set(data) == {"eta", "a", "rho"}
    back = GeneratingTriple.from_json(data)
    assert back.eta == t.eta and back.a == t.a
    assert back.rho.atoms == [(1.0, 2.0)]


def test_pair_json_roundtrip():
    p = GeneratingPair(0.5, GridMeasure([(0.0, 1.0)]))
    data = p.to_json()
    assert set(data) == {"gamma", "sigma"}
    back = GeneratingPair.from_json(data)
    assert back.gamma == 0.5
    assert back.sigma.atoms == [(0.0, 1.0)]
