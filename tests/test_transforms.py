import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from freelevy import transforms
from freelevy.cumulants import (
    cumulants_to_moments,
    free_joint_functional,
    free_poisson_moments,
    moments_to_cumulants,
)
from freelevy.measures import (
    DensityGrid,
    GridMeasure,
    arcsine_density,
    bernoulli_symmetric,
    point_mass,
    semicircle,
    semicircle_density,
    two_point,
)
from freelevy.partitions import enumerate_nc, kreweras
from freelevy.transforms import (
    ConvergenceError,
    TransformError,
    boxplus_power,
    cauchy,
    cauchy_derivative,
    dilate,
    free_convolve,
    free_convolve_moments,
    free_multiply_moments,
    inversion_cone_height,
    stieltjes_density,
    voiculescu,
)


def g_semicircle(z, variance=1.0):
    # branch with G ~ 1/z at infinity
    root = np.sqrt(z * z - 4.0 * variance)
    if (z.imag > 0) != (root.imag > 0):
        root = -root
    return (z - root) / (2.0 * variance)


# -- cauchy --------------------------------------------------------------


def test_cauchy_point_mass():
    assert cauchy(point_mass(0.0), 1j) == pytest.approx(-1j)


def test_cauchy_semicircle_quadrature_vs_closed_form():
    mu = semicircle(1.0, n_points=8001)
    z = 2j
    got = cauchy(mu, z)
    expected = g_semicircle(np.complex128(z))
    # independent quadrature oracle for the same value
    re = quad(lambda x: semicircle_density(x) * ((z - x).real / abs(z - x) ** 2), -2, 2)[0]
    im = quad(lambda x: semicircle_density(x) * (-(z - x).imag / abs(z - x) ** 2), -2, 2)[0]
    assert got == pytest.approx(expected, abs=1e-6)
    assert got == pytest.approx(re + 1j * im, abs=1e-6)
    assert expected == pytest.approx(-1j * (math.sqrt(2.0) - 1.0), abs=1e-12)


def test_cauchy_asymptotics():
    # relative deviation from 1/z decays like m1/|z| + m2/|z|^2
    mu = two_point(-1.5, 0.5, 0.25, 0.75)
    z = 100j
    assert abs(cauchy(mu, z) - 1.0 / z) <= 1e-3 * abs(1.0 / z)


def test_cauchy_rejects_lower_half_plane():
    with pytest.raises(TransformError):
        cauchy(point_mass(0.0), -1j)
    with pytest.raises(TransformError):
        cauchy(point_mass(0.0), 1.0 + 0j)


def test_cauchy_negative_imaginary_part():
    mu = semicircle(1.0)
    zs = np.array([0.3 + 0.5j, -1.0 + 0.1j, 2j])
    assert np.all(cauchy(mu, zs).imag < 0)


def cauchy_terms(mu, zs, power):
    """Every term m / (z - x)^power of mu's Cauchy sum, exact atoms then the
    trapezoid nodes, in complex arithmetic: one row per point. The trapezoid
    rule gives the node of a one-node grid no weight."""
    xs = [float(x) for x, _ in mu.atoms]
    ms = [float(m) for _, m in mu.atoms]
    if mu.grid is not None:
        w = np.full(len(mu.grid.values), mu.grid.h)
        w[0] = w[-1] = mu.grid.h / 2.0 if len(w) > 1 else 0.0
        xs = np.concatenate([xs, mu.grid.xs()])
        ms = np.concatenate([ms, mu.grid.values * w])
    return np.asarray(ms) / (zs[:, None] - np.asarray(xs)) ** power


def atom_grid_mix():
    half = semicircle(1.0).grid
    return GridMeasure([(1.0, 0.5)], DensityGrid(half.lo, half.hi, half.h, 0.5 * half.values))


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("law", ["grid", "atom_grid_mix"])
def test_cauchy_kernel_matches_the_direct_complex_sum(law, power):
    # G = sum m / (z - x) and G' = -sum m / (z - x)^2 against the complex
    # terms summed exactly (fsum), relative to the sum of their moduli;
    # Im z runs from the lowest inversion line up to 10, every other point
    # sits right above a grid node, and the point counts straddle one block
    mu = semicircle(1.0, n_points=1001) if law == "grid" else atom_grid_mix()
    transform, sign = (cauchy, 1.0) if power == 1 else (cauchy_derivative, -1.0)
    rows = transforms.KERNEL_CHUNK // len(mu.grid.values)
    rng = np.random.default_rng(20261018)
    for count in (rows - 1, rows, rows + 1):
        above_node = np.arange(count) % 2 == 0
        re = np.where(above_node, rng.choice(mu.grid.xs(), count), rng.uniform(-3.0, 3.0, count))
        zs = re + 1j * np.geomspace(2.5e-3, 10.0, count)
        got = transform(mu, zs)
        terms = sign * cauchy_terms(mu, zs, power)
        want = np.array([complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms])
        rel = np.abs(got - want) / np.abs(terms).sum(axis=1)
        assert rel.max() <= 1e-13, (count, rel.max())
        # points do not interact: the vector call is the scalar calls, bit for bit
        assert np.array_equal(got, [transform(mu, z) for z in zs]), count


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("law", ["grid", "atom_grid_mix"])
def test_cauchy_kernel_outside_the_real_arithmetic_range(law, power):
    # where (u^2 + b^2)^p would underflow (a point right above a node at a
    # tiny Im z) or overflow (a huge |Re z| or Im z), the sum still matches
    # the complex terms, and points of both kinds in one call are the
    # scalar calls bit for bit
    mu = semicircle(1.0, n_points=1001) if law == "grid" else atom_grid_mix()
    transform, sign = (cauchy, 1.0) if power == 1 else (cauchy_derivative, -1.0)
    tiny, huge = (1e-170, 1e160) if power == 1 else (1e-100, 1e100)
    node = mu.grid.xs()[400]
    zs = np.array([node + 1j * tiny, node + 1e-60j, huge + 1j, -huge + 0.5j, 0.3 + 1j * huge,
                   node + 1e-3j])
    got = transform(mu, zs)
    assert np.all(np.isfinite(got))
    terms = sign * cauchy_terms(mu, zs, power)
    want = np.array([complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms])
    rel = np.abs(got - want) / np.abs(terms).sum(axis=1)
    assert rel.max() <= 1e-13, rel
    assert np.array_equal(got, [transform(mu, z) for z in zs])


def fsum_error(mu, zs, got):
    """|got - G| relative to sum |m| / |z - x| over mu's terms, with G the
    terms summed exactly (fsum) in complex arithmetic."""
    terms = cauchy_terms(mu, zs, 1)
    want = np.array([complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms])
    return np.abs(got - want) / np.abs(terms).sum(axis=1)


def chebyshev_take(mu, zs):
    """Which points take the grid sum's Chebyshev expansion."""
    cauchy(mu, zs)
    return transforms._chebyshev_far_field(mu.grid.kernel_constants[2], zs)[0]


@pytest.mark.parametrize("re", [0.0, 0.5, 0.95, -1.0])
def test_chebyshev_far_field_on_both_sides_of_its_bound(re):
    # bisect Im z to the point where the truncation bound starts to hold:
    # the points just inside and just outside it both match the direct sum
    mu = semicircle(1.0, n_points=1001)
    c, r = 0.0, 2.0
    lo, hi = 1e-3, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if chebyshev_take(mu, np.array([c + r * (re + 1j * mid)]))[0]:
            hi = mid
        else:
            lo = mid
    zs = c + r * (re + 1j * np.array([hi, lo]))
    assert list(chebyshev_take(mu, zs)) == [True, False]
    assert hi - lo <= 1e-14 * hi
    assert fsum_error(mu, zs, cauchy(mu, zs)).max() <= 1e-13


@pytest.mark.parametrize("law", ["grid", "atom_grid_mix"])
def test_chebyshev_far_field_far_out(law):
    # |z| from 1e3 to 1e40 in every direction of the upper half-plane: all
    # far points take the expansion, and q = 1 / (zeta + s) does not cancel
    mu = semicircle(1.0, n_points=1001) if law == "grid" else atom_grid_mix()
    radius = np.geomspace(1e3, 1e40, 75)
    zs = radius * np.exp(1j * np.linspace(1e-3, math.pi - 1e-3, 75))
    assert chebyshev_take(mu, zs).all()
    assert fsum_error(mu, zs, cauchy(mu, zs)).max() <= 1e-13


@pytest.mark.parametrize("values", [[1.0], [0.3, 0.7], [0.2, 0.5, 0.3]])
def test_chebyshev_far_field_on_the_smallest_grids(values):
    # one node has no width (r = 0) and, as DensityGrid.mass() says, no
    # mass: G = G' = 0 with no moments kept (h = 0.25, not 1, so that a
    # stray weight h / 2 would show); two and three nodes sit at
    # y = -1, (0,) 1 and take the expansion far out
    n = len(values)
    zs = np.array([0.1 + 1e-3j, 0.2 + 0.5j, 3.0 + 1j, -40.0 + 2j, 1e6 + 1e6j, 1e30j])
    if n == 1:
        mu = GridMeasure([], DensityGrid(0.0, 0.0, 0.25, values))
        assert mu.grid.mass() == 0.0
        assert np.array_equal(cauchy(mu, zs), np.zeros(len(zs)))
        assert np.array_equal(cauchy_derivative(mu, zs), np.zeros(len(zs)))
        assert mu.grid.kernel_constants is None
        return
    mu = GridMeasure([], DensityGrid(-0.5 * (n - 1), 0.5 * (n - 1), 1.0, values))
    got = cauchy(mu, zs)
    assert fsum_error(mu, zs, got).max() <= 1e-13
    assert np.array_equal(got, [cauchy(mu, z) for z in zs])
    assert chebyshev_take(mu, zs)[-2:].all()


@pytest.mark.parametrize("law", ["grid", "atom_grid_mix"])
def test_chebyshev_far_field_vector_call_is_the_scalar_calls(law):
    # points near and far, so that both paths run in one call: every vector
    # call equals its scalar calls bit for bit
    mu = semicircle(1.0, n_points=1001) if law == "grid" else atom_grid_mix()
    rng = np.random.default_rng(20261019)
    for count in [*range(1, 18), 1000]:
        zs = rng.uniform(-4.0, 4.0, count) + 1j * np.geomspace(1e-3, 1e3, count)
        got = cauchy(mu, zs)
        assert np.array_equal(got, [cauchy(mu, z) for z in zs]), count
        assert fsum_error(mu, zs, got).max() <= 1e-13, count
    take = chebyshev_take(mu, zs)
    assert take.any() and not take.all()


def test_chebyshev_far_field_blocks_keep_the_scalar_calls():
    # the far field runs in blocks whose powers q^0 .. q^15 hold KERNEL_CHUNK
    # floats; calls one short of a block, one block, one over and two blocks
    # and three, each at two offsets, equal the scalar calls bit for bit
    mu = semicircle(1.0, n_points=1001)
    block = transforms.KERNEL_CHUNK // (2 * transforms.CHEBYSHEV_RUN)
    lengths = [block - 1, block, block + 1, 2 * block + 3]
    rng = np.random.default_rng(21)
    count = max(lengths) + 1
    zs = rng.uniform(-5.0, 5.0, count) + 1j * rng.uniform(1.0, 3.0, count)
    assert chebyshev_take(mu, zs).all()
    scalar = np.array([cauchy(mu, z) for z in zs])
    for length, offset in itertools.product(lengths, [0, 1]):
        got = cauchy(mu, zs[offset : offset + length])
        assert np.array_equal(got, scalar[offset : offset + length]), (length, offset)
    assert fsum_error(mu, zs[:200], scalar[:200]).max() <= 1e-13


# direct-sum points of the convolution below with every first-line point
# started at w = z, 1e-2 above the axis (counted before the off-axis start)
DIRECT_POINTS_FROM_THE_AXIS = 679


def test_first_line_off_the_axis_halves_the_direct_sums(monkeypatch):
    direct = []
    far_field = transforms._chebyshev_far_field

    def counting(moments, z):
        take, g = far_field(moments, z)
        direct.append(int((~take).sum()))
        return take, g

    monkeypatch.setattr(transforms, "_chebyshev_far_field", counting)
    # semicircle [+] semicircle on 1001 nodes, variances drawn from a fixed seed
    v1, v2 = np.random.default_rng(1).uniform(0.5, 1.5, size=2)
    free_convolve(semicircle(v1, n_points=1001), semicircle(v2, n_points=1001), n_points=1001)
    assert sum(direct) <= DIRECT_POINTS_FROM_THE_AXIS // 2, sum(direct)


def test_chebyshev_far_field_serves_most_of_a_subordination_line(monkeypatch):
    # the subordination points of a density line sit above the nodes, and
    # most of them skip the direct sum
    counts = {"points": 0, "expanded": 0}
    far_field = transforms._chebyshev_far_field

    def counting(moments, z):
        take, g = far_field(moments, z)
        counts["points"] += z.size
        counts["expanded"] += int(take.sum())
        return take, g

    monkeypatch.setattr(transforms, "_chebyshev_far_field", counting)
    mu, nu = semicircle(1.0, n_points=1001), semicircle(0.5, n_points=1001)
    zs = np.linspace(-3.5, 3.5, 301) + 1e-2j
    transforms._subordination_pair(mu, nu, zs)
    assert counts["expanded"] >= 0.8 * counts["points"], counts


def test_grid_values_are_read_only():
    # the kernel constants kept on a grid cannot go stale
    grid = semicircle(1.0, n_points=101).grid
    with pytest.raises(ValueError):
        grid.values[0] = 1.0
    mu = GridMeasure([], grid)
    cauchy(mu, 5j)
    constants = grid.kernel_constants
    cauchy(mu, 6j)
    assert grid.kernel_constants is constants


def test_kernel_constants_are_computed_once_per_grid(monkeypatch):
    # the nodes, weights and moments of a grid are built on its first call,
    # G or G', and every later call, near or far, reuses them
    built = []
    xs = DensityGrid.xs

    def counting_xs(grid):
        built.append(grid)
        return xs(grid)

    monkeypatch.setattr(DensityGrid, "xs", counting_xs)
    mu = semicircle(1.0, n_points=1001)
    built.clear()
    zs = np.array([0.3 + 1e-3j, 1.0 + 0.1j, 5j, 40.0 + 1j])
    for z in [zs, zs[0], zs[2]]:
        cauchy_derivative(mu, z)
        cauchy(mu, z)
    assert built == [mu.grid]
    constants = mu.grid.kernel_constants
    assert constants[1].sum() == pytest.approx(mu.grid.mass(), rel=1e-15)
    assert constants[2][2][0, 0] == pytest.approx(mu.grid.mass() / 2.0, rel=1e-15)


# -- voiculescu -----------------------------------------------------------


def test_voiculescu_point_mass():
    c = 0.75
    for z in (2j, 5j, 1 + 3j):
        assert voiculescu(point_mass(c), z) == pytest.approx(c, abs=1e-9)


def test_inversion_cone_height():
    assert inversion_cone_height(semicircle(1.0)) == pytest.approx(8.0)
    assert inversion_cone_height(point_mass(-3.0)) == pytest.approx(12.0)


def test_voiculescu_stops_at_a_critical_point_of_f():
    # F of (delta_-1 + delta_1)/2 is w - 1/w, so F'(i) = 0; the first step
    # w -> z - h(w) = z + 1/w from w0 = z = i lands on the real axis at 0
    with pytest.raises(ConvergenceError, match=r"at z = 1j$"):
        voiculescu(bernoulli_symmetric(), 1j)


def free_poisson_grid(lam, n_points=4001):
    """Marchenko-Pastur law of rate lam >= 1 on a grid, at unit trapezoid mass."""
    lo, hi = (1 - math.sqrt(lam)) ** 2, (1 + math.sqrt(lam)) ** 2
    grid = DensityGrid.from_function(
        lo, hi, n_points,
        lambda xs: np.sqrt(np.clip((hi - xs) * (xs - lo), 0, None)) / (2 * math.pi * xs),
    )
    return GridMeasure([], DensityGrid(lo, hi, grid.h, grid.values / grid.mass()))


CONE_LAWS = {
    "semicircle": lambda: semicircle(1.0),
    "free_poisson": lambda: free_poisson_grid(1.5),
    "bernoulli": bernoulli_symmetric,
    "two_point": lambda: two_point(-1.5, 0.5, 0.25, 0.75),
    "point_mass": lambda: point_mass(0.75),
    "atom_grid_mix": atom_grid_mix,
    "shifted_semicircle": lambda: semicircle(1.0, center=1.0),
}


@pytest.mark.parametrize("law", sorted(CONE_LAWS))
def test_voiculescu_converges_on_the_inversion_cone(law):
    mu = CONE_LAWS[law]()
    height = inversion_cone_height(mu)
    zs = np.array([x + 1j * height * c for c in (1.0, 1.5, 2.0, 3.0)
                   for x in np.linspace(-4.0, 4.0, 9)])
    phi = voiculescu(mu, zs)
    resid = np.abs(1.0 / cauchy(mu, zs + phi) - zs)
    assert np.all(resid <= 1e-9 * np.maximum(1.0, np.abs(zs))), resid.max()
    # points do not interact: the vector call is the scalar calls, bit for bit
    assert np.array_equal(phi, [voiculescu(mu, z) for z in zs])


@pytest.mark.parametrize("zs", [0.2j, np.array([5j, 0.2j, 3 + 9j])])
def test_voiculescu_below_the_floor_raises_convergence_error(zs):
    # semicircle iterates from z = 0.2i fall to Im w <= 3 grid steps
    with pytest.raises(ConvergenceError, match=r"at z = 0\.2j$"):
        voiculescu(semicircle(1.0), zs)


def test_voiculescu_semicircle():
    # the residual tracks the sampled measure's moment defect (~h^1.5),
    # so the 1e-8 target needs a fine synthesis grid
    mu = semicircle(1.0, n_points=1_000_001)
    z = 5j
    assert abs(voiculescu(mu, z) - 1.0 / z) <= 1e-8


def test_voiculescu_additive_two_bernoullis():
    mu = bernoulli_symmetric()
    conv = free_convolve(mu, mu, n_points=4601)
    z = 10j
    assert abs(voiculescu(conv, z) - 2 * voiculescu(mu, z)) <= 1e-4


def test_phi_additivity_at_spec_points():
    semi = semicircle(1.0, n_points=4001)
    bern = bernoulli_symmetric()
    pairs = [(semi, semi), (semi, bern)]
    for mu, nu in pairs:
        conv = free_convolve(mu, nu)
        for z in (5j, 10j, 3 + 5j):
            err = abs(voiculescu(conv, z) - voiculescu(mu, z) - voiculescu(nu, z))
            assert err <= 1e-4, (z, err)


# -- free convolution -------------------------------------------------------


def test_semicircle_convolution_density():
    mu = semicircle(1.0, n_points=4001)
    out = free_convolve(mu, mu)
    xs = out.grid.xs()
    err = np.max(np.abs(out.grid.values - semicircle_density(xs, variance=2.0)))
    assert err <= 5e-3
    assert abs(out.total_mass - 1.0) <= 1e-6


def test_point_mass_shifts_exactly():
    mu = two_point(-1.0, 2.0, 0.5, 0.5)
    out = free_convolve(point_mass(0.25), mu)
    assert out.atoms == [(-0.75, 0.5), (2.25, 0.5)]


def test_bernoulli_convolution_arcsine():
    mu = bernoulli_symmetric()
    out = free_convolve(mu, mu, n_points=4601)
    xs = out.grid.xs()
    # compare against the closed-form arcsine density away from the endpoints
    inner = np.abs(xs) <= 1.8
    err = np.max(np.abs(out.grid.values[inner] - arcsine_density(xs[inner])))
    assert err <= 5e-3
    m2 = out.moment(2)
    m4 = out.moment(4)
    assert m2 == pytest.approx(2.0, abs=1e-2)
    assert m4 == pytest.approx(6.0, abs=1e-2)
    assert abs(out.total_mass - 1.0) <= 1e-6


def test_arcsine_cumulants_match_moment_route():
    # kappa(Bernoulli [+] Bernoulli) = (0, 2, 0, -2): moments (0, 2, 0, 6)
    ks = moments_to_cumulants([0, 1, 0, 1])
    summed = [2 * k for k in ks]
    assert summed == [0, 2, 0, -2]
    assert cumulants_to_moments(summed) == [0, 2, 0, 6]


def test_free_convolve_requires_probability():
    with pytest.raises(TransformError):
        free_convolve(point_mass(0.0, 0.5), point_mass(0.0))


def times_mass(mu, c):
    grid = mu.grid
    return GridMeasure([], DensityGrid(grid.lo, grid.hi, grid.h, c * grid.values))


LADDER_CASES = {
    "semicircle": lambda: free_convolve(
        semicircle(1.0, n_points=1001), semicircle(0.5, n_points=1001), n_points=1001
    ),
    "free_poisson": lambda: free_convolve(
        free_poisson_grid(1.5, 1001), free_poisson_grid(2.0, 1001), n_points=1001
    ),
    "bernoulli": lambda: free_convolve(bernoulli_symmetric(), bernoulli_symmetric()),
    "power": lambda: boxplus_power(semicircle(1.0, n_points=1001), 2.5, n_points=1001),
    # at mass 4, Im omega falls below Im z, and some shifted starts would
    # leave the upper half-plane: those points start from z
    "power_mass_4": lambda: boxplus_power(times_mass(semicircle(1.0, n_points=1001), 4.0), 4.0,
                                          n_points=1001),
}


@pytest.fixture(scope="module", params=sorted(LADDER_CASES))
def ladder(request):
    """(warm, cold): the density of a ladder case and the points at which it
    evaluated G, with each inversion line started from the line above, and
    with every line solved from w = z."""
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        evaluated = []
        real_cauchy = transforms.cauchy

        def counting_cauchy(mu, z):
            evaluated.append(np.size(z))
            return real_cauchy(mu, z)

        patch.setattr(transforms, "cauchy", counting_cauchy)
        runs.append((LADDER_CASES[request.param]().grid.values, sum(evaluated)))
        evaluated.clear()
        solve = transforms._accelerated_fixed_point
        patch.setattr(
            transforms, "_accelerated_fixed_point",
            lambda step, z, what, start=None: solve(step, z, what),
        )
        runs.append((LADDER_CASES[request.param]().grid.values, sum(evaluated)))
    return runs


def test_warm_stieltjes_ladder_matches_a_cold_start(ladder):
    # solving every line from w = z must give the same density to 1e-7 of
    # its maximum, in fewer sweeps
    (warm, warm_points), (cold, cold_points) = ladder
    assert np.max(np.abs(warm - cold)) <= 1e-7 * cold.max()
    assert warm_points < 0.9 * cold_points, (warm_points, cold_points)


def test_ladder_start_saves_a_quarter_of_the_cold_evaluations(ladder):
    # a later line starts a Cauchy-Riemann step below the line above, which
    # is near enough to its fixed point to save a quarter of a cold start's G
    (_, warm_points), (_, cold_points) = ladder
    assert warm_points <= 0.75 * cold_points, (warm_points, cold_points)


def test_non_convergence_names_the_sweeps_and_the_residual(monkeypatch):
    # w -> w + 1 has no fixed point; the Aitken denominator vanishes, so each
    # sweep moves w by 2 and the last residual is |1| / |w1|, w1 = z + 2 n - 1
    monkeypatch.setattr(transforms, "FIXED_POINT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as err:
        transforms._accelerated_fixed_point(lambda z, w: w + 1.0, np.array([5j, 1j]), "drift")
    msg = str(err.value)
    assert msg.startswith("drift did not converge after 3 sweeps (residual ")
    assert msg.endswith("at z = 1j")
    residual = float(msg.split("(residual ")[1].split(")")[0])
    assert residual == pytest.approx(1.0 / abs(5 + 1j), rel=0.05)
    # through the public API: the stage, the count, a residual above the
    # tolerance, and the point at the end
    mu = semicircle(1.0, n_points=1001)
    with pytest.raises(
        ConvergenceError, match=r"^power subordination did not converge after 3 sweeps "
        r"\(residual (\S+)\) at z = \S+$"
    ) as err:
        boxplus_power(mu, 2.0, n_points=101)
    residual = float(str(err.value).split("(residual ")[1].split(")")[0])
    assert residual > transforms.FIXED_POINT_TOL


def test_steffensen_step_runs_only_on_points_still_moving():
    # w -> z has its fixed point as the first iterate: one sweep, one call
    sizes = []

    def to_z(z, w):
        sizes.append(w.size)
        return z.copy()

    z = np.array([1j, 2 + 3j])
    assert np.array_equal(transforms._accelerated_fixed_point(to_z, z, "constant"), z)
    assert sizes == [2]
    # a contraction to z from a start that is right at the first point only
    sizes[:] = []

    def halve(z, w):
        sizes.append(w.size)
        return z + 0.5 * (w - z)

    w = transforms._accelerated_fixed_point(halve, z, "halving", start=z + np.array([0, 1]))
    assert np.allclose(w, z, rtol=0, atol=1e-12)
    assert sizes[:2] == [2, 1]


def test_voiculescu_rejects_a_converged_iterate_at_the_floor(monkeypatch):
    # h moves w down by less than the tolerance, across the 3-grid-step floor:
    # the first iterate has converged, and is below the floor
    mu = semicircle(1.0)
    floor = 3.0 * mu.grid.h
    monkeypatch.setattr(transforms, "_h_fun", lambda mu, w: np.full(w.shape, 2e-13j))
    z = 0.5 + 1j * (floor + 1e-13)
    with pytest.raises(ConvergenceError, match=r"resolved upper half-plane at z = \(0\.5\+"):
        voiculescu(mu, np.array([5j, z]))


# -- boxplus powers -----------------------------------------------------------


def test_boxplus_power_identity():
    mu = bernoulli_symmetric()
    out = boxplus_power(mu, 1)
    assert out.atoms == mu.atoms


def test_boxplus_power_cumulant_mode():
    ks = [Fraction(1), Fraction(1), Fraction(1)]
    assert boxplus_power(ks, 3) == [3, 3, 3]
    assert cumulants_to_moments(boxplus_power(ks, 3)) == [3, 12, 57]


def test_boxplus_power_semicircle_grid():
    mu = semicircle(1.0, n_points=4001)
    out = boxplus_power(mu, 2.0)
    xs = out.grid.xs()
    err = np.max(np.abs(out.grid.values - semicircle_density(xs, variance=2.0)))
    assert err <= 5e-3


def test_boxplus_power_small_t_needs_flag():
    mu = semicircle(1.0)
    with pytest.raises(TransformError):
        boxplus_power(mu, 0.5)


def test_boxplus_power_small_t_cumulant_mode():
    ks = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    half = boxplus_power(ks, Fraction(1, 2), infinitely_divisible=True)
    assert half == [0, Fraction(1, 2), 0, 0]
    assert cumulants_to_moments(half)[3] == 2 * Fraction(1, 2) ** 2


def test_boxplus_power_small_t_point_mass():
    out = boxplus_power(point_mass(2.0), 0.5, infinitely_divisible=True)
    assert out.atoms == [(1.0, 1)]


@pytest.mark.parametrize("n_points", [1, 0, 2.5, -3, True], ids=repr)
@pytest.mark.parametrize("call", ["free_convolve", "boxplus_power"])
def test_a_bad_n_points_is_a_transform_error(call, n_points):
    # each once raised an internal IndexError, TypeError or ValueError
    mu = semicircle(1.0, n_points=101)
    with pytest.raises(TransformError, match="n_points must be an integer >= 2"):
        if call == "free_convolve":
            free_convolve(mu, mu, n_points=n_points)
        else:
            boxplus_power(mu, 2.0, n_points=n_points)


def test_two_output_points_pass_the_n_points_check():
    # two points are a valid grid; both sit outside the support, and the
    # empty density is a numeric outcome, not a usage error
    mu = semicircle(1.0, n_points=101)
    with pytest.raises(ConvergenceError, match="empty density"):
        free_convolve(mu, mu, n_points=2)
    assert boxplus_power(mu, 2.0, n_points=3).grid.values[1] > 0


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("operand", ["measure", "cumulants"])
def test_a_power_that_is_not_a_finite_real_is_refused_at_once(operand, t, monkeypatch):
    # nan once ran 500 sweeps of nan before a ConvergenceError, and a
    # cumulant list came back as nans; no fixed point may run now
    monkeypatch.setattr(transforms, "_accelerated_fixed_point", None)
    obj = semicircle(1.0, n_points=1001) if operand == "measure" else [1.0, 2.0]
    with pytest.raises(TransformError, match="power must be a finite real"):
        boxplus_power(obj, t)


def test_boxplus_power_small_t_density_raises_cleanly():
    # fractional powers of a sampled density need phi continued below the
    # image of F, which the discretized transform cannot provide: the
    # documented behavior is a ConvergenceError pointing at cumulant mode
    mu = semicircle(1.0, n_points=2001)
    with pytest.raises(ConvergenceError):
        boxplus_power(mu, 0.5, infinitely_divisible=True, n_points=101)


def test_boxplus_power_point_mass():
    out = boxplus_power(point_mass(1.5), 3.0)
    assert out.atoms == [(4.5, 1)]


# -- dilation and moment-level products ----------------------------------------


def test_dilate_atom():
    assert dilate(point_mass(1), 3).atoms == [(3, 1)]


def test_dilate_density_moments():
    mu = semicircle(1.0)
    out = dilate(mu, 2.0)
    # m_k -> s^k m_k holds exactly for the discretized measure
    assert out.moment(2) == pytest.approx(4.0 * mu.moment(2), rel=1e-12)
    assert out.total_mass == pytest.approx(mu.total_mass, rel=1e-12)


def test_dilate_negative():
    mu = two_point(1.0, 2.0, 0.25, 0.75)
    out = dilate(mu, -1.0)
    assert out.atoms == [(-2.0, 0.75), (-1.0, 0.25)]


def test_free_multiply_point_mass_is_dilation():
    c = Fraction(3)
    ma = [c, c**2, c**3]
    mb = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    got = free_multiply_moments(ma, mb, 3)
    assert got == [c**n * mb[n - 1] for n in (1, 2, 3)]


def test_free_multiply_projections():
    # a, b free projections of trace 1/2: m1(ab) = 1/4, m2(ab) = 3/16
    half = Fraction(1, 2)
    m = [half, half, half, half]
    got = free_multiply_moments(m, m, 2)
    assert got == [Fraction(1, 4), Fraction(3, 16)]


def test_free_multiply_projection_matches_monte_carlo():
    # random-projection oracle for m2(ab) = 3/16
    rng = np.random.default_rng(5)
    d = 600
    reps = 8
    acc = 0.0
    for _ in range(reps):
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        p1 = q1[:, : d // 2] @ q1[:, : d // 2].T
        p2 = q2[:, : d // 2] @ q2[:, : d // 2].T
        ab = p1 @ p2
        acc += np.trace(ab @ ab).real / d
    acc /= reps
    assert acc == pytest.approx(3.0 / 16.0, abs=0.01)


@functools.cache
def kreweras_pairs(n):
    """(block sizes of pi, block sizes of K(pi)) for every pi in NC(n)."""
    return [
        ([len(b) for b in pi.blocks], [len(b) for b in kreweras(pi).blocks])
        for pi in enumerate_nc(n)
    ]


def kreweras_sum_oracle(ma, mb, n):
    """m_order(ab) = sum over NC(order) of kappa_pi(a) * m_K(pi)(b), order <= n
    (Nica & Speicher, Lecture 14), each with the sum of |terms| as its scale."""
    ka = moments_to_cumulants(ma[:n])
    out = []
    for order in range(1, n + 1):
        total, scale = 0, 0
        for pi_sizes, k_sizes in kreweras_pairs(order):
            term = math.prod(ka[s - 1] for s in pi_sizes)
            term *= math.prod(mb[s - 1] for s in k_sizes)
            total, scale = total + term, scale + abs(term)
        out.append((total, scale))
    return out


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_free_multiply_moments_matches_the_kreweras_sum(kind, monkeypatch):
    def no_listing(n):
        raise AssertionError("free_multiply_moments listed NC(n)")

    rng = random.Random(20261018)

    def value():
        if kind == "float":
            return rng.uniform(-2.0, 2.0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for trial in range(60):
        n = rng.randint(1, 8)
        ma, mb = [value() for _ in range(n)], [value() for _ in range(n)]
        # a third of the laws are centred in a, a third in b
        if trial % 3 == 1:
            ma[0] = 0 * ma[0]
        elif trial % 3 == 2:
            mb[0] = 0 * mb[0]
        want = kreweras_sum_oracle(ma, mb, n)
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("freelevy") and hasattr(module, "enumerate_nc"):
                    patch.setattr(module, "enumerate_nc", no_listing)
            got = free_multiply_moments(ma, mb, n)
        assert len(got) == n
        for order, (g, (w, scale)) in enumerate(zip(got, want), start=1):
            if kind == "float":
                assert abs(g - w) <= 1e-12 * scale, (order, g, w, scale)
            else:
                assert g == w and type(g) is Fraction, (order, g, w)


def _exact_law(rng, n, kind):
    def value():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    return [value() for _ in range(n)]


def test_free_multiply_moments_is_the_joint_functional_on_the_words():
    # the alternating-word system gives tau((ab)^n) of the first-block
    # recursion, equal and of the same type, on ints, Fractions and mixes
    rng = random.Random(34)
    for trial in range(200):
        n, kind = rng.randint(1, 12), ("int", "fraction", "mixed")[trial % 3]
        ma, mb = _exact_law(rng, n, kind), _exact_law(rng, n, kind)
        tau = free_joint_functional({"a": ma, "b": mb})
        want = [tau(("a", "b") * m) for m in range(1, n + 1)]
        got = free_multiply_moments(ma, mb, n)
        assert got == want and [type(g) for g in got] == [type(w) for w in want], (ma, mb)


def test_alternating_words_satisfy_the_product_system():
    # the identities free_multiply_moments rests on, on the first-block
    # recursion's words: tau((ba)^n) = tau((ab)^n) (the state is tracial) and
    # A (A - 1) = z C D for A_n = tau((ab)^n), C_g = tau(b (ab)^g) and
    # D_h = tau(a (ba)^h)
    rng = random.Random(3434)
    for trial in range(100):
        n = rng.randint(1, 9)
        ma, mb = _exact_law(rng, n, "mixed"), _exact_law(rng, n, "mixed")
        tau = free_joint_functional({"a": ma, "b": mb})
        a_series = [1] + [tau(("a", "b") * m) for m in range(1, n + 1)]
        assert a_series[1:] == [tau(("b", "a") * m) for m in range(1, n + 1)], (ma, mb)
        c_series = [tau(("b",) + ("a", "b") * g) for g in range(n)]
        d_series = [tau(("a",) + ("b", "a") * h) for h in range(n)]
        for m in range(1, n + 1):
            lhs = sum(a_series[i] * a_series[m - i] for i in range(m))
            assert lhs == sum(c_series[g] * d_series[m - 1 - g] for g in range(m)), (ma, mb, m)


def test_free_multiply_moments_above_the_old_bound():
    # MP(1) boxtimes MP(1) has the Fuss-Catalan moments C(3n, n) / (2n + 1)
    n = 16
    catalan = free_poisson_moments(1, n)
    got = free_multiply_moments(catalan, catalan, n)
    assert got == [math.comb(3 * m, m) // (2 * m + 1) for m in range(1, n + 1)]


def test_belinschi_nica_identity_moment_level():
    """(mu^t boxtimes nu^t) = dilation by t of (mu boxtimes nu)^t, t = 2."""
    t = 2
    m_mu = free_poisson_moments(1, 6)
    m_nu = [Fraction(1, 2)] * 6

    def power_moments(ms, s):
        return cumulants_to_moments([s * k for k in moments_to_cumulants(ms)])

    lhs = free_multiply_moments(power_moments(m_mu, t), power_moments(m_nu, t), 6)
    core = free_multiply_moments(m_mu, m_nu, 6)
    rhs = [t**n * m for n, m in enumerate(power_moments(core, t), start=1)]
    assert lhs == rhs


def word_expansion_oracle(ma, mb, n):
    """m_order(a + b), order <= n: the joint moments of the 2^order words of (a + b)^order."""
    tau = free_joint_functional({"a": ma[:n], "b": mb[:n]})
    return [
        sum(tau(word) for word in itertools.product("ab", repeat=order))
        for order in range(1, n + 1)
    ]


def test_free_convolve_moments_matches_cumulant_addition():
    rng = random.Random(20261019)

    def value():
        return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])

    for _ in range(24):
        n = rng.randint(1, 8)
        ma, mb = [value() for _ in range(n)], [value() for _ in range(n)]
        got, want = free_convolve_moments(ma, mb, n), word_expansion_oracle(ma, mb, n)
        assert got == want and [type(g) for g in got] == [type(w) for w in want], (ma, mb)
    # above the word expansion's reach: MP(1) boxplus MP(2) is MP(3), and
    # two unit semicircles sum to the semicircle of variance 2
    assert free_convolve_moments(free_poisson_moments(1, 16), free_poisson_moments(2, 16), 16) == (
        free_poisson_moments(3, 16)
    )
    semicircle = cumulants_to_moments([0, 1] + [0] * 14)
    assert free_convolve_moments(semicircle, semicircle, 16) == [
        2 ** (n // 2) * m for n, m in enumerate(semicircle, start=1)
    ]


# -- Stieltjes inversion roundtrip ----------------------------------------------


def test_stieltjes_roundtrip_semicircle():
    mu = semicircle(2.0, n_points=16001)
    xs = np.linspace(-2 * math.sqrt(2), 2 * math.sqrt(2), 1200)
    dens = stieltjes_density(mu, xs)
    err = np.max(np.abs(dens - semicircle_density(xs, variance=2.0)))
    assert err <= 5e-3


# -- serialization ---------------------------------------------------------------


def test_grid_measure_json_roundtrip():
    from freelevy.measures import GridMeasure

    mu = semicircle(1.0, n_points=101)
    data = mu.to_json()
    assert set(data) == {"atoms", "grid"}
    assert set(data["grid"]) == {"lo", "hi", "h", "values"}
    back = GridMeasure.from_json(data)
    assert back.grid.lo == mu.grid.lo
    assert np.allclose(back.grid.values, mu.grid.values)
    atom = point_mass(2.0, 0.5)
    assert atom.to_json() == {"atoms": [[2.0, 0.5]], "grid": None}
