"""Generating triples and pairs of freely infinitely divisible laws, their
conversions, Levy-measure pushforwards, the higher-variation triple map,
compound-Poisson triples, cumulant expansion, and the limit-condition checker.

Atom arithmetic goes through plain Python numbers, so triples built from
ints/Fractions convert and round-trip exactly; density parts integrate on
their grids in floating point. Each integrand is written once and is called
with a number for each atom and with the whole node array for the grid;
_where is the one place that tells the two apart.

The triple stored here is time-free: the law at time t has triple
(t eta, t a, t rho), and cumulants scale linearly in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measures import (
    DensityGrid, GridMeasure, NumericError, _floats, _integer, _integers, _real,
)

MERGE_RTOL = 1e-12
INTEGRABILITY_GUARD = 1e12
PUSHFORWARD_CELLS = 4096


class LevyError(ValueError):
    """Invalid Levy data: atom at the origin, divergent integrals, bad map."""


def _check_json(data, kind: str, reals, measure: str):
    """LevyError naming the key where `data` is not a JSON generating triple or pair."""
    for key in (*reals, measure):
        if not (isinstance(data, dict) and key in data):
            raise LevyError(f"a generating {kind} is a JSON object with the key {key!r}")
        if key in reals:
            _real(data[key], key, LevyError)


def _where(cond, yes, no):
    """yes where cond holds, else no: elementwise on grid arrays, plain on atoms.

    The one place that tells an exact scalar from a grid array, so every
    integrand below is written once. Both branches are evaluated, and a float
    power that overflows on an atom raises even where its branch is unused,
    so an integrand keeps each branch finite where it is not taken (`_tilt`
    cubes the truncated x); on the grid an unused branch may still overflow
    quietly inside a `_floats` stage."""
    if hasattr(cond, "shape"):
        return np.where(cond, yes, no)
    return yes if cond else no


def _exact(x):
    """Promote ints to Fraction so scalar division stays exact."""
    return Fraction(x) if isinstance(x, int) else x


def _min_1_x2(x):
    x2 = x * x
    return _where(x2 < 1, x2, 1)


def _tilt_weight(x):
    """x / (1 + x^2), exact on scalar rationals."""
    x = _exact(x)
    return x / (1 + x * x)


def _truncated_x(x):
    """x on [-1, 1], zero outside."""
    return _where(abs(x) <= 1, x, 0)


def _tail_x(x):
    """x outside [-1, 1], zero inside."""
    return _where(abs(x) > 1, x, 0)


def _sigma_weight(x):
    """x^2 / (1 + x^2), the density of sigma against rho."""
    x2 = x * x
    return x2 / (1 + x2)


def _rho_weight(x):
    """(1 + x^2) / x^2, the density of rho against sigma (finite at x = 0,
    where LevyMeasure zeroes the grid node)."""
    x2 = x * x
    return (1 + x2) / _where(x == 0, 1, x2)


def _tilt(x):
    """x^3 / (1 + x^2) on [-1, 1], -x / (1 + x^2) outside: gamma = eta - int tilt drho."""
    x = _exact(x)
    den = 1 + x * x
    return _where(abs(x) <= 1, _truncated_x(x) ** 3, -x) / den


def _reweighted(mu: GridMeasure, f):
    """Atoms and grid of f(x) mu(dx), with int atom locations made exact."""
    atoms = [(_exact(x), m) for x, m in mu.atoms]
    atoms = [(x, m * f(x)) for x, m in atoms]
    grid = None
    if mu.grid is not None:
        g = mu.grid
        grid = DensityGrid(g.lo, g.hi, g.h, g.values * f(g.xs()))
    return atoms, grid


class LevyMeasure(GridMeasure):
    """A GridMeasure with the origin excluded and min(1, x^2) integrable.

    The total mass may be large, but the origin carries none: an atom at
    exactly 0 is rejected (any other is kept, so dilations stay Levy
    measures) and the grid node nearest 0 is zeroed.
    """

    def __post_init__(self):
        for loc, mass in self.atoms:
            if mass < 0:
                raise LevyError(f"negative mass {mass} at {loc}")
            if loc == 0 and mass != 0:
                raise LevyError("Levy measures carry no atom at the origin")
        super().__post_init__()
        if self.grid is not None:
            xs = self.grid.xs()
            inside = np.abs(xs) < self.grid.h / 2.0
            if inside.any():
                vals = self.grid.values.copy()
                vals[inside] = 0.0
                self.grid = DensityGrid(self.grid.lo, self.grid.hi, self.grid.h, vals)
        # min(1, x^2) <= 1, so the total mass bounds the integral: the exact
        # integral is needed only when the mass is not well inside the guard
        bound = sum(float(m) for _, m in self.atoms)
        if self.grid is not None:
            bound += self.grid.mass()
        if not bound <= INTEGRABILITY_GUARD / 2:
            with _floats("the integral of min(1, x^2) overflows"):
                guard = self.integrate(_min_1_x2)
            if not (float(guard) <= INTEGRABILITY_GUARD):
                raise LevyError(
                    f"integral of min(1, x^2) = {guard} exceeds the {INTEGRABILITY_GUARD} guard"
                )

    def to_grid_measure(self) -> GridMeasure:
        return GridMeasure(list(self.atoms), self.grid)


@dataclass
class GeneratingTriple:
    """Drift, semicircular variance coefficient, and Levy measure."""

    eta: float
    a: float
    rho: LevyMeasure

    def __post_init__(self):
        if self.a < 0:
            raise LevyError(f"semicircular coefficient must be >= 0, got {self.a}")

    def to_json(self) -> dict:
        return {"eta": float(self.eta), "a": float(self.a), "rho": self.rho.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "GeneratingTriple":
        _check_json(data, "triple", ("eta", "a"), "rho")
        return cls(data["eta"], data["a"], LevyMeasure.from_json(data["rho"], "rho"))


@dataclass
class GeneratingPair:
    """Nevanlinna parameters: shift gamma and finite nonnegative measure sigma."""

    gamma: float
    sigma: GridMeasure

    def to_json(self) -> dict:
        return {"gamma": float(self.gamma), "sigma": self.sigma.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "GeneratingPair":
        _check_json(data, "pair", ("gamma",), "sigma")
        return cls(data["gamma"], GridMeasure.from_json(data["sigma"], "sigma"))


@dataclass
class VariationMap:
    """A continuous map p with p(0) = 0, p'(0) = b, p''(0) = 2c.

    b and c are supplied by the caller, never differenced numerically: they
    are analytic facts about p, and the b = 0 fast paths must not be
    corrupted by finite-difference noise.

    p is called with a number (an atom, exact ints/Fractions stay exact) and
    with a numpy array of grid nodes, which it must map elementwise; the
    power and polynomial factories accept both.
    """

    p: callable
    b: float
    c: float
    name: str = ""

    def __post_init__(self):
        p0 = self.p(0.0)
        if p0 != 0:
            raise LevyError(f"variation maps require p(0) = 0, got p(0) = {p0}")

    @classmethod
    def power(cls, k: int) -> "VariationMap":
        k = _integer(k, 1, "k", LevyError)

        def p(x):
            return x**k

        # integer b, c keep exact atom arithmetic exact
        return cls(p=p, b=1 if k == 1 else 0, c=1 if k == 2 else 0, name=f"pow:{k}")

    @classmethod
    def polynomial(cls, coeffs) -> "VariationMap":
        """p(x) = coeffs[0] x + coeffs[1] x^2 + ... (no constant term)."""
        coeffs = [_real(cj, "a polynomial coefficient", LevyError) for cj in coeffs]
        if not coeffs:
            raise LevyError("polynomial maps need at least one coefficient")

        def p(x):
            acc = coeffs[-1]
            for cj in reversed(coeffs[:-1]):
                acc = acc * x + cj
            return acc * x

        b = coeffs[0]
        c = coeffs[1] if len(coeffs) > 1 else 0
        return cls(p=p, b=b, c=c, name="poly:" + ",".join(str(float(cj)) for cj in coeffs))


# -- conversions ---------------------------------------------------------------


@_floats("the triple's pair overflows")
def triple_to_pair(t: GeneratingTriple) -> GeneratingPair:
    """(eta, a, rho) -> (gamma, sigma): sigma = a delta_0 + x^2/(1+x^2) rho."""
    atoms, grid = _reweighted(t.rho, _sigma_weight)
    return GeneratingPair(t.eta - t.rho.integrate(_tilt), GridMeasure([(0, t.a)] + atoms, grid))


@_floats("the pair's rho overflows")
def pair_to_triple(p: GeneratingPair) -> GeneratingTriple:
    """(gamma, sigma) -> (eta, a, rho): a = sigma({0}), rho = (1+x^2)/x^2 sigma.

    Only sigma's atom at exactly 0 goes to a. A rho mass that leaves the floats
    (x^2 under- or overflows) is a NumericError before LevyMeasure's guard reads it."""
    a = sum((m for x, m in p.sigma.atoms if x == 0), start=0)
    off_atoms = [(x, m) for x, m in p.sigma.atoms if x != 0]
    atoms, grid = _reweighted(GridMeasure(off_atoms, p.sigma.grid), _rho_weight)
    if not (all(math.isfinite(m) for _, m in atoms)
            and (grid is None or np.isfinite(grid.values).all())):
        raise OverflowError("a mass is not finite")
    rho = LevyMeasure(atoms, grid)
    return GeneratingTriple(p.gamma + rho.integrate(_tilt), a, rho)


@_floats("the cumulants of the triple overflow")
def triple_to_cumulants(t: GeneratingTriple, n: int) -> list:
    """kappa_1 = eta + int_{|x|>1} x, kappa_2 = a + int x^2, kappa_m = int x^m."""
    n = _integer(n, 1, "the cumulant order n", LevyError)
    out = [t.eta + t.rho.integrate(_tail_x)]
    if n > 1:
        moments = t.rho.moments(n)
        out += [t.a + moments[1], *moments[2:]]
    return out


def compound_poisson_triple(lam, jump: GridMeasure) -> GeneratingTriple:
    """Triple of the rate-lam compound Poisson law with the given jump law."""
    if _real(lam, "lam", LevyError) <= 0:
        raise LevyError(f"rate must be positive, got {lam}")
    if not jump.is_probability():
        raise LevyError("jump must be a probability measure")
    atoms = [(x, lam * m) for x, m in jump.atoms if x != 0]
    grid = None
    if jump.grid is not None:
        grid = DensityGrid(
            jump.grid.lo, jump.grid.hi, jump.grid.h, lam * jump.grid.values
        )
    eta = lam * jump.integrate(_truncated_x)
    return GeneratingTriple(eta, 0, LevyMeasure(atoms, grid))


# -- pushforward and the variation map -------------------------------------------


def _merge_atom_images(pairs):
    images = sorted(((float(loc), loc, mass) for loc, mass in pairs), key=lambda t: t[0])
    merged, head = [], None  # head: float(merged[-1][0])
    for y, loc, mass in images:
        if merged and abs(y - head) <= MERGE_RTOL * abs(y):
            merged[-1] = (merged[-1][0], merged[-1][1] + mass)
        else:
            merged.append((loc, mass))
            head = y
    return merged


def pushforward_levy(rho: LevyMeasure, vm: VariationMap) -> LevyMeasure:
    """Image measure of rho under p, with images at exactly 0 dropped.

    The origin rule is the compensator's, and the one "same point" rule is
    relative: atom images within MERGE_RTOL |y| of each other merge their
    masses. So, for c a power of 2, the image under x^k of rho dilated by c
    is the image of rho dilated by c^k, bit for bit. The density
    part has one rule for every map: each source cell's trapezoid mass
    spreads uniformly over its image enclosure, the interval from the least
    to the greatest of p at the cell's two ends and its midpoint (so a cell
    across a fold of p, such as the vertex of an even power, covers its
    image), onto PUSHFORWARD_CELLS cells spanning the image. A density
    whose whole image is one point (to MERGE_RTOL relative) is an atom.
    """
    atom_images = ((vm.p(x), m) for x, m in rho.atoms)
    atoms = _merge_atom_images((y, m) for y, m in atom_images if y != 0)

    grid = None
    if rho.grid is not None and rho.grid.mass() > 0:
        xs = rho.grid.xs()
        vals = rho.grid.values
        h = rho.grid.h
        cell_mass = h * (vals[:-1] + vals[1:]) / 2.0
        images = np.asarray(vm.p(xs), dtype=float)
        mids = np.asarray(vm.p((xs[:-1] + xs[1:]) / 2.0), dtype=float)
        los = np.minimum(np.minimum(images[:-1], images[1:]), mids)
        his = np.maximum(np.maximum(images[:-1], images[1:]), mids)
        keep = (los != 0) | (his != 0)
        if keep.any():
            lo_t, hi_t = float(los[keep].min()), float(his[keep].max())
            if not (math.isfinite(lo_t) and math.isfinite(hi_t)):
                raise NumericError(f"the image of rho's density under p leaves the floats: "
                                   f"[{lo_t}, {hi_t}]")
            if hi_t - lo_t <= MERGE_RTOL * max(abs(lo_t), abs(hi_t)):
                # the whole density maps to one point: emit it as an atom
                atoms = _merge_atom_images(
                    atoms + [((lo_t + hi_t) / 2.0, float(cell_mass[keep].sum()))]
                )
            else:
                ht = (hi_t - lo_t) / PUSHFORWARD_CELLS
                node_mass = _deposit(
                    PUSHFORWARD_CELLS, lo_t, ht, los[keep], his[keep], cell_mass[keep]
                )
                values = node_mass / ht
                values[0] *= 2.0
                values[-1] *= 2.0
                grid = DensityGrid(lo_t, lo_t + ht * PUSHFORWARD_CELLS, ht, values)

    return LevyMeasure(atoms, grid)


def _deposit(n_cells, lo, h, a, b, mass):
    """Node masses after spreading each mass[i] uniformly over [a[i], b[i]]
    (all at a[i] when b[i] == a[i]) onto n_cells uniform cells
    starting at lo; each cell's share goes half to each of its end nodes."""
    node_mass = np.zeros(n_cells + 1)
    point = b == a
    j0 = np.clip(((a - lo) / h).astype(int), 0, n_cells - 1)
    j1 = np.where(point, j0, np.clip(((b - lo) / h).astype(int), 0, n_cells - 1))
    width = np.where(point, 1.0, b - a)
    # the k-th cell of every interval at once: k runs over the widest span
    for k in range(int((j1 - j0).max()) + 1):
        on = j0 + k <= j1
        j = j0[on] + k
        cell_lo = lo + j * h
        overlap = np.minimum(b[on], cell_lo + h) - np.maximum(a[on], cell_lo)
        overlap = np.where(point[on], 1.0, np.clip(overlap, 0.0, None))
        share = mass[on] * overlap / width[on]
        np.add.at(node_mass, j, share / 2.0)
        np.add.at(node_mass, j + 1, share / 2.0)
    return node_mass


@_floats("the variation triple overflows")
def variation_triple(t: GeneratingTriple, vm: VariationMap) -> GeneratingTriple:
    """Generating triple of the p-variation process.

    (eta, a, rho) maps to
      eta' = b eta + a c + int [ 1{0<|p(x)|<=1} p(x) - 1{0<|x|<=1} b x ] drho
      a'   = a b^2
      rho' = pushforward of rho under p.
    """
    b, c = vm.b, vm.c

    def compensator(x):
        x = _exact(x)
        px = vm.p(x)
        size = abs(px)
        return _where((0 < size) & (size <= 1), px, 0) - b * _truncated_x(x)

    eta_p = b * t.eta + t.a * c + t.rho.integrate(compensator)
    return GeneratingTriple(eta_p, t.a * b * b, pushforward_levy(t.rho, vm))


# -- limit-condition checker -------------------------------------------------------


@dataclass
class BPReport:
    """Per-scale estimates of the limit pair and their extrapolation."""

    ns: list
    gamma_by_n: list
    sigma_by_n: list
    gamma: float
    sigma_mass: float
    sigma_mean: float
    sigma_atoms: list | None
    gamma_residuals: list

    def pair(self) -> GeneratingPair:
        if self.sigma_atoms is not None:
            sigma = GridMeasure(list(self.sigma_atoms))
        else:
            sigma = self.sigma_by_n[-1]
        return GeneratingPair(self.gamma, sigma)


def _extrapolate(values, ns):
    """Richardson-style limit from the last three scales; exact tail wins."""
    vals = [float(v) for v in values]
    if len(vals) == 1:
        return vals[0]
    if abs(vals[-1] - vals[-2]) <= 1e-14 * max(1.0, abs(vals[-1])):
        return vals[-1]
    if len(vals) == 2:
        r = ns[-1] / ns[-2]
        return vals[-1] + (vals[-1] - vals[-2]) / (r - 1.0)
    d1 = vals[-2] - vals[-3]
    d2 = vals[-1] - vals[-2]
    r = ns[-1] / ns[-2]
    if d2 == 0 or d1 == 0 or (d1 / d2) <= 1.0:
        return vals[-1]
    p = math.log(d1 / d2) / math.log(r)
    return vals[-1] + d2 / (r**p - 1.0)


def bp_limit_check(family, ns) -> BPReport:
    """Evaluate the limit-pair conditions gamma_N = N int x/(1+x^2) d mu_N and
    sigma_N = N x^2/(1+x^2) mu_N along a scale list, and extrapolate.

    Divergence shows up as non-convergent estimates in the report, not as an
    error; scales that are not positive ints raise LevyError. Atom-level
    extrapolation of sigma happens when the atom locations are stable across scales.
    """
    ns = list(_integers(ns, 1, "ns", LevyError))
    gammas, sigmas = [], []
    for n in ns:
        mu = family(n)
        gammas.append(n * mu.integrate(_tilt_weight))
        sigmas.append(GridMeasure(*_reweighted(mu, lambda x: n * _sigma_weight(x))))

    gamma = _extrapolate(gammas, ns)
    masses = [s.total_mass for s in sigmas]
    means = [s.integrate(lambda x: x) for s in sigmas]
    sigma_mass = _extrapolate(masses, ns)
    sigma_mean = _extrapolate(means, ns)

    sigma_atoms = None
    locsets = [tuple(float(x) for x, _ in s.atoms) for s in sigmas]
    if all(not s.grid for s in sigmas) and len(set(locsets)) == 1 and locsets[0]:
        sigma_atoms = []
        for j, loc in enumerate(locsets[0]):
            mass = _extrapolate([s.atoms[j][1] for s in sigmas], ns)
            exact = sigmas[-1].atoms[j][1]
            # keep the exact value when the sequence is already constant
            if all(
                abs(float(s.atoms[j][1]) - float(exact)) <= 1e-14
                for s in sigmas
            ):
                mass = exact
            sigma_atoms.append((sigmas[-1].atoms[j][0], mass))

    residuals = [abs(float(g) - gamma) for g in gammas]
    return BPReport(
        ns=ns,
        gamma_by_n=gammas,
        sigma_by_n=sigmas,
        gamma=gamma,
        sigma_mass=sigma_mass,
        sigma_mean=sigma_mean,
        sigma_atoms=sigma_atoms,
        gamma_residuals=residuals,
    )


def bernoulli_family(lam):
    """N -> (1 - lam/N) delta_0 + (lam/N) delta_1, exact masses."""
    _real(lam, "lam", LevyError)

    def family(n):
        frac = Fraction(lam) / n
        return GridMeasure([(0, 1 - frac), (1, frac)])

    return family


def shifted_atom_family(c):
    """N -> delta_(c/N), the pure-drift family."""
    _real(c, "c", LevyError)

    def family(n):
        return GridMeasure([(Fraction(c) / n if isinstance(c, int) else c / n, 1)])

    return family


def symmetric_pm_family():
    """N -> (delta_(-1/sqrt N) + delta_(1/sqrt N)) / 2, the semicircle family."""

    def family(n):
        s = 1.0 / math.sqrt(n)
        return GridMeasure([(-s, 0.5), (s, 0.5)])

    return family


__all__ = [
    "BPReport",
    "GeneratingPair",
    "GeneratingTriple",
    "LevyError",
    "LevyMeasure",
    "VariationMap",
    "bernoulli_family",
    "bp_limit_check",
    "compound_poisson_triple",
    "pair_to_triple",
    "pushforward_levy",
    "shifted_atom_family",
    "symmetric_pm_family",
    "triple_to_cumulants",
    "triple_to_pair",
    "variation_triple",
]
