"""Finite measures on the line: point masses plus a sampled density grid.

Atom locations and masses are plain Python numbers and may be exact
(int/Fraction); operations that only touch atoms stay exact when the inputs
are exact. Density values live on a uniform grid and integrate by the
trapezoid rule.

`GridMeasure.moments(n)` takes all n atom moments in one pass when every
atom location and mass is an int or a Fraction: with Q and S the lcm of the
location and the mass denominators, sum m x^k is the integer
sum (S m) (Q x)^k over S Q^k, and the integer powers are running products.
Order k is an int when every atom is, and a Fraction otherwise, as
`moment(k)` gives; the grid part is added per order as `moment(k)` adds it.
Atoms of any other type (float, bool, numpy) take `moment(k)` per order.

JSON schema (field names are part of the external interface):
{"atoms": [[x, m], ...], "grid": {"lo": ..., "hi": ..., "h": ..., "values": [...]}}
with "grid" null for purely atomic measures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class MeasureError(ValueError):
    """Malformed measure data (negative mass, inconsistent grid)."""


class NumericError(ArithmeticError):
    """Valid input whose numbers left the floats; the message names the stage
    that overflowed or the output field that is not finite."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools and all else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for finite Python and numpy reals (Fractions too); False for bools and all else."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return real and math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def _is_real_pairs(value) -> bool:
    """True for a list of [x, mass] pairs of real numbers, the format of atoms and jumps."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(_is_real(v) for v in p)
        for p in value
    )


@dataclass
class DensityGrid:
    lo: float
    hi: float
    h: float
    values: np.ndarray
    # the Chebyshev moments of the grid's Cauchy sum, kept by transforms;
    # values are read-only, so they cannot go stale
    chebyshev_moments: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not (self.h > 0 and math.isfinite((self.hi - self.lo) / self.h)):
            raise MeasureError(f"grid needs finite lo, hi and a step h > 0, got h = {self.h}")
        n = int(round((self.hi - self.lo) / self.h)) + 1
        if n != len(self.values):
            raise MeasureError(
                f"grid expects {n} values for [{self.lo}, {self.hi}] step {self.h}, "
                f"got {len(self.values)}"
            )
        if np.any(self.values < -1e-12):
            raise MeasureError("density values must be nonnegative")
        self.values = np.clip(self.values, 0.0, None)
        self.values.flags.writeable = False

    def xs(self) -> np.ndarray:
        return self.lo + self.h * np.arange(len(self.values))

    def mass(self) -> float:
        return float(_trapezoid(self.values, dx=self.h))

    def integral(self, f) -> float:
        """Trapezoid integral of f against the density; f is called once on
        the node array and its values are taken as floats."""
        fx = np.asarray(f(self.xs()), dtype=float)
        return float(_trapezoid(fx * self.values, dx=self.h))

    @classmethod
    def from_function(cls, lo, hi, n_points, fn) -> "DensityGrid":
        xs = np.linspace(lo, hi, n_points)
        return cls(float(lo), float(hi), float(xs[1] - xs[0]), np.clip(fn(xs), 0, None))


def _exact_atom_moments(atoms, n: int):
    """sum(m * x**k) over the atoms for k = 1..n, or None unless every location
    and mass is an int or a Fraction."""
    types = {type(v) for atom in atoms for v in atom}
    if not types <= {int, Fraction}:
        return None
    q = math.lcm(*(x.denominator for x, _ in atoms))
    s = math.lcm(*(m.denominator for _, m in atoms))
    locs = [x.numerator * (q // x.denominator) for x, _ in atoms]
    powers = [m.numerator * (s // m.denominator) for _, m in atoms]
    out, den = [], s
    for _ in range(n):
        powers = [p * x for p, x in zip(powers, locs)]
        den *= q
        total = sum(powers)
        out.append(Fraction(total, den) if Fraction in types else total)
    return out


@dataclass
class GridMeasure:
    atoms: list = field(default_factory=list)
    grid: DensityGrid | None = None

    def __post_init__(self):
        cleaned = []
        for loc, mass in self.atoms:
            if mass < 0:
                raise MeasureError(f"negative atom mass {mass} at {loc}")
            if mass != 0:
                cleaned.append((loc, mass))
        cleaned.sort(key=lambda a: float(a[0]))
        self.atoms = cleaned

    @property
    def atom_mass(self):
        return sum((m for _, m in self.atoms), start=0)

    @property
    def total_mass(self) -> float:
        total = float(self.atom_mass)
        if self.grid is not None:
            total += self.grid.mass()
        return total

    def is_probability(self, tol=1e-6) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def integrate(self, f):
        """Integral of f: exact over atoms when locations/masses are exact."""
        total = sum((m * f(x) for x, m in self.atoms), start=0)
        if self.grid is not None:
            total = total + self.grid.integral(f)
        return total

    def moment(self, k: int):
        return self.integrate(lambda x: x**k)

    def moments(self, n: int) -> list:
        """[moment(k) for k in 1..n], `==` and of the same types; exact atoms
        take one pass (see the module docstring)."""
        exact = _exact_atom_moments(self.atoms, n)
        if exact is None:
            return [self.moment(k) for k in range(1, n + 1)]
        if self.grid is not None:
            exact = [
                total + self.grid.integral(lambda x, k=k: x**k)
                for k, total in enumerate(exact, 1)
            ]
        return exact

    def support_bounds(self):
        los, his = [], []
        if self.atoms:
            los.append(float(self.atoms[0][0]))
            his.append(float(self.atoms[-1][0]))
        if self.grid is not None:
            los.append(self.grid.lo)
            his.append(self.grid.hi)
        if not los:
            return (0.0, 0.0)
        return (min(los), max(his))

    def support_radius(self) -> float:
        lo, hi = self.support_bounds()
        return max(abs(lo), abs(hi))

    def shifted(self, c) -> "GridMeasure":
        atoms = [(x + c, m) for x, m in self.atoms]
        grid = None
        if self.grid is not None:
            grid = DensityGrid(
                self.grid.lo + float(c),
                self.grid.hi + float(c),
                self.grid.h,
                self.grid.values.copy(),
            )
        return GridMeasure(atoms, grid)

    def to_json(self) -> dict:
        out = {"atoms": [[float(x), float(m)] for x, m in self.atoms]}
        if self.grid is not None:
            out["grid"] = {
                "lo": self.grid.lo,
                "hi": self.grid.hi,
                "h": self.grid.h,
                "values": [float(v) for v in self.grid.values],
            }
        else:
            out["grid"] = None
        return out

    @classmethod
    def from_json(cls, data: dict, name: str = "measure") -> "GridMeasure":
        """The measure in `data`; a MeasureError names `name` and the bad key."""
        if not isinstance(data, dict):
            raise MeasureError(f"{name} must be a JSON object, got {data!r}")
        atoms, g = data.get("atoms", []), data.get("grid")
        if not _is_real_pairs(atoms):
            raise MeasureError(f"{name} atoms must be [x, mass] pairs of real numbers")
        grid = None
        if g is not None:
            values = g.get("values") if isinstance(g, dict) else None
            if not (isinstance(values, list) and all(
                _is_real(v) for v in [g.get("lo"), g.get("hi"), g.get("h"), *values]
            )):
                raise MeasureError(f"{name} grid must hold real lo, hi, h and values")
            grid = DensityGrid(g["lo"], g["hi"], g["h"], np.asarray(values))
        return cls([(x, m) for x, m in atoms], grid)


def point_mass(x, mass=1) -> GridMeasure:
    return GridMeasure([(x, mass)])


def two_point(a, b, pa, pb) -> GridMeasure:
    return GridMeasure([(a, pa), (b, pb)])


def bernoulli_symmetric() -> GridMeasure:
    """The measure (delta_-1 + delta_1) / 2."""
    from fractions import Fraction

    return two_point(-1, 1, Fraction(1, 2), Fraction(1, 2))


def semicircle(variance=1.0, n_points=4001, center=0.0) -> GridMeasure:
    """Semicircle law of the given variance, sampled on a uniform grid.

    The sampled values are rescaled so the trapezoid mass is exactly 1 (the
    raw rule loses O(h^1.5) mass at the square-root edges).
    """
    if variance <= 0:
        raise MeasureError("variance must be positive")
    r = 2.0 * math.sqrt(variance)

    def density(xs):
        inside = np.clip(r * r - (xs - center) ** 2, 0.0, None)
        return np.sqrt(inside) / (2.0 * math.pi * variance)

    grid = DensityGrid.from_function(center - r, center + r, n_points, density)
    grid = DensityGrid(grid.lo, grid.hi, grid.h, grid.values / grid.mass())
    return GridMeasure([], grid)


def semicircle_density(xs, variance=1.0, center=0.0) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    r2 = 4.0 * variance
    inside = np.clip(r2 - (xs - center) ** 2, 0.0, None)
    return np.sqrt(inside) / (2.0 * math.pi * variance)


def arcsine_density(xs, radius=2.0) -> np.ndarray:
    """Density of the arcsine law on (-radius, radius)."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    inside = np.abs(xs) < radius
    out[inside] = 1.0 / (math.pi * np.sqrt(radius**2 - xs[inside] ** 2))
    return out


__all__ = [
    "DensityGrid",
    "GridMeasure",
    "MeasureError",
    "NumericError",
    "arcsine_density",
    "bernoulli_symmetric",
    "point_mass",
    "semicircle",
    "semicircle_density",
    "two_point",
]
