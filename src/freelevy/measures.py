"""Finite measures on the line: point masses plus a sampled density grid.

Atom locations and masses are plain Python numbers and may be exact
(int/Fraction); operations that only touch atoms stay exact when the inputs
are exact. A measure reads numpy integers as Python ints when it is built,
so an atom's powers cannot wrap at 64 bits, and `_exact` reads them so for
every exact path of the library. Density values live on a uniform grid and
integrate by the trapezoid rule.

`GridMeasure.moments(n)` takes all n atom moments in one pass when every
atom location and mass is an int or a Fraction: with Q and S the lcm of the
location and the mass denominators, sum m x^k is the integer
sum (S m) (Q x)^k over S Q^k, and the integer powers are running products.
Order k is an int when every atom is, and a Fraction otherwise, as
`moment(k)` gives; the grid part is added per order as `moment(k)` adds it.
Atoms of any other type (a float, say) take `moment(k)` per order.

JSON schema (field names are part of the external interface):
{"atoms": [[x, m], ...], "grid": {"lo": ..., "hi": ..., "h": ..., "values": [...]}}
with "grid" null for purely atomic measures.
"""

from __future__ import annotations

import contextlib
import json
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


@contextlib.contextmanager
def _floats(what: str):
    """Run a stage (or, as a decorator, a function) with numpy's float warnings
    off; an OverflowError or ZeroDivisionError inside is a NumericError naming `what`."""
    with np.errstate(all="ignore"):
        try:
            yield
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericError(f"{what} the floats: {exc}") from None


def _rounded(values, what: str) -> list:
    """The exact `values` rounded once, the one exact-to-float rounding;
    `_floats(what)` reports an overflow."""
    with _floats(what):
        return [float(v) for v in values]


def _rounded_over(values, c: int, what: str) -> list:
    """The ints values[n-1] over c^n, each rounded once: int true division
    rounds correctly, as float() of the Fraction does; `_floats(what)`
    reports an overflow."""
    out, scale = [], 1
    with _floats(what):
        for value in values:
            scale *= c
            out.append(value / scale)
    return out


def _non_finite_field(value, path: str = "") -> str | None:
    """The path of the first non-finite float in a JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = ()
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    return next(filter(None, (_non_finite_field(item, sub) for sub, item in items)), None)


def dumps(payload) -> str:
    """Strict JSON of every output; a NumericError names the first non-finite field."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise NumericError(f"report field {_non_finite_field(payload)} is not finite") from None


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools and all else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, least: int, what: str, error, most: int | None = None) -> int:
    """value as an int when it is an integer in least..most, or >= least when
    most is None (Python and numpy ints, not bools); otherwise the caller's
    `error` class. The one check of a count, order, size or power."""
    if not (_is_integer(value) and least <= value and (most is None or value <= most)):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{what} must be an integer {span}, got {value!r}")
    return int(value)


def _integers(values, least: int, what: str, error) -> tuple:
    """values as a tuple of ints when they are a nonempty list or tuple of
    integers >= least; otherwise the caller's `error` class. The one check
    of a list of counts."""
    if not (isinstance(values, (list, tuple)) and values
            and all(_is_integer(v) and v >= least for v in values)):
        raise error(f"{what} must be a nonempty list of integers >= {least}, got {values!r}")
    return tuple(int(v) for v in values)


def _read(value):
    """value itself, but a numpy integer as a Python int, which cannot wrap at 64 bits."""
    if isinstance(value, (int, Fraction)) or not isinstance(value, numbers.Integral):
        return value
    return int(value)


def _exact(values) -> list | None:
    """values as a list of ints and Fractions, numpy integers read as ints
    (as `_read` reads them), or None when one is anything else, a float say.
    The one test of the exact paths."""
    out = []
    for v in values:
        if not isinstance(v, (int, Fraction)):
            if not isinstance(v, numbers.Integral):
                return None
            v = int(v)
        out.append(v)
    return out


def _is_real(value) -> bool:
    """True for finite Python and numpy reals (Fractions too); False for bools and all else."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return real and math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def _real(value, what: str, error):
    """value itself, so ints and Fractions stay exact, when `_is_real` holds;
    otherwise the caller's `error` class. The one check of a real parameter."""
    if not _is_real(value):
        raise error(f"{what} must be a finite real number, got {value!r}")
    return value


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
    # the nodes, trapezoid-weighted values and Chebyshev moments of the grid's
    # Cauchy sum, kept by transforms; values are read-only, so they cannot go stale
    kernel_constants: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        # a rounding floor relative to the largest value, so a dilation keeps the answer
        if np.any(self.values < -1e-12 * np.max(self.values, initial=0.0)):
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
        xs = np.linspace(lo, hi, _integer(n_points, 2, "n_points", MeasureError))
        return cls(float(lo), float(hi), float(xs[1] - xs[0]), np.clip(fn(xs), 0, None))


def _atom_power_sums(atoms, n: int) -> tuple:
    """(sums, s, q) for atoms whose locations and masses are ints and
    Fractions: with q and s the lcm of the location and the mass
    denominators, sum m x^k is sums[k-1] / (s q^k), sums[k-1] the integer
    sum (s m) (q x)^k, k = 1..n, and the integer powers are running products."""
    q = math.lcm(*(x.denominator for x, _ in atoms))
    s = math.lcm(*(m.denominator for _, m in atoms))
    locs = [x.numerator * (q // x.denominator) for x, _ in atoms]
    powers = [m.numerator * (s // m.denominator) for _, m in atoms]
    sums = []
    for _ in range(n):
        powers = [p * x for p, x in zip(powers, locs)]
        sums.append(sum(powers))
    return sums, s, q


def _exact_atom_moments(atoms, n: int):
    """sum(m * x**k) over a measure's atoms (numpy integers already read as
    ints) for k = 1..n, or None unless every location and mass is an int or
    a Fraction."""
    values = _exact(v for atom in atoms for v in atom)
    if values is None:
        return None
    sums, den, q = _atom_power_sums(atoms, n)
    if not any(isinstance(v, Fraction) for v in values):
        return sums
    out = []
    for total in sums:
        den *= q
        out.append(Fraction(total, den))
    return out


@dataclass
class GridMeasure:
    atoms: list = field(default_factory=list)
    grid: DensityGrid | None = None

    def __post_init__(self):
        cleaned = []
        for loc, mass in self.atoms:
            loc, mass = _read(loc), _read(mass)
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

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= 1e-6

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
        n = _integer(n, 0, "n", MeasureError)
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
    return two_point(-1, 1, Fraction(1, 2), Fraction(1, 2))


def semicircle(variance=1.0, n_points=4001, center=0.0) -> GridMeasure:
    """Semicircle law of the given variance, sampled on a uniform grid.

    The sampled values are rescaled so the trapezoid mass is exactly 1 (the
    raw rule loses O(h^1.5) mass at the square-root edges).
    """
    _real(center, "center", MeasureError)
    if _real(variance, "variance", MeasureError) <= 0:
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
