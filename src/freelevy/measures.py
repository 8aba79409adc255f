"""Finite measures on the line: point masses plus a sampled density grid.

Atom locations and masses are plain Python numbers and may be exact
(int/Fraction); operations that only touch atoms stay exact when the inputs
are exact. Density values live on a uniform grid and integrate by the
trapezoid rule.

JSON schema (field names are part of the external interface):
{"atoms": [[x, m], ...], "grid": {"lo": ..., "hi": ..., "h": ..., "values": [...]}}
with "grid" null for purely atomic measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class MeasureError(ValueError):
    """Malformed measure data (negative mass, inconsistent grid)."""


@dataclass
class DensityGrid:
    lo: float
    hi: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = int(round((self.hi - self.lo) / self.h)) + 1
        if n != len(self.values):
            raise MeasureError(
                f"grid expects {n} values for [{self.lo}, {self.hi}] step {self.h}, "
                f"got {len(self.values)}"
            )
        if np.any(self.values < -1e-12):
            raise MeasureError("density values must be nonnegative")
        self.values = np.clip(self.values, 0.0, None)

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
        return [self.moment(k) for k in range(1, n + 1)]

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
    def from_json(cls, data: dict) -> "GridMeasure":
        atoms = [(x, m) for x, m in data.get("atoms", [])]
        grid = None
        if data.get("grid") is not None:
            g = data["grid"]
            grid = DensityGrid(g["lo"], g["hi"], g["h"], np.asarray(g["values"]))
        return cls(atoms, grid)


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
    "arcsine_density",
    "bernoulli_symmetric",
    "point_mass",
    "semicircle",
    "semicircle_density",
    "two_point",
]
