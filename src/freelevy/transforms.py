"""Analytic machinery on measures: Cauchy/Voiculescu transforms, free additive
convolution by subordination, convolution powers, dilation, and moment-level
multiplicative convolution.

Numeric conventions, fixed here and relied on by the tests:

* Stieltjes inversion evaluates G on the lines Im z in {1e-2, 5e-3, 2.5e-3}
  and Richardson-extrapolates to the real axis (the three-point rule kills
  the O(eps) and O(eps^2) terms); densities are clipped at zero and
  renormalized to the exact output mass, since the trapezoid rule alone
  loses O(h^(3/2)) mass at square-root edges.
* Subordination iterates the Pick-function fixed point in F-transform form
  to tolerance 1e-10, with Steffensen acceleration and a half-step fallback
  when the extrapolated iterate misbehaves (the plain map stalls where its
  contraction factor degenerates to 1, e.g. at arcsine-type edges).
* The Newton inversion behind the Voiculescu transform accepts any point it
  can invert to residual 1e-10; points with Im z >= 4x the support radius
  are always safe, and non-convergence elsewhere raises ConvergenceError.
* Convolution powers t < 1 exist here for cumulant lists and point masses
  only; any other measure raises ConvergenceError at once, pointing to
  cumulant mode.

G and G' are one sum over the measure, and every density output (free
convolutions, powers, stieltjes_density) goes through one Richardson
inversion.
"""

from __future__ import annotations

import math

import numpy as np

from .cumulants import moments_to_cumulants
from .measures import DensityGrid, GridMeasure, MeasureError, point_mass
from .partitions import enumerate_nc, kreweras

INVERSION_EPSILONS = (1e-2, 5e-3, 2.5e-3)
SUBORDINATION_TOL = 1e-10
SUBORDINATION_MAX_ITER = 500
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 200
FREE_MULTIPLY_BOUND = 8


class TransformError(ValueError):
    """Domain violation: point below the axis, invalid power, bad input kind."""


class ConvergenceError(RuntimeError):
    """A fixed point or Newton iteration failed to converge."""


def _as_points(z):
    arr = np.asarray(z, dtype=complex)
    if np.any(arr.imag <= 0):
        raise TransformError("transform arguments must satisfy Im z > 0")
    return arr


def cauchy(mu: GridMeasure, z):
    """Cauchy transform G(z) = int d_mu(x) / (z - x), Im z > 0."""
    return _cauchy_sum(mu, z, 1)


def cauchy_derivative(mu: GridMeasure, z):
    """G'(z) = -int d_mu(x) / (z - x)^2, Im z > 0."""
    return _cauchy_sum(mu, z, 2)


def _cauchy_sum(mu: GridMeasure, z, power):
    """G(z) for power 1 and G'(z) for power 2: the terms m / (z - x)^power
    (exact over atoms, trapezoid rule on the grid) are added for G and
    subtracted for G'."""
    accumulate = np.add if power == 1 else np.subtract
    arr = _as_points(z)
    pts = np.atleast_1d(arr)
    out = np.zeros(pts.shape, dtype=complex)
    for x, m in mu.atoms:
        accumulate(out, float(m) / (pts - float(x)) ** power, out=out)
    if mu.grid is not None:
        accumulate(out, _trapz_kernel(mu.grid.values, mu.grid.xs(), pts, power), out=out)
    return out[0] if arr.ndim == 0 else out


def _trapz_kernel(vals, xs, pts, power):
    # trapezoid weights: h inside, h/2 at the ends
    h = xs[1] - xs[0] if len(xs) > 1 else 1.0
    w = np.full(len(xs), h)
    w[0] = w[-1] = h / 2.0
    weighted = vals * w
    # chunk over evaluation points to bound the temporary matrix size
    out = np.empty(pts.shape, dtype=complex)
    flat = pts.reshape(-1)
    res = out.reshape(-1)
    step = max(1, int(4_000_000 / max(len(xs), 1)))
    for i in range(0, len(flat), step):
        diff = flat[i : i + step, None] - xs[None, :]
        res[i : i + step] = (weighted[None, :] / diff**power).sum(axis=1)
    return out


def voiculescu(mu: GridMeasure, z):
    """phi(z) = F^(-1)(z) - z, by Newton iteration on F(w) = z from w0 = z."""
    arr = _as_points(z)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr).reshape(-1)
    out = np.empty(pts.shape, dtype=complex)
    for i, zi in enumerate(pts):
        out[i] = _invert_f(mu, zi) - zi
    if scalar:
        return complex(out[0])
    return out.reshape(np.atleast_1d(arr).shape)


def _invert_f(mu: GridMeasure, z: complex) -> complex:
    # below ~3 grid steps the trapezoid-sampled G wiggles between nodes and
    # grows spurious roots of F(w) = z, so the iterate must stay above that
    floor = 3.0 * mu.grid.h if mu.grid is not None else 0.0
    w = z
    for _ in range(NEWTON_MAX_ITER):
        g = cauchy(mu, w)
        f = 1.0 / g
        residual = f - z
        if abs(residual) <= NEWTON_TOL:
            return w
        fprime = -cauchy_derivative(mu, w) / g**2
        step = residual / fprime
        # keep the iterate in the trusted part of the upper half-plane
        for _ in range(60):
            if (w - step).imag > floor:
                break
            step /= 2.0
        else:
            raise ConvergenceError(
                f"F-inversion left the resolved upper half-plane at z = {z}"
            )
        w = w - step
    raise ConvergenceError(
        f"F-inversion did not reach residual {NEWTON_TOL} at z = {z} "
        "(point outside the inversion cone)"
    )


def inversion_cone_height(mu: GridMeasure) -> float:
    """Height above which the Newton inversion of F is always safe."""
    return 4.0 * mu.support_radius()


# -- subordination ------------------------------------------------------------


def _h_fun(mu, w):
    return 1.0 / cauchy(mu, w) - w


def _accelerated_fixed_point(step, z: np.ndarray, what: str):
    """Solve w = step(z, w) pointwise over z, to SUBORDINATION_TOL in w.

    Picard iteration with Steffensen (Aitken delta-squared) acceleration: the
    contraction factor of the plain map approaches 1 near density edges, so
    the plain iteration cannot reach 1e-10 in the iteration budget there,
    while the extrapolated step converges superlinearly. Accelerated iterates
    that leave the upper half-plane fall back to the plain (damped) step.
    """
    w = z.astype(complex).copy()
    active = np.ones(w.shape, dtype=bool)
    for _ in range(SUBORDINATION_MAX_ITER):
        wa = w[active]
        za = z[active]
        w1 = step(za, wa)
        resid = np.abs(w1 - wa)
        done = resid <= SUBORDINATION_TOL * np.maximum(1.0, np.abs(w1))
        w2 = step(za, w1)
        denom = w2 - 2.0 * w1 + wa
        safe = np.abs(denom) > 1e-280
        aitken = np.where(
            safe, wa - (w1 - wa) ** 2 / np.where(safe, denom, 1.0), w2
        )
        # damp oscillation / bad extrapolation back to the plain iterate
        aitken = np.where(aitken.imag > 0, aitken, (w2 + w1) / 2.0)
        w[active] = np.where(done, w1, aitken)
        idx = np.flatnonzero(active)
        active[idx[done]] = False
        if not active.any():
            return w
    bad = np.flatnonzero(active)[0]
    raise ConvergenceError(
        f"{what} did not converge at z = {z.reshape(-1)[bad]}"
    )


def _subordination_pair(mu, nu, z: np.ndarray):
    """omega_1(z) for mu in the convolution mu [+] nu, vectorized over z.

    The fixed point of w -> z + h_nu(z + h_mu(w)); the map sends the upper
    half-plane to itself and has a unique attracting fixed point for
    Im z > 0.
    """

    def step(za, wa):
        return za + _h_fun(nu, za + _h_fun(mu, wa))

    return _accelerated_fixed_point(step, z, "subordination fixed point")


def _stieltjes_inversion(evaluate_g, xs):
    """Density at the real points xs from G on the lines x + i eps.

    -Im G(x + i eps)/pi over the halving ladder INVERSION_EPSILONS is
    Richardson-extrapolated to eps -> 0 and clipped at zero.
    """
    f1, f2, f3 = [-(evaluate_g(xs + 1j * eps).imag) / math.pi for eps in INVERSION_EPSILONS]
    return np.clip((8.0 * f3 - 6.0 * f2 + f1) / 3.0, 0.0, None)


def _density_measure(evaluate_g, lo, hi, n_points, target_mass) -> GridMeasure:
    """Invert G on n_points uniform nodes over [lo, hi], rescaled to target_mass."""
    xs = np.linspace(lo, hi, n_points)
    dens = _stieltjes_inversion(evaluate_g, xs)
    grid = DensityGrid(float(xs[0]), float(xs[-1]), float(xs[1] - xs[0]), dens)
    got = grid.mass()
    if got <= 0:
        raise ConvergenceError("Stieltjes inversion produced an empty density")
    grid = DensityGrid(grid.lo, grid.hi, grid.h, grid.values * (target_mass / got))
    return GridMeasure([], grid)


def _is_point_mass(mu: GridMeasure):
    if mu.grid is None and len(mu.atoms) == 1:
        return mu.atoms[0]
    if mu.grid is not None and len(mu.atoms) == 1 and mu.grid.mass() < 1e-15:
        return mu.atoms[0]
    return None


def free_convolve(
    mu: GridMeasure, nu: GridMeasure, n_points: int = 3001, pad: float = None
) -> GridMeasure:
    """Free additive convolution of two probability measures.

    Subordination fixed point along the lines z = x + i eps, then Stieltjes
    inversion with Richardson extrapolation. The output grid covers the sum
    of the supports. A single point mass shifts the other measure exactly.
    """
    for m in (mu, nu):
        if not m.is_probability(tol=1e-6):
            raise TransformError("free_convolve expects probability measures")
    atom = _is_point_mass(mu)
    if atom is not None:
        return nu.shifted(atom[0])
    atom = _is_point_mass(nu)
    if atom is not None:
        return mu.shifted(atom[0])

    lo = mu.support_bounds()[0] + nu.support_bounds()[0]
    hi = mu.support_bounds()[1] + nu.support_bounds()[1]
    if pad is None:
        pad = 0.05 * (hi - lo) + 0.25

    def g_out(zs):
        omega = _subordination_pair(mu, nu, zs)
        return cauchy(mu, omega)

    return _density_measure(g_out, lo - pad, hi + pad, n_points, 1.0)


def boxplus_power(obj, t, infinitely_divisible: bool = False, n_points: int = 3001):
    """Free convolution power: cumulant sequences scale, measures re-invert.

    t >= 1 is always admissible; t < 1 requires the caller to assert
    infinite divisibility via the flag, and is computed for cumulant lists
    and point masses only. Any other measure raises ConvergenceError at
    once: it would need phi continued below the image of F, which a sampled
    measure cannot supply, and a boxplus-infinitely divisible law has at most
    one atom (Bercovici & Voiculescu, 1998), so no law with several atoms
    meets the flag's precondition.
    """
    if t <= 0:
        raise TransformError(f"power must be positive, got {t}")
    if t < 1 and not infinitely_divisible:
        raise TransformError(
            "t < 1 requires the infinitely_divisible flag (caller's assertion)"
        )
    if isinstance(obj, (list, tuple)):
        return type(obj)(t * k for k in obj)
    if not isinstance(obj, GridMeasure):
        raise TransformError(f"unsupported operand {type(obj).__name__}")
    if t == 1:
        return GridMeasure(list(obj.atoms), obj.grid)
    atom = _is_point_mass(obj)
    if atom is not None:
        return point_mass(atom[0] * t, atom[1])
    if t < 1:
        raise ConvergenceError(
            f"the boxplus power t = {t} < 1 of a measure that is not a point mass "
            "needs phi below the image of F; use cumulant mode for t < 1"
        )

    lo, hi = obj.support_bounds()
    span = hi - lo
    glo = min(lo, t * lo) - 0.05 * span - 0.25
    ghi = max(hi, t * hi) + 0.05 * span + 0.25
    mass = obj.total_mass

    def g_out(zs):
        return cauchy(obj, _subordination_power(obj, t, zs))

    return _density_measure(g_out, glo, ghi, n_points, mass**t if mass != 1.0 else 1.0)


def _subordination_power(mu, t, z: np.ndarray):
    """omega with F_t(z) = F_mu(omega): omega = z/t + (1 - 1/t) F_mu(omega)."""

    def step(za, wa):
        return za / t + (1.0 - 1.0 / t) / cauchy(mu, wa)

    return _accelerated_fixed_point(step, z, "power subordination")


def dilate(mu: GridMeasure, s) -> GridMeasure:
    """Pushforward under x -> s x, mapping m_k to s^k m_k."""
    if s == 0:
        return point_mass(0, mu.total_mass)
    atoms = [(x * s, m) for x, m in mu.atoms]
    grid = None
    if mu.grid is not None:
        sf = float(s)
        vals = mu.grid.values / abs(sf)
        lo, hi = mu.grid.lo * sf, mu.grid.hi * sf
        if sf < 0:
            lo, hi = hi, lo
            vals = vals[::-1]
        grid = DensityGrid(lo, hi, abs(sf) * mu.grid.h, vals)
    return GridMeasure(atoms, grid)


def free_multiply_moments(ma, mb, n: int) -> list:
    """First n moments of a b for free a, b (a supported on the positive axis).

    m_n(ab) = sum over NC(n) of kappa_pi(a) * m_(K(pi))(b), with K the
    Kreweras complement; exact for exact inputs.
    """
    if n > FREE_MULTIPLY_BOUND:
        raise TransformError(f"free_multiply_moments bound is n <= {FREE_MULTIPLY_BOUND}")
    ma, mb = list(ma), list(mb)
    if len(ma) < n or len(mb) < n:
        raise TransformError("need at least n moments of each factor")
    ka = moments_to_cumulants(ma[:n])
    out = []
    for order in range(1, n + 1):
        total = 0
        for pi in enumerate_nc(order):
            term = 1
            for block in pi.blocks:
                term = term * ka[len(block) - 1]
            if term == 0:
                continue
            for block in kreweras(pi).blocks:
                term = term * mb[len(block) - 1]
            total = total + term
        out.append(total)
    return out


def free_convolve_moments(ma, mb, n: int) -> list:
    """First n moments of a + b for free a, b, via the joint word expansion.

    Expands (a+b)^n into words and evaluates each word with the free joint
    moment functional, so the result is independent of cumulant additivity
    (which the tests then verify against it).
    """
    from .cumulants import free_joint_functional

    ma, mb = list(ma), list(mb)
    if len(ma) < n or len(mb) < n:
        raise TransformError("need at least n moments of each summand")
    tau = free_joint_functional({"a": ma[:n], "b": mb[:n]})
    out = []
    import itertools

    for order in range(1, n + 1):
        total = 0
        for word in itertools.product("ab", repeat=order):
            total = total + tau(word)
        out.append(total)
    return out


def stieltjes_density(mu: GridMeasure, xs) -> np.ndarray:
    """Recover a density from a measure through its own Cauchy transform."""
    return _stieltjes_inversion(lambda zs: cauchy(mu, zs), np.asarray(xs, dtype=float))


__all__ = [
    "ConvergenceError",
    "GridMeasure",
    "DensityGrid",
    "MeasureError",
    "INVERSION_EPSILONS",
    "TransformError",
    "boxplus_power",
    "cauchy",
    "cauchy_derivative",
    "dilate",
    "free_convolve",
    "free_convolve_moments",
    "free_multiply_moments",
    "inversion_cone_height",
    "point_mass",
    "stieltjes_density",
    "voiculescu",
]
