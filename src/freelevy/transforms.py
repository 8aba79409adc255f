"""Analytic machinery on measures: Cauchy/Voiculescu transforms, free additive
convolution by subordination, convolution powers, dilation, and moment-level
multiplicative convolution.

Numeric conventions, fixed here and relied on by the tests:

* G and G' are one sum over the measure: exact terms m / (z - x)^p over the
  atoms, and the trapezoid rule on the grid (which gives a one-node grid no
  weight). G's grid sum runs in real arithmetic: with u = Re z - x_j,
  b = Im z and r = w_j / (u^2 + b^2), G = sum u r - i b sum r. It runs
  where 1e-50 <= b <= 1e50 and every |u| <= 1e50 (KERNEL_RANGE), so that
  u^2 + b^2 can neither overflow nor underflow; any other point, and every
  point of G' (p = 2, no library caller), sums w_j / (z - x_j) (and that
  over z - x_j again for p = 2) in complex division, which numpy scales.
  Either way the sum matches the complex sum to 1e-13 relative to
  sum |w_j| / |z - x_j|^p.
* The (points x nodes) blocks of that sum hold at most KERNEL_CHUNK = 2^16
  elements (512 KiB of float64 per temporary, inside a core's L2), and
  every row is reduced by numpy's own row sum, never a BLAS product, whose
  summation order depends on the block's row count: so a point's G does not
  depend on the other points of the call, and a vector call equals the
  scalar calls bit for bit.
* G's grid sum (p = 1, not G') has a far field. With c and r the centre and
  half-width of the nodes, zeta = (z - c) / r, s = sqrt(zeta - 1) sqrt(zeta + 1)
  and q = 1 / (zeta + s), it is (2 / (r s)) (mu_0 / 2 + sum_k mu_k q^k), with
  the Chebyshev moments mu_k = sum_j w_j T_k((x_j - c) / r) of the weights
  (Olver & Nadakuditi, arXiv:1203.1958). The moments for k < CHEBYSHEV_TERMS
  = 192 are computed once per grid, with the nodes and the weighted values,
  and kept on it; grid values are read-only, so they cannot go stale. The
  dropped tail is at most
  2 (|zeta| + 1) |q|^K / (|s| (1 - |q|)) relative to sum |w_j| / |z - x_j|, and
  a point takes the expansion only where that is <= CHEBYSHEV_TOL = 1e-14,
  which leaves the rest of the 1e-13 to rounding. Points near the nodes, where
  |q| -> 1, atoms and G' keep the direct sum. The series is summed by
  Paterson & Stockmeyer's scheme (SIAM J. Comput. 1973): per block of
  points, the powers q^0 .. q^15 (15 complex products), every run of
  CHEBYSHEV_RUN = 16 real coefficients contracted against them in real
  arithmetic by a plain einsum, and the runs by Horner in q^16. The
  contraction is never a BLAS product, whose rounding can depend on the
  column count, and complex products run out of place, since numpy's
  in-place product can round differently by array length; a block's powers
  hold KERNEL_CHUNK floats.
* Stieltjes inversion evaluates G on the lines Im z in {1e-2, 5e-3, 2.5e-3}
  and Richardson-extrapolates to the real axis (the three-point rule kills
  the O(eps) and O(eps^2) terms); densities are clipped at zero and
  renormalized to the exact output mass, since the trapezoid rule alone
  loses O(h^(3/2)) mass at square-root edges. The subordination lines are
  solved down that ladder. The first line starts at z + i (span of the
  output points) / 8: the subordination map converges from any start in the
  upper half-plane (Belinschi & Bercovici, 2007), and from that height the
  first sweeps take G's far field instead of the direct sum. Each later
  line starts one Cauchy-Riemann step below the previous line's omega:
  omega is analytic in z, so d omega / dz = d omega / dx along a line, and
  the start is omega + i (eps - eps_prev) d omega / dx, with the derivative
  taken by np.gradient on the output points. A start below its line (as
  for some powers of heavier measures) is replaced by z; the densities
  match a cold start from w = z to 1e-7 of their maximum.
* One fixed-point solver, vectorised over points, serves every iteration:
  Steffensen acceleration with a half-step fallback when the extrapolated
  iterate misbehaves (the plain map stalls where its contraction factor
  degenerates to 1, e.g. at arcsine-type edges), to tolerance 1e-10.
  Subordination iterates the Pick-function fixed point in F-transform form.
  Non-convergence raises ConvergenceError naming the stage, the sweeps,
  the worst residual and its point.
* The Voiculescu transform solves F(w) = z as the fixed point of
  w -> z - h(w), h = F - id, so the stop test is the residual |z - F(w)|.
  Points with Im z >= 4x the support radius always converge; an iterate at
  Im w <= 3 grid steps, where the sampled G is not trusted, raises
  ConvergenceError.
* Convolution powers t < 1 exist here for cumulant lists and point masses
  only; any other measure raises ConvergenceError at once, pointing to
  cumulant mode.

Every density output (free convolutions, powers, stieltjes_density) goes
through one Richardson inversion. The moment-level free sum adds free
cumulants, and the free product solves the alternating-word system
A = 1 + R_a(zC), C = A R_b(zD) / (zD), D = A R_a(zC) / (zC) for
A_n = tau((ab)^n), C_g = tau(b (ab)^g) and D_h = tau(a (ba)^h) order by
order; neither has an order bound. On exact inputs both run on integer
cumulants (the sum on one factor for both laws, the product on one per
law) and divide each moment once, at the end.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .cumulants import (
    _dilation, _recursion, _scaled, _unscaled, cumulants_to_moments, moments_to_cumulants,
)
from .measures import DensityGrid, GridMeasure, MeasureError, _exact, _integer, _real, point_mass

INVERSION_EPSILONS = (1e-2, 5e-3, 2.5e-3)
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 500
KERNEL_CHUNK = 1 << 16  # elements of one (points x nodes) block of the grid sum
KERNEL_RANGE = (1e-50, 1e50)  # Im z and |Re z - x_j| whose squares stay well inside float range
CHEBYSHEV_TERMS = 192  # K, the terms of the grid sum's far-field expansion
CHEBYSHEV_RUN = 16  # terms per run, summed against the powers q^0 .. q^15
CHEBYSHEV_TOL = 1e-14  # its truncation bound, relative to sum |w_j| / |z - x_j|


class TransformError(ValueError):
    """Domain violation: point below the axis, invalid power, bad input kind."""


class ConvergenceError(RuntimeError):
    """A fixed-point iteration failed to converge or left the trusted half-plane."""


def _as_points(z):
    arr = np.asarray(z, dtype=complex)
    if np.any(arr.imag <= 0):
        raise TransformError("transform arguments must satisfy Im z > 0")
    return arr


def cauchy(mu: GridMeasure, z):
    """Cauchy transform G(z) = int d_mu(x) / (z - x), Im z > 0."""
    return _cauchy_sum(mu, z, 1)


def cauchy_derivative(mu: GridMeasure, z):
    """G'(z) = -int d_mu(x) / (z - x)^2, Im z > 0; a test oracle and a traced benchmark name."""
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
        accumulate(out, _trapz_kernel(mu.grid, pts, power), out=out)
    return out[0] if arr.ndim == 0 else out


def _kernel_constants(grid):
    """(xs, weighted, moments) of a grid of at least two nodes, computed on
    the first call and kept on the grid: the nodes, the values times the
    trapezoid weights (h inside, h/2 at the ends), and (c, r, runs), the
    centre c and half-width r of the nodes with the moments
    mu_k = sum_j w_j T_k(y_j), y_j = (x_j - c) / r, for k < CHEBYSHEV_TERMS,
    mu_0 halved, in rows of CHEBYSHEV_RUN."""
    if grid.kernel_constants is None:
        xs = grid.xs()
        h = xs[1] - xs[0]
        w = np.full(len(xs), h)
        w[0] = w[-1] = h / 2.0
        weighted = grid.values * w
        c, r = (xs[0] + xs[-1]) / 2.0, (xs[-1] - xs[0]) / 2.0
        y = np.clip((xs - c) / r, -1.0, 1.0)
        mu = np.empty(CHEBYSHEV_TERMS)
        mu[0] = weighted.sum() / 2.0
        t_prev, t = np.ones_like(y), y
        for k in range(1, CHEBYSHEV_TERMS):
            mu[k] = (weighted * t).sum()
            t_prev, t = t, 2.0 * y * t - t_prev
        grid.kernel_constants = (xs, weighted, (c, r, mu.reshape(-1, CHEBYSHEV_RUN)))
    return grid.kernel_constants


def _chebyshev_far_field(moments, z):
    """(take, g): the points z whose truncation bound holds, and the grid sum
    there from its Chebyshev expansion (see the module docstring)."""
    c, r, runs = moments
    with np.errstate(all="ignore"):  # points that overflow fail the bound
        zeta = (z - c) / r
        s = np.sqrt(zeta - 1.0) * np.sqrt(zeta + 1.0)
        q = 1.0 / (zeta + s)  # not zeta - s, which cancels far out
        aq = np.abs(q)
        bound = 2.0 * (np.abs(zeta) + 1.0) * aq**CHEBYSHEV_TERMS / (np.abs(s) * (1.0 - aq))
    take = (aq < 1.0) & (bound <= CHEBYSHEV_TOL)  # |q| rounds to 1 near the nodes
    q, s = q[take], s[take]
    series = np.empty(q.shape, dtype=complex)
    step = KERNEL_CHUNK // (2 * CHEBYSHEV_RUN)
    for i in range(0, len(q), step):
        qb = q[i : i + step]
        # the powers q^0 .. q^15, each one product out of place
        powers = np.empty((CHEBYSHEV_RUN, len(qb)), dtype=complex)
        powers[0] = 1.0
        powers[1] = qb
        for j in range(2, CHEBYSHEV_RUN):
            np.multiply(powers[j - 1], qb, out=powers[j])
        # every run against them in real arithmetic: a plain einsum sums each
        # column in one order whatever the column count, where BLAS need not
        acc = np.einsum("rj,jp->rp", runs, powers.view(float)).view(complex)
        # then the runs by Horner in q^CHEBYSHEV_RUN
        qrun, part = powers[-1] * qb, acc[-1]
        for row in acc[-2::-1]:
            part = part * qrun + row
        series[i : i + step] = part
    return take, 2.0 * series / (r * s)


def _trapz_kernel(grid, pts, power):
    """sum_j w_j / (z - x_j)^power over the trapezoid weights w_j, zero on a
    grid of one node. The nodes, weights and Chebyshev moments are computed
    once per grid (`_kernel_constants`). For power 1, points whose a-priori
    bound allows it take the Chebyshev expansion, and a call whose points
    all take it returns there; the other points inside KERNEL_RANGE are
    summed in real arithmetic on blocks of at most KERNEL_CHUNK elements,
    each row reduced by its own row sum; every other point divides in
    complex arithmetic (see the module docstring)."""
    if len(grid.values) < 2:
        return np.zeros(pts.shape, dtype=complex)
    xs, weighted, moments = _kernel_constants(grid)
    flat = pts.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    direct = np.ones(flat.shape, dtype=bool)
    if power == 1:
        take, g = _chebyshev_far_field(moments, flat)
        if take.all():
            return g.reshape(pts.shape)
        out[take] = g
        direct = ~take
    lo, hi = KERNEL_RANGE
    far = np.maximum(np.abs(flat.real - xs[0]), np.abs(flat.real - xs[-1]))
    real = (power == 1) & direct & (flat.imag >= lo) & (flat.imag <= hi) & (far <= hi)
    step = max(1, KERNEL_CHUNK // len(xs))
    # the blocks run inline, not in a helper: a block's temporaries are
    # freed only after the next block's exist, so glibc's malloc reuses them
    # instead of returning them to the system and faulting them in anew
    # (a helper per block doubled the time of a 600-point call at 4001 nodes)
    fast = flat[real]
    re, im = np.empty(fast.shape), np.empty(fast.shape)
    for i in range(0, len(fast), step):
        rows = slice(i, i + step)
        b = fast[rows].imag[:, None]
        u = fast[rows].real[:, None] - xs
        r = u * u
        r += b * b
        np.divide(weighted, r, out=r)
        im[rows] = -b[:, 0] * r.sum(axis=1)
        r *= u
        re[rows] = r.sum(axis=1)
    out[real] = re + 1j * im
    slow = np.flatnonzero(direct & ~real)
    for i in range(0, len(slow), step):
        rows = slow[i : i + step]
        d = flat[rows, None] - xs
        q = weighted / d
        out[rows] = (q if power == 1 else q / d).sum(axis=1)
    return out.reshape(pts.shape)


# -- fixed points: subordination and F-inversion ----------------------------


def _h_fun(mu, w):
    return 1.0 / cauchy(mu, w) - w


def _accelerated_fixed_point(step, z: np.ndarray, what: str, start=None):
    """Solve w = step(z, w) pointwise over z, to FIXED_POINT_TOL in w, from
    the first iterate `start` (z when None).

    Picard iteration with Steffensen (Aitken delta-squared) acceleration: the
    contraction factor of the plain map approaches 1 near density edges, so
    the plain iteration cannot reach 1e-10 in the iteration budget there,
    while the extrapolated step converges superlinearly. Accelerated iterates
    that leave the upper half-plane fall back to the plain (damped) step.
    Without convergence in FIXED_POINT_MAX_ITER sweeps, ConvergenceError
    names the stage, the sweeps, and the worst residual |w1 - w| / max(1, |w1|)
    of the last sweep with its point.
    """
    w = (z if start is None else start).astype(complex)
    active = np.ones(w.shape, dtype=bool)
    for _ in range(FIXED_POINT_MAX_ITER):
        wa = w[active]
        za = z[active]
        w1 = step(za, wa)
        resid = np.abs(w1 - wa)
        done = resid <= FIXED_POINT_TOL * np.maximum(1.0, np.abs(w1))
        idx = np.flatnonzero(active)
        w[idx[done]] = w1[done]
        # the Steffensen step only for the points still moving
        moving = ~done
        if moving.any():
            w0, w1m = wa[moving], w1[moving]
            w2 = step(za[moving], w1m)
            denom = w2 - 2.0 * w1m + w0
            safe = np.abs(denom) > 1e-280
            aitken = np.where(
                safe, w0 - (w1m - w0) ** 2 / np.where(safe, denom, 1.0), w2
            )
            # damp oscillation / bad extrapolation back to the plain iterate
            w[idx[moving]] = np.where(aitken.imag > 0, aitken, (w2 + w1m) / 2.0)
        active[idx[done]] = False
        if not active.any():
            return w
    scaled = np.where(done, -np.inf, resid / np.maximum(1.0, np.abs(w1)))
    worst = int(np.argmax(scaled))
    raise ConvergenceError(
        f"{what} did not converge after {FIXED_POINT_MAX_ITER} sweeps "
        f"(residual {scaled[worst]:.2g}) at z = {za[worst]}"
    )


def _subordination_pair(mu, nu, z: np.ndarray, start=None):
    """omega_1(z) for mu in the convolution mu [+] nu, vectorized over z.

    The fixed point of w -> z + h_nu(z + h_mu(w)); the map sends the upper
    half-plane to itself and has a unique attracting fixed point for
    Im z > 0.
    """

    def step(za, wa):
        return za + _h_fun(nu, za + _h_fun(mu, wa))

    return _accelerated_fixed_point(step, z, "subordination fixed point", start)


def voiculescu(mu: GridMeasure, z):
    """phi(z) = F^(-1)(z) - z, with F^(-1)(z) the fixed point of w -> z - h(w)."""
    arr = _as_points(z)
    pts = np.atleast_1d(arr)
    # below ~3 grid steps the trapezoid-sampled G wiggles between nodes and
    # grows spurious roots of F(w) = z, so the iterate must stay above that
    floor = 3.0 * mu.grid.h if mu.grid is not None else 0.0

    def step(za, wa):
        # the returned iterate is checked too: a converged one is not fed back
        w = za - _h_fun(mu, wa)
        low = (wa.imag <= floor) | (w.imag <= floor)
        if low.any():
            raise ConvergenceError(
                f"F-inversion left the resolved upper half-plane at z = {za[low][0]}"
            )
        return w

    phi = _accelerated_fixed_point(step, pts, "F-inversion") - pts
    return complex(phi[0]) if arr.ndim == 0 else phi


def inversion_cone_height(mu: GridMeasure) -> float:
    """Height at and above which voiculescu always converges; below it the map
    w -> z - h(w) need not contract, and a point may raise ConvergenceError."""
    return 4.0 * mu.support_radius()


def _stieltjes_inversion(mu, xs, subordinate=None):
    """Density at the real points xs from G(z) = G_mu(omega(z)) on the lines
    z = x + i eps, with omega = subordinate(z, start) or, without one, z.

    The lines are solved down the ladder INVERSION_EPSILONS. The first line
    starts every point at z + i (xs[-1] - xs[0]) / 8: the subordination map
    converges from any start in the upper half-plane (Belinschi & Bercovici,
    2007), and a start that far above the nodes, a fixed share of their span
    so that the rule is scale-covariant, lets the first sweeps take G's far
    field where a start at z, eps above the axis, needs the direct sum.
    Each later line starts at omega_prev + i (eps - eps_prev) d omega / dx,
    the previous line's omega moved by its first-order Taylor step, since
    d omega / dz = d omega / dx by Cauchy-Riemann; the derivative is
    np.gradient of omega_prev on xs, dimensionless, so the rule stays
    scale-covariant, and costs no evaluation of G. A point whose start falls
    below its line starts from z.
    -Im G / pi is Richardson-extrapolated to eps -> 0 and clipped at zero.
    """
    lines, omega, prev = [], None, None
    for eps in INVERSION_EPSILONS:
        zs = xs + 1j * eps
        if subordinate is None:
            omega = zs
        else:
            if omega is None:
                start = zs + 1j * (xs[-1] - xs[0]) / 8.0
            else:
                start = omega + 1j * (eps - prev) * np.gradient(omega, xs)
                start = np.where(start.imag >= eps, start, zs)
            omega = subordinate(zs, start)
        lines.append(-cauchy(mu, omega).imag / math.pi)
        prev = eps
    f1, f2, f3 = lines
    return np.clip((8.0 * f3 - 6.0 * f2 + f1) / 3.0, 0.0, None)


def _density_measure(mu, subordinate, lo, hi, n_points, target_mass) -> GridMeasure:
    """Invert G_mu(omega(z)) on n_points uniform nodes over [lo, hi], rescaled to target_mass."""
    xs = np.linspace(lo, hi, n_points)
    dens = _stieltjes_inversion(mu, xs, subordinate)
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


def free_convolve(mu: GridMeasure, nu: GridMeasure, n_points: int = 3001) -> GridMeasure:
    """Free additive convolution of two probability measures.

    Subordination fixed point along the lines z = x + i eps, then Stieltjes
    inversion with Richardson extrapolation. The output grid covers the sum
    of the supports. A single point mass shifts the other measure exactly.
    """
    n_points = _integer(n_points, 2, "n_points", TransformError)
    for m in (mu, nu):
        if not m.is_probability():
            raise TransformError("free_convolve expects probability measures")
    atom = _is_point_mass(mu)
    if atom is not None:
        return nu.shifted(atom[0])
    atom = _is_point_mass(nu)
    if atom is not None:
        return mu.shifted(atom[0])

    lo = mu.support_bounds()[0] + nu.support_bounds()[0]
    hi = mu.support_bounds()[1] + nu.support_bounds()[1]
    pad = 0.05 * (hi - lo) + 0.25

    subordinate = functools.partial(_subordination_pair, mu, nu)
    return _density_measure(mu, subordinate, lo - pad, hi + pad, n_points, 1.0)


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
    n_points = _integer(n_points, 2, "n_points", TransformError)
    if _real(t, "power", TransformError) <= 0:
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

    subordinate = functools.partial(_subordination_power, obj, t)
    return _density_measure(obj, subordinate, glo, ghi, n_points, mass**t if mass != 1.0 else 1.0)


def _subordination_power(mu, t, z: np.ndarray, start=None):
    """omega with F_t(z) = F_mu(omega): omega = z/t + (1 - 1/t) F_mu(omega)."""

    def step(za, wa):
        return za / t + (1.0 - 1.0 / t) / cauchy(mu, wa)

    return _accelerated_fixed_point(step, z, "power subordination", start)


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
    """First n moments tau((ab)^m) of the product ab of free a, b.

    For a >= 0 these are the moments of a^(1/2) b a^(1/2). They solve the
    alternating-word system of `_alternating_moments` on the free cumulants
    of a and b: integers c_a^s kappa_s(a) and c_b^s kappa_s(b) when every
    moment is an int or a Fraction, with moment m divided once by
    (c_a c_b)^m, and the cumulants as the conversions give them otherwise.
    Exact for exact inputs, with no bound on n.
    """
    ma, mb, n = list(ma), list(mb), _integer(n, 1, "n", TransformError)
    if len(ma) < n or len(mb) < n:
        raise TransformError("need at least n moments of each factor")
    ma, mb = ma[:n], mb[:n]
    exact_a, exact_b = _exact(ma), _exact(mb)
    if exact_a is None or exact_b is None:
        return _alternating_moments(moments_to_cumulants(ma), moments_to_cumulants(mb))
    (sa, ca, fa), (sb, cb, fb) = _scaled(exact_a), _scaled(exact_b)
    moments = _alternating_moments(_recursion(sa, True), _recursion(sb, True))
    return _unscaled(moments, ca * cb, min(fa, fb))


def _alternating_moments(ka, kb) -> list:
    """A_1..A_n, A_m = tau((ab)^m), for free a and b with the free cumulants
    ka and kb, n of each (Nica & Speicher, Lectures on the Combinatorics of
    Free Probability, Lecture 14).

    With C_g = tau(b (ab)^g) and D_h = tau(a (ba)^h), the block of a word's
    first letter gives A = 1 + R_a(zC), C = A R_b(zD) / (zD) and
    D = A R_a(zC) / (zC): the gaps of a block of a are words b (ab)^g and
    those of a block of b words a (ba)^h, and a tail (ba)^t is worth A_t,
    the state being tracial. So with E = R_a(zC) / (zC) and
    F = R_b(zD) / (zD), order j takes E_j and F_j from the powers of C and D
    to z^(j-1), then C_j, D_j and A_(j+1), as `_recursion` does. It adds and
    multiplies only, so integer cumulants give integer moments.
    """
    a_moments, c_series, d_series, e_series, f_series = [1], [], [], [], []
    c_powers, d_powers = [[1]], [[1]]  # [z^i] C^t and [z^i] D^t, by t
    for j in range(len(ka)):
        for series, powers in ((c_series, c_powers), (d_series, d_powers)):
            if j:
                powers[0].append(0)
                powers.append([])
            for t in range(1, j + 1):
                i = j - t
                powers[t].append(sum(map(operator.mul, series[: i + 1], powers[t - 1][i::-1])))
        e_series.append(sum(ka[t] * c_powers[t][j - t] for t in range(j + 1)))
        f_series.append(sum(kb[t] * d_powers[t][j - t] for t in range(j + 1)))
        c_series.append(sum(map(operator.mul, a_moments, reversed(f_series))))
        d_series.append(sum(map(operator.mul, a_moments, reversed(e_series))))
        a_moments.append(sum(map(operator.mul, c_series, reversed(e_series))))
    return a_moments[1:]


def free_convolve_moments(ma, mb, n: int) -> list:
    """First n moments of a + b for free a, b: free cumulants add, so these are
    cumulants_to_moments(kappa(a) + kappa(b)). When every moment is an int or
    a Fraction, both laws are scaled by one factor c (den(m_j) | c^j for
    each), their integer cumulants added and moment j divided once by c^j.
    Exact for exact inputs, no bound on n."""
    ma, mb, n = list(ma), list(mb), _integer(n, 1, "n", TransformError)
    if len(ma) < n or len(mb) < n:
        raise TransformError("need at least n moments of each summand")
    ma, mb = ma[:n], mb[:n]
    exact_a, exact_b = _exact(ma), _exact(mb)
    if exact_a is None or exact_b is None:
        ka, kb = moments_to_cumulants(ma), moments_to_cumulants(mb)
        return cumulants_to_moments([x + y for x, y in zip(ka, kb)])
    c = math.lcm(_dilation(exact_a), _dilation(exact_b))
    (sa, _, fa), (sb, _, fb) = _scaled(exact_a, c), _scaled(exact_b, c)
    kappas = [x + y for x, y in zip(_recursion(sa, True), _recursion(sb, True))]
    return _unscaled(_recursion(kappas, False), c, min(fa, fb))


def stieltjes_density(mu: GridMeasure, xs) -> np.ndarray:
    """Recover a density from a measure through its own Cauchy transform."""
    return _stieltjes_inversion(mu, np.asarray(xs, dtype=float))


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
