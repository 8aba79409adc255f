"""Reference computations made apart from freelevy.

Every workload checks the library's outputs against these: closed forms
(Catalan and Narayana moments, semicircle / free Poisson / arcsine
densities), an O(n^3) recursion from the functional equation
M(z) = 1 + sum_n kappa_n z^n M(z)^n, the S-transform for free products, the
subordination cubic of Bernoulli [+] semicircle, and the Helton-Rashidi
Far-Speicher fixed point for operator-valued semicircular elements. None of
this imports freelevy, so a fault in the library cannot hide in its own
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# -- moment / cumulant combinatorics -------------------------------------------


def _power_table(moments):
    """pow[s][j] = [z^j] M(z)^s for M = 1 + sum m_i z^i, s, j = 0..n."""
    n = len(moments)
    m = [1] + list(moments)
    table = [[1] + [0] * n]
    for s in range(1, n + 1):
        prev = table[-1]
        table.append([sum(m[i] * prev[j - i] for i in range(j + 1)) for j in range(n + 1)])
    return table


def cumulants_to_moments(kappas) -> list:
    """m_1..m_n from kappa_1..kappa_n by m_n = sum_s kappa_s [z^(n-s)] M^s."""
    kappas = list(kappas)
    n = len(kappas)
    m = [1] + [0] * n
    # table[s][j] = [z^j] M^s, filled one degree j at a time as m_j appears
    table = [[1] + [0] * n] + [[1] + [0] * n for _ in range(n)]
    for order in range(1, n + 1):
        m[order] = sum(kappas[s - 1] * table[s][order - s] for s in range(1, order + 1))
        for s in range(1, n + 1):
            table[s][order] = sum(m[i] * table[s - 1][order - i] for i in range(order + 1))
    return m[1:]


def moments_to_cumulants(moments) -> list:
    """Inverse of cumulants_to_moments: kappa_n = m_n - sum_(s<n) kappa_s [z^(n-s)] M^s."""
    moments = list(moments)
    table = _power_table(moments)
    kappas = []
    for order in range(1, len(moments) + 1):
        rest = sum(kappas[s - 1] * table[s][order - s] for s in range(1, order))
        kappas.append(moments[order - 1] - rest)
    return kappas


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def semicircle_moments(variance, n: int) -> list:
    """m_(2j) = Catalan(j) variance^j, odd moments zero."""
    return [0 if k % 2 else catalan(k // 2) * variance ** (k // 2) for k in range(1, n + 1)]


def free_poisson_moments(lam, n: int) -> list:
    """Narayana polynomials: m_k = sum_j N(k, j) lam^j, N(k, j) = C(k,j) C(k,j-1) / k."""
    return [
        sum(Fraction(math.comb(k, j) * math.comb(k, j - 1), k) * lam**j for j in range(1, k + 1))
        for k in range(1, n + 1)
    ]


def add_free_moments(ma, mb) -> list:
    """Moments of a + b for free a, b: cumulants add."""
    ka, kb = moments_to_cumulants(ma), moments_to_cumulants(mb)
    return cumulants_to_moments([x + y for x, y in zip(ka, kb)])


def _series_mul(a, b, n):
    """Product of coefficient lists (index = degree), truncated at degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def _series_inverse(f, n):
    """Compositional inverse g of f = f_1 z + f_2 z^2 + ... to degree n."""
    g = [0, Fraction(1) / f[1]] + [0] * (n - 1)
    for k in range(2, n + 1):
        acc, power = 0, g[:]
        for j in range(2, k + 1):
            power = _series_mul(power, g, n) if j > 2 else _series_mul(g, g, n)
            acc += f[j] * power[k]
        g[k] = -acc / f[1]
    return g


def multiply_free_moments(ma, mb, n: int) -> list:
    """Moments of a b for free a, b (m_1 != 0) through the S-transform.

    psi(z) = sum m_k z^k, chi = psi^(-1), and chi_ab(z) = chi_a(z) chi_b(z) (1 + z) / z.
    """
    psi_a = [0] + [Fraction(x) for x in ma[:n]]
    psi_b = [0] + [Fraction(x) for x in mb[:n]]
    chi_a, chi_b = _series_inverse(psi_a, n), _series_inverse(psi_b, n)
    prod = _series_mul(chi_a, chi_b, n + 1)  # starts at z^2
    shifted = [0] + [prod[j + 1] + prod[j] for j in range(1, n + 1)]
    return _series_inverse(shifted, n)[1:]


def mixed_cumulant_of_powers(powers, moments):
    """Free cumulant kappa(X^u1, ..., X^uk) for k = 2 or 3 by the textbook formulas."""
    m = lambda *us: moments[sum(us) - 1]  # noqa: E731
    if len(powers) == 2:
        a, b = powers
        return m(a, b) - m(a) * m(b)
    a, b, c = powers
    return (
        m(a, b, c) - m(a) * m(b, c) - m(a, b) * m(c) - m(a, c) * m(b)
        + 2 * m(a) * m(b) * m(c)
    )


def psi_terms(n: int) -> dict:
    """The psi recursion on words of generator degrees, as {word: coeff}.

    psi_0 = 1, psi_m = X1 psi_(m-1) + sum_(j>=2) (-1)^(j-1) sum_k C(k+j-2, j-2) Xj psi_(m-j-k).
    """
    psis = [{(): 1}]
    for m in range(1, n + 1):
        acc = {}

        def add(prefix, poly, weight):
            for word, coeff in poly.items():
                key = (prefix,) + word
                acc[key] = acc.get(key, 0) + weight * coeff

        add(1, psis[m - 1], 1)
        for j in range(2, m + 1):
            for k in range(0, m - j + 1):
                add(j, psis[m - j - k], (-1) ** (j - 1) * math.comb(k + j - 2, j - 2))
        psis.append({w: c for w, c in acc.items() if c})
    return psis[n]


def integral_terms(k: int) -> dict:
    """sum over compositions c of k of (-1)^(k - len c) y_c, as {word: coeff}."""
    out = {}

    def rec(rest, word):
        if rest == 0:
            out[tuple(word)] = (-1) ** (k - len(word))
            return
        for part in range(1, rest + 1):
            rec(rest - part, word + [part])

    rec(k, [])
    return out


# -- densities -------------------------------------------------------------------


def semicircle_pdf(xs, variance):
    xs = np.asarray(xs, dtype=float)
    return np.sqrt(np.clip(4.0 * variance - xs**2, 0.0, None)) / (2.0 * math.pi * variance)


def free_poisson_pdf(xs, lam):
    """Marchenko-Pastur density of rate lam >= 1 and jump size 1 (no atom)."""
    xs = np.asarray(xs, dtype=float)
    lo, hi = (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2
    inside = np.clip((hi - xs) * (xs - lo), 0.0, None)
    out = np.zeros_like(xs)
    pos = xs > 0
    out[pos] = np.sqrt(inside[pos]) / (2.0 * math.pi * xs[pos])
    return out


def free_poisson_support(lam):
    return (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2


def arcsine_pdf(xs, radius=2.0):
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    inside = np.abs(xs) < radius
    out[inside] = 1.0 / (math.pi * np.sqrt(radius**2 - xs[inside] ** 2))
    return out


def bernoulli_semicircle_pdf(xs, variance):
    """Density of symmetric Bernoulli [+] semicircle(variance).

    With omega(z) = z - v G(z) and G_B(w) = w / (w^2 - 1), G solves
    v^2 G^3 - 2 v z G^2 + (z^2 - 1 + v) G - z = 0; on the real line the
    density is |Im G| / pi of the complex root pair, zero where all roots
    are real.
    """
    out = np.empty(len(xs))
    v = variance
    for i, x in enumerate(np.asarray(xs, dtype=float)):
        roots = np.roots([v * v, -2.0 * v * x, x * x - 1.0 + v, -x])
        out[i] = np.max(np.abs(roots.imag)) / math.pi
    return out


def l1_distance(xs, values, reference) -> float:
    """Trapezoid integral of |values - reference| on a uniform grid."""
    diff = np.abs(np.asarray(values) - np.asarray(reference))
    h = xs[1] - xs[0]
    return float(h * (diff.sum() - (diff[0] + diff[-1]) / 2.0))


def trapezoid_mass(values, h) -> float:
    values = np.asarray(values, dtype=float)
    return float(h * (values.sum() - (values[0] + values[-1]) / 2.0))


# -- operator-valued semicircle ---------------------------------------------------


def operator_semicircle_cauchy(b_mat, a_mats, tol=1e-14, max_iter=10_000):
    """G(B) = E[(B - sum A_i (x) s_i)^(-1)] for free semicirculars s_i.

    Helton-Rashidi Far-Speicher: iterate W -> (W + (B - sum A_i W A_i)^(-1)) / 2,
    which converges for Im B > 0 from W_0 = B^(-1).
    """
    b_mat = np.asarray(b_mat, dtype=complex)
    a_mats = [np.asarray(a, dtype=complex) for a in a_mats]
    w = np.linalg.inv(b_mat)
    for _ in range(max_iter):
        eta = sum(a @ w @ a for a in a_mats)
        nxt = 0.5 * (w + np.linalg.inv(b_mat - eta))
        if np.max(np.abs(nxt - w)) <= tol:
            return nxt
        w = nxt
    raise RuntimeError("operator-valued semicircle fixed point did not converge")
