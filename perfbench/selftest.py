"""Quick checks of the benchmark's own oracles and span arithmetic.

    python3 perfbench/selftest.py

Runs in a few seconds and needs no workload: the oracles are checked
against known sequences and limits, the tracer against a scripted clock.
Exits 1 on the first failing check.
"""

from __future__ import annotations

import math
import sys
import types
from fractions import Fraction

import numpy as np

import oracles
import tracing


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_recursion_closed_forms():
    n = 12
    check(oracles.cumulants_to_moments([0, 1] + [0] * (n - 2)) == oracles.semicircle_moments(1, n),
          "semicircle cumulants give the Catalan moments")
    lam = Fraction(3, 2)
    check(oracles.cumulants_to_moments([lam] * n) == oracles.free_poisson_moments(lam, n),
          "free Poisson cumulants give the Narayana moments")
    check([oracles.catalan(j) for j in range(6)] == [1, 1, 2, 5, 14, 42], "Catalan numbers")
    moments = [Fraction(j * j + 1, j + 2) for j in range(1, n + 1)]
    kappas = oracles.moments_to_cumulants(moments)
    check(oracles.cumulants_to_moments(kappas) == moments, "exact round trip")
    check(kappas[:3] == [moments[0], moments[1] - moments[0] ** 2,
                         moments[2] - 3 * moments[0] * moments[1] + 2 * moments[0] ** 3],
          "first three free cumulants")


def test_free_products_and_sums():
    mp1 = oracles.free_poisson_moments(1, 6)
    fuss = [math.comb(3 * k, k) // (2 * k + 1) for k in range(1, 7)]
    check(oracles.multiply_free_moments(mp1, mp1, 6) == fuss,
          "MP(1) times MP(1) has the Fuss-Catalan moments")
    unit = [1] * 6
    check(oracles.multiply_free_moments(mp1, unit, 6) == mp1, "multiplying by 1 is the identity")
    sc = oracles.semicircle_moments(1, 8)
    check(oracles.add_free_moments(sc, sc) == oracles.semicircle_moments(2, 8),
          "semicircle plus semicircle adds variances")


def test_mixed_cumulants_and_words():
    moments = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7, 3)]
    kappas = oracles.moments_to_cumulants(moments)
    check(oracles.mixed_cumulant_of_powers((1, 1), moments) == kappas[1], "kappa(X, X) = kappa_2")
    check(oracles.mixed_cumulant_of_powers((1, 1, 1), moments) == kappas[2], "kappa(X, X, X) = kappa_3")
    check(oracles.integral_terms(2) == {(2,): -1, (1, 1): 1}, "k = 2 integral polynomial")
    check(oracles.psi_terms(1) == {(1,): 1}, "psi_1 = X1")
    check(oracles.psi_terms(2) == {(1, 1): 1, (2,): -1}, "psi_2 = X1 X1 - X2")


def test_densities():
    xs = np.linspace(-6.0, 12.0, 180_001)
    for name, dens in [("semicircle", oracles.semicircle_pdf(xs, 1.7)),
                       ("free Poisson", oracles.free_poisson_pdf(xs, 2.2))]:
        check(abs(oracles.trapezoid_mass(dens, xs[1] - xs[0]) - 1.0) < 1e-4, f"{name} has unit mass")
    xs = np.linspace(-4.0, 4.0, 4001)
    bs = oracles.bernoulli_semicircle_pdf(xs, 0.8)
    check(abs(oracles.trapezoid_mass(bs, xs[1] - xs[0]) - 1.0) < 1e-4, "Bernoulli [+] semicircle mass")
    check(np.allclose(bs, bs[::-1], atol=1e-12), "Bernoulli [+] semicircle is symmetric")
    # as the semicircle shrinks the law approaches the two atoms: no mass near 0
    narrow = oracles.bernoulli_semicircle_pdf(np.array([0.0]), 0.01)
    check(narrow[0] == 0.0, "a narrow semicircle leaves a gap at 0")
    xs = np.linspace(-1.0, 1.0, 5)
    check(np.allclose(oracles.l1_distance(xs, np.ones(5), np.zeros(5)), 2.0), "L1 of a constant")


def test_operator_semicircle():
    z = 0.3 + 1.1j
    scalar = oracles.operator_semicircle_cauchy(np.array([[z]]), [np.array([[1.0]])])[0, 0]
    expected = (z - np.sqrt(z - 2) * np.sqrt(z + 2)) / 2
    check(abs(scalar - expected) < 1e-12, "1x1 case is the semicircle's Cauchy transform")
    b = 2j * np.eye(2)
    diag = oracles.operator_semicircle_cauchy(b, [np.diag([1.0, 0.0])])
    check(abs(diag[1, 1] - 1 / b[1, 1]) < 1e-12 and abs(diag[0, 1]) < 1e-12,
          "a coefficient supported on one entry leaves the other free")


def test_span_arithmetic():
    ticks = iter(float(t) for t in range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("b.leaf", lambda: None)
    counted = tracer.wrap("b.count", lambda n: list(range(n)), counter=lambda a, k, r: len(r))
    mid = tracer.wrap("a.mid", lambda: (leaf(), counted(3), leaf()))
    outer = tracer.wrap("a.outer", lambda: mid())
    outer()  # outer [0, 9], mid [1, 8], leaf [2, 3], count [4, 5], leaf [6, 7]
    leaf()  # [10, 11]
    spans = tracer.window(0.0, 12.0)
    check([s.duration for s in spans] == [9, 7, 1, 1, 1, 1], "span durations")
    check([s.self_time for s in spans] == [2, 4, 1, 1, 1, 1], "self time = span minus children")
    by_layer = tracing.self_time_by_layer(spans)
    check(by_layer == {"a": 6, "b": 4}, "self time by layer")
    window = 12.0
    remainder = window - tracing.root_time(spans)
    check(sum(by_layer.values()) + remainder == window, "self times plus remainder = window")
    check(spans[3].count == 3, "counters record work done")

    import layers

    check(layers.inclusive(tracer, spans, {"a.outer", "a.mid"}) == 9, "nested spans counted once")
    check(layers.inclusive(tracer, spans, {"b.leaf"}) == 3, "inclusive time of a leaf set")


def test_install_reaches_every_name():
    def target(x):
        return x + 1

    home = types.ModuleType("freelevy.selftest_home")
    user = types.ModuleType("freelevy.selftest_user")
    home.target = user.target = target
    sys.modules[home.__name__], sys.modules[user.__name__] = home, user
    try:
        tracer = tracing.Tracer()
        tracer.install([("selftest.target", home.__name__, "target", None)])
        check(home.target is not target and user.target is home.target,
              "one wrapper under every name of the function")
        check(user.target(1) == 2 and len(tracer.spans) == 1, "the wrapper records a span")
        tracer.uninstall()
        check(home.target is target and user.target is target, "uninstall restores the originals")
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
    print(f"ok: {len(tests)} self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
