import functools
import gc
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelevy.cumulants import (
    CumulantError,
    _dilation,
    cumulants_to_moments,
    free_joint_functional,
    free_poisson_moments,
    mixed_free_cumulant,
    moments_to_cumulants,
    power_sum_joint_cumulant,
    word_functional_from_moments,
)
from freelevy.partitions import _mobius_to_top, enumerate_nc

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20
)


def nc_sum_oracle(values, n, mobius=True):
    """Direct sum over enumerate_nc(n) of the block products of `values`.

    With the Mobius weight Mob(pi, 1) this is kappa_n of the moments
    `values`; with weight 1 it is m_n of the cumulants `values`.
    """
    total = 0
    for pi in enumerate_nc(n):
        term = _mobius_to_top(pi) if mobius else 1
        for b in pi.blocks:
            term *= values[len(b) - 1]
        total += term
    return total


def joint_moment_oracle(cumulants, word):
    """The free moment-cumulant sum by filtering NC(n): each label-constant
    partition of the word weighted by the product of its blocks' cumulants."""
    total = 0
    for pi in enumerate_nc(len(word)):
        term = 1
        for block in pi.blocks:
            if len({word[i - 1] for i in block}) > 1:
                term = 0
                break
            term = term * cumulants[word[block[0] - 1]][len(block) - 1]
        total = total + term
    return total


def mobius_sum_oracle(word, tau):
    """kappa(word) = sum over NC(n) of Mob(pi, 1) times the product over the
    blocks of pi of tau of the block's sub-word, and the sum of |terms|."""
    total, scale = 0, 0
    for pi in enumerate_nc(len(word)):
        term = _mobius_to_top(pi)
        for block in pi.blocks:
            term = term * tau(tuple(word[i - 1] for i in block))
        total, scale = total + term, scale + abs(term)
    return total, scale


def no_nc_listing(patch):
    """Make every freelevy module's enumerate_nc raise for the patch's duration."""

    def no_listing(n):
        raise AssertionError("the library listed NC(n)")

    for name, module in list(sys.modules.items()):
        if name.startswith("freelevy") and hasattr(module, "enumerate_nc"):
            patch.setattr(module, "enumerate_nc", no_listing)


# -- power-word functional ---------------------------------------------------


def test_word_functional_empty_word_and_bad_letters():
    tau = word_functional_from_moments([1, 2, 7])
    assert tau(()) == 1
    assert tau((1, 2)) == 7
    for word in [(0,), (2, 0), (1, -1)]:
        with pytest.raises(CumulantError, match="letters must be >= 1"):
            tau(word)


def test_tau_pi_undefined_moment():
    tau = word_functional_from_moments([1])
    with pytest.raises(CumulantError):
        mixed_free_cumulant((1, 1, 1), tau)
    with pytest.raises(CumulantError, match=r"undefined on sub-word \(1, 1\)"):
        mixed_free_cumulant((1, 1, 1), lambda sub: None if len(sub) == 2 else 1)


# -- conversions ----------------------------------------------------------


def test_semicircle_cumulants():
    assert moments_to_cumulants([0, 1, 0, 2]) == [0, 1, 0, 0]


def test_point_mass_cumulants():
    c = Fraction(7, 3)
    assert moments_to_cumulants([c, c**2, c**3]) == [c, 0, 0]
    assert cumulants_to_moments([c, 0, 0]) == [c, c**2, c**3]


def test_free_poisson_cumulants():
    assert moments_to_cumulants([1, 2, 5, 14]) == [1, 1, 1, 1]
    assert free_poisson_moments(1, 4) == [1, 2, 5, 14]
    assert free_poisson_moments(3, 3) == [3, 12, 57]


def test_semicircle_moments_catalan():
    assert cumulants_to_moments([0, 1, 0, 0, 0, 0]) == [0, 1, 0, 2, 0, 5]


def test_constant_cumulant_moments():
    # oracle: m_n = sum over NC(n) of lam^(number of blocks), so
    # m_3 = lam + 3 lam^2 + lam^3
    lam = 2
    oracle = [
        sum(lam ** len(pi) for pi in enumerate_nc(n)) for n in range(1, 11)
    ]
    assert oracle[:3] == [2, 6, 22]
    assert cumulants_to_moments([lam] * 10) == oracle
    assert moments_to_cumulants(oracle) == [lam] * 10


def test_conversion_matches_direct_nc_sum():
    values = [
        Fraction(1, 2), Fraction(3), Fraction(-2, 5), Fraction(7, 4), Fraction(-1),
        Fraction(5, 6), Fraction(2, 9), Fraction(-3, 2), Fraction(4), Fraction(1, 7),
    ]
    kappas = moments_to_cumulants(values)
    moments = cumulants_to_moments(values)
    for n in range(1, 11):
        assert kappas[n - 1] == nc_sum_oracle(values, n)
        assert moments[n - 1] == nc_sum_oracle(values, n, mobius=False)


def test_length_bound():
    with pytest.raises(CumulantError):
        moments_to_cumulants([])
    with pytest.raises(CumulantError):
        cumulants_to_moments([])


def test_order_24_closed_forms():
    # semicircle (kappa_2 = 1, all others 0) has the Catalan numbers as even
    # moments; constant cumulants lam give the Narayana polynomials
    catalan = [0 if n % 2 else math.comb(n, n // 2) // (n // 2 + 1) for n in range(1, 25)]
    semicircle = [0, 1] + [0] * 22
    assert cumulants_to_moments(semicircle) == catalan
    assert moments_to_cumulants(catalan) == semicircle
    lam = Fraction(3, 4)
    narayana = [
        sum(Fraction(math.comb(n, j) * math.comb(n, j - 1), n) * lam**j for j in range(1, n + 1))
        for n in range(1, 25)
    ]
    assert cumulants_to_moments([lam] * 24) == narayana
    assert moments_to_cumulants(narayana) == [lam] * 24


@given(st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_roundtrip_exact(moments):
    kappas = moments_to_cumulants(moments)
    assert cumulants_to_moments(kappas) == moments
    assert moments_to_cumulants(cumulants_to_moments(moments)) == moments


def test_mixed_exact_inputs_match_the_nc_sum():
    rng = random.Random(20261020)
    for _ in range(12):
        values = [rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 8))])
                  for _ in range(8)]
        kappas, moments = moments_to_cumulants(values), cumulants_to_moments(values)
        for n in range(1, 9):
            assert kappas[n - 1] == nc_sum_oracle(values, n), values
            assert moments[n - 1] == nc_sum_oracle(values, n, mobius=False), values


@given(st.lists(rationals, min_size=1, max_size=8), rationals)
@settings(max_examples=100, deadline=None)
def test_dilation_covariance(values, c):
    # kappa_s -> c^s kappa_s maps m_n -> c^n m_n, and the other way round
    dilated = [c**n * v for n, v in enumerate(values, 1)]
    assert cumulants_to_moments(dilated) == [
        c**n * m for n, m in enumerate(cumulants_to_moments(values), 1)]
    assert moments_to_cumulants(dilated) == [
        c**n * k for n, k in enumerate(moments_to_cumulants(values), 1)]


def test_order_24_round_trip_with_distinct_prime_denominators():
    primes = [p for p in range(2, 90) if all(p % q for q in range(2, p))]
    assert len(primes) == 24
    values = [Fraction((-1) ** p * (p + 1) // 2, p) for p in primes]
    assert cumulants_to_moments(moments_to_cumulants(values)) == values
    assert moments_to_cumulants(cumulants_to_moments(values)) == values


@given(st.lists(rationals, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_dilation_factor_clears_every_order_and_divides_the_lcm(values):
    c = _dilation(values)
    assert all(c**n % v.denominator == 0 for n, v in enumerate(values, 1))
    assert math.lcm(*(v.denominator for v in values)) % c == 0


def test_dilation_factor_stays_small_for_moments_of_atoms_on_thirds():
    # den(m_n) = 3^n: c = 3 scales by 3^n where the lcm 3^12 scaled by 3^(12 n)
    values = [Fraction(1, 3**n) for n in range(1, 13)]
    assert _dilation(values) == 3
    assert _dilation([Fraction(1, 8), Fraction(1, 2), Fraction(1, 4), 5]) == 8


@pytest.fixture
def fraction_ops(monkeypatch):
    """The names of the Fraction operations (construction and arithmetic) made
    while a test runs, in a list the test may clear."""
    calls = []

    def counting(name, op):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return op(*args, **kwargs)

        return staticmethod(wrapped) if name == "__new__" else wrapped

    for name in ["__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__pow__", "__neg__"]:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    return calls


def test_exact_conversions_do_linear_fraction_arithmetic(fraction_ops):
    # ints and Fractions are solved on integers: a Fraction only per output
    calls = fraction_ops
    values = [Fraction(n, n + 1) for n in range(1, 25)] + [Fraction(-3, 7)] * 8
    for convert in (moments_to_cumulants, cumulants_to_moments):
        calls[:] = []
        convert(values)
        assert len(calls) <= len(values), (convert.__name__, len(calls))
    # the joint functional scales each label once: one Fraction per output
    from freelevy.transforms import free_multiply_moments

    ma = [Fraction(n, n + 2) for n in range(1, 13)]
    mb = [Fraction(-n * n, 7) for n in range(1, 13)]
    calls[:] = []
    free_multiply_moments(ma, mb, 12)
    assert len(calls) <= 12, len(calls)


def test_exact_chains_divide_once_at_their_outputs(fraction_ops, monkeypatch):
    # the free sum, the power-sum cumulants and the campaign references run on
    # one integer scale: a Fraction per output, and none past the references'
    # step cumulants, which they round straight from integers
    from freelevy import rmt
    from freelevy.transforms import free_convolve_moments

    ma = [Fraction(n, n + 2) for n in range(1, 13)]
    mb = [Fraction(-n * n, 7) for n in range(1, 13)]
    fraction_ops.clear()
    free_convolve_moments(ma, mb, 12)
    assert len(fraction_ops) <= 12, len(fraction_ops)
    fraction_ops.clear()
    power_sum_joint_cumulant((1, 2, 1, 2), ma, 5)
    assert len(fraction_ops) <= 2, len(fraction_ops)

    step_cumulants = rmt._step_cumulants

    def counted_after(*args):
        out = step_cumulants(*args)
        fraction_ops.clear()
        return out

    monkeypatch.setattr(rmt, "_step_cumulants", counted_after)
    cfg = rmt.SimConfig(d=2, trials=1, master_seed=0, N=37, t=0.75, lam=0.625,
                        jump=[[-1.5, 0.25], [0.5, 0.75]])
    for reference in (rmt.finite_n_power_sum_moments, rmt.predicted_variation_moments):
        for k, orders in ((1, 8), (2, 6), (3, 4)):
            fraction_ops.clear()
            reference(cfg, k, orders)
            assert fraction_ops == [], (reference.__name__, k, fraction_ops)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_numpy_integers_run_on_python_ints(dtype):
    # numpy's integers wrap (cumulants_to_moments([np.int64(3)] * 30) once
    # gave a negative m_30): every exact path reads them as Python ints
    values = [3, -1, 2, 0, 5, 1, -4, 2, 3] * 5
    for n in (30, 45):
        wrapped = [dtype(v) for v in values[:n]]
        for convert in (cumulants_to_moments, moments_to_cumulants):
            got, want = convert(wrapped), convert(values[:n])
            assert got == want and all(type(v) is int for v in got), convert.__name__
    assert cumulants_to_moments([dtype(3)] * 30)[-1] == 918126024293352982017504
    from freelevy.transforms import free_convolve_moments, free_multiply_moments

    ma, mb = values[:12], values[3:15]
    wa, wb = [dtype(v) for v in ma], [dtype(v) for v in mb]
    for got, want in [
        (free_multiply_moments(wa, wb, 12), free_multiply_moments(ma, mb, 12)),
        (free_convolve_moments(wa, wb, 12), free_convolve_moments(ma, mb, 12)),
        (list(power_sum_joint_cumulant((2, 3, 2, 3), wa, 7)),
         list(power_sum_joint_cumulant((2, 3, 2, 3), ma, 7))),
        ([free_joint_functional({"a": wa, "b": wb})(("a", "b", "b") * 4)],
         [free_joint_functional({"a": ma, "b": mb})(("a", "b", "b") * 4)]),
    ]:
        assert got == want and all(type(v) is int for v in got)


def test_output_types():
    # ints in, ints out
    for convert in (moments_to_cumulants, cumulants_to_moments):
        assert all(type(v) is int for v in convert([3, -1, 0, 7, 2]))
    # output n is a Fraction once one of the first n inputs is one
    assert repr(cumulants_to_moments([1, Fraction(1, 2)])) == "[1, Fraction(3, 2)]"
    assert repr(moments_to_cumulants([3, -1, Fraction(4), 0])) == (
        "[3, -10, Fraction(67, 1), Fraction(-545, 1)]")
    # floats, alone or among exact values, as the recursion on the values gives
    pinned = [
        (cumulants_to_moments, [0.5, -1.25, 2.0, 0.1], "[0.5, -1.0, 0.25, 5.4125]"),
        (moments_to_cumulants, [0.5, -1.25, 2.0, 0.1], "[0.5, -1.5, 4.125, -10.4625]"),
        (cumulants_to_moments, [1, Fraction(1, 2), 0.25, -3], "[1, Fraction(3, 2), 2.75, 2.5]"),
        (moments_to_cumulants, [Fraction(1, 3), 2, 0.5, Fraction(-1, 7)],
         "[Fraction(1, 3), Fraction(17, 9), -1.4259259259259258, -6.6490299823633165]"),
        (moments_to_cumulants, [2, -0.0, 1, 0], "[2, -4.0, 17.0, -88.0]"),
    ]
    for convert, values, want in pinned:
        assert repr(convert(values)) == want, (convert.__name__, values)


# -- mixed cumulants -------------------------------------------------------


def test_mixed_cumulant_free_pair_vanishes():
    tau = free_joint_functional({"a": [Fraction(1, 3), 1], "b": [2, 5]})
    assert mixed_free_cumulant(("a", "b"), tau) == 0


def test_mixed_cumulant_variance():
    tau = free_joint_functional({"a": [Fraction(1, 2), Fraction(5, 7)]})
    m1, m2 = Fraction(1, 2), Fraction(5, 7)
    assert mixed_free_cumulant(("a", "a"), tau) == m2 - m1 * m1


def test_alternating_word_of_free_semicirculars():
    tau = free_joint_functional({"a": [0, 1, 0, 2], "b": [0, 1, 0, 2]})
    assert mixed_free_cumulant(("a", "b", "a", "b"), tau) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mixed_vanishing_exhaustive(n):
    import itertools

    tau = free_joint_functional(
        {"a": [Fraction(1, 2), 2, 1, 3, 2, 4], "b": [1, 3, 2, 5, 3, 7]}
    )
    for word in itertools.product("ab", repeat=n):
        if len(set(word)) > 1:
            assert mixed_free_cumulant(word, tau) == 0, word


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_mixed_free_cumulant_matches_the_mobius_sum(kind, monkeypatch):
    rng = random.Random(20261019)

    def value():
        if kind == "float":
            return rng.uniform(-2.0, 2.0)
        return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])

    cases = []
    for n in range(1, 11):
        for _ in range(3 if n <= 8 else 1):
            # an arbitrary functional on two-label words, and a power word
            word = tuple(rng.choice("ab") for _ in range(n))
            cases.append((word, functools.cache(lambda sub: value())))
            powers = tuple(rng.randint(1, 3) for _ in range(n))
            moments = [value() for _ in range(sum(powers))]
            cases.append((powers, word_functional_from_moments(moments)))
    wants = [mobius_sum_oracle(word, tau) for word, tau in cases]
    no_nc_listing(monkeypatch)
    for (word, tau), (want, scale) in zip(cases, wants):
        got = mixed_free_cumulant(word, tau)
        if kind == "float":
            # the Mobius sum cancels heavily, so the scale is the sum of |terms|
            assert abs(got - want) <= 1e-12 * scale, (word, got, want)
        else:
            assert got == want and type(got) is type(want), (word, got, want)


def test_free_joint_functional_factorizes():
    tau = free_joint_functional({"a": [Fraction(2, 3)], "b": [Fraction(5, 2)]})
    assert tau(("a", "b")) == Fraction(2, 3) * Fraction(5, 2)


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_free_joint_functional_matches_the_nc_filter_sum(kind, monkeypatch):
    no_nc_listing(monkeypatch)
    rng = random.Random(20261018)

    def value():
        if kind == "float":
            return rng.uniform(-2.0, 2.0)
        return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])

    for _ in range(30):
        labels = "abc"[: rng.randint(1, 3)]
        laws = {label: [value() for _ in range(8)] for label in labels}
        cumulants = {label: moments_to_cumulants(m) for label, m in laws.items()}
        tau = free_joint_functional(laws)
        for _ in range(8):
            word = tuple(rng.choice(labels) for _ in range(rng.randint(1, 8)))
            got, want = tau(word), joint_moment_oracle(cumulants, word)
            if kind == "float":
                # the sums cancel heavily, so the scale is the sum of |terms|
                scale = joint_moment_oracle(
                    {label: [abs(k) for k in ks] for label, ks in cumulants.items()}, word
                )
                assert abs(got - want) <= 1e-12 * max(1.0, scale), (word, got, want)
            else:
                assert got == want and type(got) is type(want), (word, got, want)


# one label of ints, the others with their first Fraction at indices 0, 3
# and 5, zeros, negatives and a Fraction with denominator 1
MIXED_LAWS = {
    "a": [2, -1, 0, 5, 3, -7, 1],
    "b": [Fraction(1, 3), 2, Fraction(-5, 4), 0, 1, Fraction(7, 9), -2],
    "c": [0, -3, 1, Fraction(2, 5), Fraction(-1, 6), 4, 0],
    "d": [1, 0, -2, 4, -1, Fraction(4), Fraction(1, 2)],
}


def joint_type(laws, word):
    """Fraction when, for some label, one of its first count(label) moments is."""
    exact = all(type(v) is int for label in set(word) for v in laws[label][: word.count(label)])
    return int if exact else Fraction


def test_free_joint_functional_on_mixed_exact_inputs_matches_the_nc_filter_sum(monkeypatch):
    no_nc_listing(monkeypatch)
    cumulants = {label: moments_to_cumulants(m) for label, m in MIXED_LAWS.items()}
    tau = free_joint_functional(MIXED_LAWS)
    rng = random.Random(27)
    words = [word for n in range(1, 6) for word in itertools.product("abcd", repeat=n)]
    words += [tuple(rng.choice("abcd") for _ in range(rng.randint(6, 9))) for _ in range(40)]
    for word in words:
        got, want = tau(word), joint_moment_oracle(cumulants, word)
        assert got == want and type(got) is joint_type(MIXED_LAWS, word), (word, got, want)


def test_free_joint_functional_pins_float_and_mixed_reprs():
    # a float in any label sums the values as given, exact labels included
    cases = [
        ({"a": [0.5, -1.25, 2.0], "b": [1.5, 0.25, -0.75]}, ["ab", "aabb", "abab", "bab"],
         ["0.75", "-0.3125", "-3.3125", "0.125"]),
        ({"a": [Fraction(1, 3), 2, Fraction(-5, 4)], "b": [0.5, -1.0, 0.125]},
         ["a", "aa", "ab", "abab", "aab"],
         ["Fraction(1, 3)", "Fraction(2, 1)", "0.16666666666666666", "0.3611111111111111", "1.0"]),
        ({"a": [1, Fraction(1, 2), 0.25], "b": [2, -3, 0]}, ["a", "aa", "aaa", "bb", "abab", "aabb"],
         ["1", "Fraction(1, 2)", "0.25", "-3", "Fraction(-5, 1)", "Fraction(-3, 2)"]),
    ]
    for laws, words, want in cases:
        tau = free_joint_functional(laws)
        assert [repr(tau(word)) for word in words] == want, laws
    from freelevy.transforms import free_multiply_moments

    assert repr(free_multiply_moments([0.5, Fraction(1, 3), 2], [1, -0.25, Fraction(3, 2)], 3)) == (
        "[0.5, 0.020833333333333315, 1.9062499999999998]")


@pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(-5, 2), 3, Fraction(1, 7)])
def test_free_joint_functional_dilation(c):
    # a -> c a multiplies m_j(a) by c^j, and tau(w) by c^count_a(w)
    laws = {label: MIXED_LAWS[label][:5] for label in "abc"}
    tau = free_joint_functional(laws)
    dilated = free_joint_functional({**laws, "a": [c**j * m for j, m in enumerate(laws["a"], 1)]})
    for n in range(1, 6):
        for word in itertools.product("abc", repeat=n):
            assert dilated(word) == c ** word.count("a") * tau(word), word


def test_free_joint_functional_needs_a_cumulant_per_occurrence():
    laws = {"a": [Fraction(1, 2), 3], "b": [-2]}  # "c" has no cumulants
    supplied = {"a": 2, "b": 1, "c": 0}
    cumulants = {label: moments_to_cumulants(m) for label, m in laws.items()}
    tau = free_joint_functional(laws)
    for n in range(1, 5):
        for word in itertools.product("abc", repeat=n):
            if any(word.count(label) > supplied[label] for label in word):
                with pytest.raises(CumulantError):
                    tau(word)
            else:
                assert tau(word) == joint_moment_oracle(cumulants, word)


# -- power sum joint cumulants ----------------------------------------------


def test_power_sum_first_cumulant():
    m = [Fraction(1, 4), 1, 2]
    total, defect = power_sum_joint_cumulant((1,), m, 10)
    assert total == 10 * Fraction(1, 4)
    assert defect == 0


def test_power_sum_single_square():
    total, defect = power_sum_joint_cumulant((2,), [0, 1], 7)
    assert total == 7  # N * kappa_1(X^2) = N * m_2
    assert defect == 0


def test_power_sum_defect_scaled_semicircle():
    # semicircle summand with variance 1/N: defect of u=(1,1) is exactly 0
    # (centered), and the joint cumulant N*kappa_2 stays 1
    for n in (10, 100, 1000):
        total, defect = power_sum_joint_cumulant(
            (1, 1), [0, Fraction(1, n)], n
        )
        assert total == 1
        assert defect == 0


def test_power_sum_defect_uncentered():
    # one free Poisson-like summand: R(X, X) - m_2 = -m_1^2
    m = [Fraction(1, 5), Fraction(2, 5)]
    total, defect = power_sum_joint_cumulant((1, 1), m, 5)
    assert defect == 5 * (-Fraction(1, 25))
    assert total == 5 * (Fraction(2, 5) - Fraction(1, 25))


def test_power_sum_joint_cumulant_of_ten_powers():
    # R(X, ..., X) with ten letters is kappa_10, and the free Poisson law's
    # cumulants all equal its rate
    lam = Fraction(3, 2)
    moments = free_poisson_moments(lam, 10)
    total, defect = power_sum_joint_cumulant((1,) * 10, moments, 7)
    assert total == 7 * lam
    assert defect == 7 * (lam - moments[9])


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "float", "float_and_exact"])
def test_power_sum_joint_cumulant_is_the_recursion_on_the_moments(kind):
    # exact moments run on the integers c^j m_j and are divided once: the
    # values and types are mixed_free_cumulant's on the moments themselves
    rng = random.Random(34)

    def value():
        choice = {"int": 0, "fraction": 1, "float": 2, "mixed": rng.randint(0, 1),
                  "float_and_exact": rng.randint(0, 2)}[kind]
        return [rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                rng.uniform(-2.0, 2.0)][choice]

    joint_powers = [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2)]
    words = joint_powers + [tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
                            for _ in range(40)]
    for powers in words:
        moments, count = [value() for _ in range(sum(powers))], rng.randint(1, 9)
        tau = word_functional_from_moments(moments)
        r_one = mixed_free_cumulant(powers, tau)
        want = (count * r_one, count * (r_one - tau(powers)))
        got = power_sum_joint_cumulant(powers, moments, count)
        assert got == want and [type(g) for g in got] == [type(w) for w in want], (powers, moments)
    # the recursion reads only the m_j at sums of the powers: (2, 2) stays an
    # int when m_1 and m_3 are Fractions, R = m_4 - m_2^2
    got = power_sum_joint_cumulant((2, 2), [Fraction(1, 2), 3, Fraction(1, 3), 5], 2)
    assert got == (-8, -18) and all(type(v) is int for v in got)


def test_power_sum_insufficient_moments():
    with pytest.raises(CumulantError):
        power_sum_joint_cumulant((2, 3), [0, 1], 4)


@pytest.mark.parametrize("powers", [(), (0,), (2, -1)])
def test_power_sum_rejects_powers_below_one(powers):
    with pytest.raises(CumulantError):
        power_sum_joint_cumulant(powers, [1, 2, 5], 4)


@pytest.mark.parametrize("powers", [(1.5, 1), (1.0, 1), (True, 1)],
                         ids=["fractional", "float", "bool"])
def test_power_sum_rejects_powers_that_are_not_integers(powers):
    # a power is never truncated: (1.5, 1) once gave the (1, 1) cumulant
    with pytest.raises(CumulantError, match="^powers must be a nonempty list of integers >= 1"):
        power_sum_joint_cumulant(powers, [1, 2, 5, 14], 3)


# -- additivity via the transforms moment-level convolution ------------------


def test_cumulant_additivity_under_free_convolution():
    from freelevy.transforms import free_convolve_moments

    ma = [Fraction(1, 2), 1, 2, 5, 3, 11]
    mb = [Fraction(-1, 3), 2, 1, 7, 2, 9]
    # the moments of a + b as the joint moments of the 2^n words of (a + b)^n
    tau = free_joint_functional({"a": ma, "b": mb})
    mc = [sum(tau(word) for word in itertools.product("ab", repeat=n)) for n in range(1, 7)]
    ka = moments_to_cumulants(ma)
    kb = moments_to_cumulants(mb)
    kc = moments_to_cumulants(mc)
    assert kc == [x + y for x, y in zip(ka, kb)]
    assert free_convolve_moments(ma, mb, 6) == mc


def test_joint_functionals_leave_no_reference_cycles():
    # each call's memo lives in dicts that nothing refers back to, so the
    # cyclic collector finds nothing once a call has returned
    from freelevy.transforms import free_multiply_moments

    ma = [Fraction(n, 3) for n in range(1, 9)]
    mb = [Fraction(n * n, 5) for n in range(1, 9)]
    tau = word_functional_from_moments([1, 2, 5, 14, 42, 132])
    calls = [
        lambda: free_multiply_moments(ma, mb, 8),
        lambda: mixed_free_cumulant("abc", lambda w: Fraction(len(w))),
        lambda: mixed_free_cumulant((1, 2, 1, 2), tau),
        lambda: power_sum_joint_cumulant((1, 2, 1), [1, 2, 5, 14], 7),
        lambda: free_joint_functional({"a": ma, "b": mb})(("a", "b") * 4),
    ]
    for call in calls:
        gc.collect()
        call()
        assert gc.collect() == 0
