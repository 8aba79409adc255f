"""Moment/free-cumulant conversions and mixed free cumulants of tuples.

The single-variable conversions solve the functional equation
M(z) = 1 + sum_s kappa_s z^s M(z)^s of the moment series (Nica & Speicher,
Lectures on the Combinatorics of Free Probability, Lecture 16) order by
order: m_n = sum_(s<=n) kappa_s [z^(n-s)] M(z)^s. Each order needs only the
coefficients [z^j] M(z)^s with s + j <= n, so n orders cost O(n^3)
arithmetic operations and there is no bound on n.

When every input is an int or a Fraction (numpy integers are read as
Python ints, `measures._exact`), the recursion runs on integers:
input n is multiplied by c^n and output n divided by c^n once at the end.
This is exact because the formula is homogeneous under the dilation
kappa_s -> c^s kappa_s, m_n -> c^n m_n, and the recursion only adds,
subtracts and multiplies, so integers in give integers out. The factor c
grows only as the orders need: walking n upward, whenever den(v_n) does not
divide c^n, c is multiplied by den(v_n) / gcd(den(v_n), c^n). So c divides
the lcm D of the denominators: N inputs with den(v_n) = b^n, such as the
moments of atoms on b-ths, get c = b, where D = b^N would scale input n by
b^(N n). Output n is a Fraction when one of inputs 1..n is, and an int
otherwise, just as the recursion on the Fractions themselves would give.
Any other input, and any list holding a float, runs the recursion on the
values as given.

Mixed cumulants of words and joint moments of free variables recurse on
the block of the first letter, with no bound on the word length; the joint
moments form only label-constant partitions. When every moment of every
label is an int or a Fraction, the joint moments run on integers by the
same rule, one factor c_l per label: a word's value is homogeneous of degree
count_l(w) in label l's dilation, so it is divided once, by the product of
c_l^count_l(w). `power_sum_joint_cumulant` runs the mixed cumulant on the
integers c^j m_j by the same rule and divides once, by c^(sum of powers).

Every exact moment chain takes one integer scale from `_scaled` and divides
each output once, with `_unscaled`: transforms.py's free sum puts both laws
on one factor and adds their integer cumulants, its free product solves an
alternating-word system on each law's integer cumulants, and rmt.py's
references run their conversions on the scaled step cumulants. Everything
is exact when fed ints or fractions.Fraction; floats pass through unchanged
when that is what the caller supplies.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .measures import _exact, _integer, _integers, _real


class CumulantError(ValueError):
    """Invalid conversion request (empty sequence, undefined moments)."""


def _check_length(n: int):
    if n < 1:
        raise CumulantError("sequence must have length >= 1")


def _recursion(values, to_cumulants: bool) -> list:
    """The order-by-order solution of the functional equation, either way.

    powers[s][j] = [z^j] M(z)^s; order n first adds the coefficients with
    s + j = n, which read moments only up to m_(n-1), then splits
    m_n = rest + kappa_n, with rest the terms s < n of
    sum_s kappa_s [z^(n-s)] M(z)^s. It adds, subtracts and multiplies only.
    """
    moments, kappas, powers = [1], [], [[1]]
    for n, value in enumerate(values, 1):
        powers[0].append(0)
        for s in range(1, n):
            prev, j = powers[s - 1], n - s
            powers[s].append(sum(map(operator.mul, moments[: j + 1], prev[j::-1])))
        powers.append([1])
        rest = sum(kappas[s - 1] * powers[s][n - s] for s in range(1, n))
        if to_cumulants:
            moments.append(value)
            kappas.append(value - rest)
        else:
            kappas.append(value)
            moments.append(rest + value)
    return kappas if to_cumulants else moments[1:]


def _convert(values, to_cumulants: bool) -> list:
    """Run `_recursion` on integers when every value is an int or Fraction
    (the rescaling and the output types are in the module docstring)."""
    _check_length(len(values))
    exact = _exact(values)
    if exact is None:
        return _recursion(values, to_cumulants)
    scaled, c, first = _scaled(exact)
    return _unscaled(_recursion(scaled, to_cumulants), c, first)


def _scaled(values, c=None) -> tuple:
    """The ints c^n v_n of exact values v_1, v_2, ..., the factor c (that of
    `_dilation` unless one with den(v_n) | c^n is given) and the index of the
    first Fraction (len(values) if none)."""
    if c is None:
        c = _dilation(values)
    first = next((i for i, v in enumerate(values) if isinstance(v, Fraction)), len(values))
    scaled, scale = [], 1
    for v in values:
        scale *= c
        scaled.append(v.numerator * (scale // v.denominator))
    return scaled, c, first


def _unscaled(values, c: int, first: int) -> list:
    """Output n of a chain run on the scale c, divided once by c^n: a Fraction
    when n > first, the index of the first Fraction among the inputs, and an
    int otherwise."""
    out, scale = [], 1
    for n, r in enumerate(values, 1):
        scale *= c
        out.append(Fraction(r, scale) if n > first else r // scale)
    return out


def _dilation(values) -> int:
    """A factor c with den(v_n) | c^n for every n, grown only where an order
    needs it; every prime's exponent in c is at most its exponent in the lcm
    of the denominators."""
    c = 1
    for n, v in enumerate(values, 1):
        den = v.denominator
        if den > 1:
            c *= den // math.gcd(den, c**n)
    return c


def moments_to_cumulants(moments) -> list:
    """Free cumulants (kappa_1..kappa_n) from raw moments (m_1..m_n).

    Ints in give ints out; kappa_n is a Fraction when one of m_1..m_n is.
    Floats, alone or mixed with exact values, run the recursion as given.
    """
    return _convert(list(moments), to_cumulants=True)


def cumulants_to_moments(kappas) -> list:
    """Raw moments from free cumulants; exact inverse of moments_to_cumulants.

    Ints in give ints out; m_n is a Fraction when one of kappa_1..kappa_n is.
    Floats, alone or mixed with exact values, run the recursion as given.
    """
    return _convert(list(kappas), to_cumulants=False)


def mixed_free_cumulant(word, tau):
    """Mixed free cumulant R[a_u(1), ..., a_u(n)] of a word of variables.

    tau(w) sums, over the block V of the first letter, kappa(w_V) times tau
    of each gap between consecutive elements of V and of the tail after V;
    the term V = w is kappa(w), so kappa(w) is tau(w) minus the other terms.
    Each sub-word is evaluated once per call, and the empty word as 1 without
    calling `tau`. Vanishes whenever the word mixes at least two free
    variables (the defining property used to reduce joint cumulants of free
    sums to per-summand ones).
    """
    word = tuple(word)
    _check_length(len(word))
    return _MixedCumulants(tau).cumulant(word)


class _MixedCumulants:
    """The recursion of `mixed_free_cumulant`, memoised in dicts that the
    instance holds: nothing refers back to it, so a call leaves no reference
    cycle behind for the garbage collector."""

    def __init__(self, tau):
        self.tau, self.moments, self.cumulants, self.blocks = tau, {}, {}, {}

    def moment(self, sub):
        if sub not in self.moments:
            value = self.tau(sub) if sub else 1
            if value is None:
                raise CumulantError(f"moment functional undefined on sub-word {sub}")
            self.moments[sub] = value
        return self.moments[sub]

    def cumulant(self, sub):
        # V = sub is kappa(sub) itself; any other V has a first position j
        # that it leaves out, after the head sub[:j]
        if sub not in self.cumulants:
            self.cumulants[sub] = self.moment(sub) - sum(
                self.block(sub[:j], sub[j:], 1) for j in range(1, len(sub)))
        return self.cumulants[sub]

    def block(self, head, rest, gap=0):
        # V's letters so far are `head`, the last just before `rest`: close V
        # here, or extend it to rest[i] past a gap of at least `gap` letters
        key = (head, rest, gap)
        if key not in self.blocks:
            total = self.cumulant(head) * self.moment(rest)
            for i in range(gap, len(rest)):
                extended = self.block(head + rest[i : i + 1], rest[i + 1 :])
                total = total + self.moment(rest[:i]) * extended
            self.blocks[key] = total
        return self.blocks[key]


def word_functional_from_moments(moments):
    """Functional on power-words of a single variable: tau[X^a X^b ...] = m_(a+b+...).

    The empty word has moment 1; a letter below 1 raises CumulantError.
    """
    moments = list(moments)

    def tau(sub):
        if any(letter < 1 for letter in sub):
            raise CumulantError(f"power-word letters must be >= 1, got {tuple(sub)}")
        total = sum(sub)
        if total > len(moments):
            raise CumulantError(
                f"moment m_{total} required but only {len(moments)} supplied"
            )
        return moments[total - 1] if total else 1

    return tau


def free_joint_functional(moments_by_label):
    """Joint moment functional of freely independent variables.

    Given per-label moment sequences, builds tau[word] by the free
    moment-cumulant formula: sum over NC partitions whose blocks are
    label-constant of the product of per-label cumulants. The sum runs over
    the block V of the first letter: kappa_|V| times tau of each gap between
    consecutive elements of V and of the tail after V, since no block of a
    non-crossing partition leaves the gap it starts in. Only label-constant
    partitions are formed. Raises CumulantError when a label occurs in the
    word more often than it has cumulants.

    Ints and Fractions run on integers (see the module docstring): tau(w)
    is a Fraction when, for some label l, one of its first count_l(w)
    moments is, and an int otherwise. A float in any label runs the sum on
    the values as given.
    """
    laws = {label: list(m) for label, m in moments_by_label.items()}
    exact = {label: _exact(m) for label, m in laws.items()}
    if None in exact.values():
        return _FreeJoint({label: moments_to_cumulants(m) for label, m in laws.items()})
    cumulants, scales = {}, {}
    for label, m in exact.items():
        _check_length(len(m))
        scaled, c, first = _scaled(m)
        cumulants[label], scales[label] = _recursion(scaled, True), (c, first)
    return _FreeJoint(cumulants, scales)


class _FreeJoint:
    """The tau of `free_joint_functional`: per-label cumulants (scaled to
    integers when `scales` gives each label's (c, first Fraction index)) and
    memo dicts held by the instance, so no reference cycle outlives a call."""

    def __init__(self, cumulants, scales=None):
        self.cumulants, self.scales, self.joints, self.blocks = cumulants, scales, {}, {}

    def __call__(self, word):
        word = tuple(word)
        counts = {label: word.count(label) for label in dict.fromkeys(word)}
        for label, count in counts.items():
            if count > len(self.cumulants.get(label, ())):
                raise CumulantError(f"cumulant of order {count} required for {label!r}")
        value = self.joint(word)
        if self.scales is None:
            return value
        den, fraction = 1, False
        for label, count in counts.items():
            c, first = self.scales[label]
            den, fraction = den * c**count, fraction or count > first
        return Fraction(value, den) if fraction else value // den

    def joint(self, word):
        if word not in self.joints:
            self.joints[word] = self.block(word[0], word[1:], 1) if word else 1
        return self.joints[word]

    def block(self, label, rest, size):
        # the first letter's block has `size` letters, the last just before
        # `rest`: close it here, or extend it to a later `label` in `rest`
        key = (label, rest, size)
        if key not in self.blocks:
            total = self.cumulants[label][size - 1] * self.joint(rest)
            for i, letter in enumerate(rest):
                if letter == label:
                    extended = self.block(label, rest[i + 1 :], size + 1)
                    total = total + self.joint(rest[:i]) * extended
            self.blocks[key] = total
        return self.blocks[key]


def power_sum_joint_cumulant(powers, moments, count):
    """Joint cumulant of power sums of `count` free identically distributed terms.

    For one summand X with the given moments, computes
    R(X^u(1), ..., X^u(k)) by `mixed_free_cumulant`; the joint cumulant of the sums
    over `count` free copies is count times that, since mixed cumulants
    across distinct summands vanish. Also returns the defect
    count * (R(...) - m_(u(1)+...+u(k))), the quantity whose vanishing in the
    limit drives joint convergence of the variation tuple.

    Ints and Fractions run on the integers c^j m_j (`_scaled`), and both
    values are divided once, by c^(u(1)+...+u(k)): they are Fractions when
    a moment the recursion reads is one, and ints otherwise. A float among
    the moments it may read runs it on the values as given.
    """
    powers = _integers(powers, 1, "powers", CumulantError)
    count = _integer(count, 1, "count", CumulantError)
    moments, degree = list(moments), sum(powers)
    exact = _exact(moments[:degree])
    scaled, c, _ = (moments, 1, 0) if exact is None else _scaled(exact)
    tau = word_functional_from_moments(scaled)
    # tau rejects a word beyond the supplied moments
    r_one = mixed_free_cumulant(powers, tau)
    values = count * r_one, count * (r_one - tau(powers))
    if exact is None:
        return values
    # R is homogeneous of degree sum(powers) under m_j -> c^j m_j, and reads
    # m_j for each sum j of a nonempty subsequence of the powers
    sums = {0}
    for u in powers:
        sums |= {j + u for j in sums}
    den = c**degree
    if any(isinstance(exact[j - 1], Fraction) for j in sums - {0}):
        return tuple(Fraction(v, den) for v in values)
    return tuple(v // den for v in values)


def free_poisson_moments(lam, n: int) -> list:
    """First n moments of the free Poisson law with rate lam (all cumulants lam)."""
    _real(lam, "lam", CumulantError)
    return cumulants_to_moments([lam] * _integer(n, 1, "n", CumulantError))


__all__ = [
    "CumulantError",
    "cumulants_to_moments",
    "free_joint_functional",
    "free_poisson_moments",
    "mixed_free_cumulant",
    "moments_to_cumulants",
    "power_sum_joint_cumulant",
    "word_functional_from_moments",
]
