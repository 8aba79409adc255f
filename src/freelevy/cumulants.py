"""Moment/free-cumulant conversions and mixed free cumulants of tuples.

The single-variable conversions solve the functional equation
M(z) = 1 + sum_s kappa_s z^s M(z)^s of the moment series (Nica & Speicher,
Lectures on the Combinatorics of Free Probability, Lecture 16) order by
order: m_n = sum_(s<=n) kappa_s [z^(n-s)] M(z)^s. Each order needs only the
coefficients [z^j] M(z)^s with s + j <= n, so n orders cost O(n^3)
arithmetic operations and there is no bound on n.

Mixed cumulants of words and joint moments of free variables recurse on
the block of the first letter, with no bound on the word length; the joint
moments form only label-constant partitions. transforms.py builds its free
sum on the conversions and its free product on the joint moments.
Everything is exact when fed ints or fractions.Fraction; floats pass
through unchanged when that is what the caller supplies.
"""

from __future__ import annotations

import functools


class CumulantError(ValueError):
    """Invalid conversion request (empty sequence, undefined moments)."""


def _check_length(n: int):
    if n < 1:
        raise CumulantError("sequence must have length >= 1")


def _extend_powers(powers, moments, n: int):
    """Add the coefficients [z^j] M(z)^s with s + j = n to `powers`.

    powers[s][j] = [z^j] M(z)^s for M(z) = sum_i moments[i] z^i, with
    moments[0] = 1. On entry `powers` holds every s + j <= n - 1; the new
    coefficients read moments only up to m_(n-1).
    """
    powers[0].append(0)
    for s in range(1, n):
        j = n - s
        prev = powers[s - 1]
        powers[s].append(sum(moments[i] * prev[j - i] for i in range(j + 1)))
    powers.append([1])


def moments_to_cumulants(moments) -> list:
    """Free cumulants (kappa_1..kappa_n) from raw moments (m_1..m_n)."""
    moments = [1] + list(moments)
    _check_length(len(moments) - 1)
    kappas, powers = [], [[1]]
    for n in range(1, len(moments)):
        _extend_powers(powers, moments, n)
        rest = sum(kappas[s - 1] * powers[s][n - s] for s in range(1, n))
        kappas.append(moments[n] - rest)
    return kappas


def cumulants_to_moments(kappas) -> list:
    """Raw moments from free cumulants; exact inverse of moments_to_cumulants."""
    kappas = list(kappas)
    _check_length(len(kappas))
    moments, powers = [1], [[1]]
    for n in range(1, len(kappas) + 1):
        _extend_powers(powers, moments, n)
        moments.append(sum(kappas[s - 1] * powers[s][n - s] for s in range(1, n + 1)))
    return moments[1:]


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

    @functools.cache
    def moment(sub):
        value = tau(sub) if sub else 1
        if value is None:
            raise CumulantError(f"moment functional undefined on sub-word {sub}")
        return value

    @functools.cache
    def cumulant(sub):
        # V = sub is kappa(sub) itself; any other V has a first position j
        # that it leaves out, after the head sub[:j]
        return moment(sub) - sum(block(sub[:j], sub[j:], 1) for j in range(1, len(sub)))

    @functools.cache
    def block(head, rest, gap=0):
        # V's letters so far are `head`, the last just before `rest`: close V
        # here, or extend it to rest[i] past a gap of at least `gap` letters
        total = cumulant(head) * moment(rest)
        for i in range(gap, len(rest)):
            total = total + moment(rest[:i]) * block(head + rest[i : i + 1], rest[i + 1 :])
        return total

    return cumulant(word)


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
    """
    cumulants = {
        label: moments_to_cumulants(m) for label, m in moments_by_label.items()
    }

    @functools.cache
    def joint(word):
        return block(word[0], word[1:], 1) if word else 1

    @functools.cache
    def block(label, rest, size):
        # the first letter's block has `size` letters, the last just before
        # `rest`: close it here, or extend it to a later `label` in `rest`
        total = cumulants[label][size - 1] * joint(rest)
        for i, letter in enumerate(rest):
            if letter == label:
                total = total + joint(rest[:i]) * block(label, rest[i + 1 :], size + 1)
        return total

    def tau(word):
        word = tuple(word)
        for label in set(word):
            count = word.count(label)
            if count > len(cumulants.get(label, ())):
                raise CumulantError(f"cumulant of order {count} required for {label!r}")
        return joint(word)

    return tau


def power_sum_joint_cumulant(powers, moments, count):
    """Joint cumulant of power sums of `count` free identically distributed terms.

    For one summand X with the given moments, computes
    R(X^u(1), ..., X^u(k)) by `mixed_free_cumulant`; the joint cumulant of the sums
    over `count` free copies is count times that, since mixed cumulants
    across distinct summands vanish. Also returns the defect
    count * (R(...) - m_(u(1)+...+u(k))), the quantity whose vanishing in the
    limit drives joint convergence of the variation tuple.
    """
    powers = tuple(int(u) for u in powers)
    tau = word_functional_from_moments(moments)
    # tau rejects powers below 1 and a word beyond the supplied moments
    r_one = mixed_free_cumulant(powers, tau)
    return count * r_one, count * (r_one - tau(powers))


def free_poisson_moments(lam, n: int) -> list:
    """First n moments of the free Poisson law with rate lam (all cumulants lam)."""
    return cumulants_to_moments([lam] * n)


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
