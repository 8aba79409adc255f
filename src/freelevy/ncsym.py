"""Symmetric polynomials in non-commuting variables, with exact coefficients.

Alphabets are graded families of generators: power sums ("p", k) of degree k,
letters ("x", i) of degree 1, variation symbols ("y", j) of degree j, and
process symbols ("X", j) of degree j used by the n-fold integral recursion.
Words are stored in run-length form, tuples of (generator, exponent) with no
two adjacent pairs sharing a generator, so x1*x1 and x1^2 are the same term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .measures import _integer
from .partitions import Composition, Partition, PartitionError, compositions

LETTER_EXPANSION_MAX_N = 6
LETTER_EXPANSION_MAX_DEGREE = 8
P_BASIS_MAX_DEGREE = 20
SERIES_MAX_ORDER = 12

_GRADE_ONE_FAMILIES = {"x"}


class NCSymError(ValueError):
    """Bound violation or alphabet mismatch in the nc-polynomial algebra."""


def generator_degree(gen) -> int:
    family, index = gen
    return 1 if family in _GRADE_ONE_FAMILIES else index


def generator_name(gen) -> str:
    family, index = gen
    if family == "X":
        return "X" if index == 1 else f"X{index}"
    return f"{family}{index}"


def word_degree(word) -> int:
    return sum(generator_degree(g) * e for g, e in word)


def _normalize(pairs):
    out = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1] = (gen, out[-1][1] + exp)
        else:
            out.append((gen, exp))
    return tuple(out)


def _flatten(word):
    flat = []
    for gen, exp in word:
        flat.extend([gen] * exp)
    return tuple(flat)


def _term_key(word):
    return (word_degree(word), _flatten(word))


class NCPolynomial:
    """Formal linear combination of words over one graded alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms=None):
        """`terms` maps words to coefficients; words that coincide in
        run-length form have their coefficients added."""
        self.alphabet = alphabet
        self.terms = {}
        self._add_terms(
            (_normalize(word), Fraction(coeff)) for word, coeff in dict(terms or {}).items()
        )

    def _add_terms(self, terms) -> "NCPolynomial":
        """Add (run-length word, Fraction coefficient) pairs in place and
        return self; words are not normalized again, and words whose
        coefficient sums to zero are dropped."""
        summed = self.terms
        for word, coeff in terms:
            if word in summed:
                coeff += summed[word]
            if coeff:
                summed[word] = coeff
            else:
                summed.pop(word, None)
        return self

    @classmethod
    def zero(cls, alphabet: str) -> "NCPolynomial":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: str) -> "NCPolynomial":
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def generator(cls, alphabet: str, gen, coeff=1) -> "NCPolynomial":
        return cls(alphabet, {((gen, 1),): Fraction(coeff)})

    def _check_compatible(self, other):
        if self.alphabet != other.alphabet:
            raise NCSymError(
                f"alphabet mismatch: {self.alphabet!r} vs {other.alphabet!r}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = NCPolynomial(self.alphabet)
        out.terms.update(self.terms)
        return out._add_terms(other.terms.items())

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = ((w, c * other) for w, c in self.terms.items())
            return NCPolynomial(self.alphabet)._add_terms(terms)
        self._check_compatible(other)
        return NCPolynomial(self.alphabet)._add_terms(
            (_normalize(w1 + w2), c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, NCPolynomial)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max((word_degree(w) for w in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def rename(self, mapping, alphabet: str) -> "NCPolynomial":
        """Apply a generator -> generator substitution (e.g. y_j -> p_j)."""
        return NCPolynomial(alphabet)._add_terms(
            (_normalize((mapping(g), e) for g, e in word), c) for word, c in self.terms.items()
        )

    def evaluate(self, values, one=None):
        """Evaluate with numbers or matrices substituted for the generators.

        `values` maps generators to values; matrix-valued generators combine
        with the matrix product. `one` is the multiplicative unit for the
        empty word; it defaults to 1 and must be supplied (e.g. an identity
        matrix) when evaluating with matrices and a constant term is present.
        """

        def mul(a, b):
            try:
                return a @ b
            except TypeError:
                return a * b

        total = None
        for word, coeff in self.sorted_terms():
            if word:
                factor = None
                for gen, exp in word:
                    v = values[gen]
                    for _ in range(exp):
                        factor = v if factor is None else mul(factor, v)
                term = float(coeff) * factor
            else:
                if one is None:
                    one = 1
                term = float(coeff) * one
            total = term if total is None else total + term
        if total is None:
            return 0.0 if one is None else 0.0 * one
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (word, coeff) in enumerate(self.sorted_terms()):
            mag = abs(coeff)
            body = "*".join(generator_name(g) for g in _flatten(word)) or "1"
            if mag != 1 or not word:
                body = f"{mag}*{body}" if word else str(mag)
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"NCPolynomial({self.alphabet!r}, {str(self)})"


def q_basis(sigma: Partition) -> NCPolynomial:
    """The monomial p_|V1| p_|V2| ... read off an interval partition."""
    word = tuple((("p", size), 1) for size in composition_of(sigma).parts)
    return NCPolynomial("p", {word: Fraction(1)})


def p_basis(sigma: Partition) -> NCPolynomial:
    """Distinct-neighbor polynomial of an interval partition, in power sums.

    P_sigma = sum over interval partitions pi >= sigma of
    (-1)^(|sigma| - |pi|) times the ordered word of block sizes of pi;
    coarsenings correspond to merging consecutive blocks of sigma.
    """
    sizes = composition_of(sigma).parts
    _integer(sigma.n, 1, "the p_basis degree", NCSymError, P_BASIS_MAX_DEGREE)
    r = len(sizes)

    def terms():
        for merge in compositions(r):
            word, pos = [], 0
            for part in merge.parts:
                word.append((("p", sum(sizes[pos : pos + part])), 1))
                pos += part
            yield _normalize(word), Fraction((-1) ** (r - len(merge.parts)))

    return NCPolynomial("p")._add_terms(terms())


def _letter_count(degree: int, n_letters) -> int:
    """n_letters as an int, when it and the degree are within the expansion bounds."""
    n_letters = _integer(n_letters, 1, "letters", NCSymError, LETTER_EXPANSION_MAX_N)
    _integer(degree, 0, "the total degree", NCSymError, LETTER_EXPANSION_MAX_DEGREE)
    return n_letters


def expand_letters(poly: NCPolynomial, n_letters: int) -> NCPolynomial:
    """Brute-force oracle: substitute p_k = x_1^k + ... + x_N^k and expand."""
    if poly.alphabet != "p":
        raise NCSymError("expand_letters acts on p-alphabet polynomials")
    n_letters = _letter_count(poly.degree(), n_letters)

    def terms():
        for word, coeff in poly.terms.items():
            flat = _flatten(word)  # sequence of ("p", k) generators
            for letters in product(range(1, n_letters + 1), repeat=len(flat)):
                pairs = ((("x", i), gen[1]) for i, gen in zip(letters, flat))
                yield _normalize(pairs), coeff

    return NCPolynomial("x")._add_terms(terms())


def distinct_neighbor_bruteforce(u: Composition, n_letters: int) -> NCPolynomial:
    """Sum of x_i(1)^u(1) ... x_i(r)^u(r) over tuples with distinct neighbors."""
    n_letters = _letter_count(u.degree, n_letters)
    r = len(u.parts)
    words = []

    def rec(pos, prev, word):
        if pos == r:
            words.append((tuple(word), Fraction(1)))
            return
        for i in range(1, n_letters + 1):
            if i != prev:
                word.append((("x", i), u.parts[pos]))
                rec(pos + 1, i, word)
                word.pop()

    rec(0, 0, [])
    return NCPolynomial("x")._add_terms(words)


def stochastic_integral_poly(k: int) -> NCPolynomial:
    """Right side of the k-fold integral identity, in variation symbols y_j.

    sum_(j=1..k) (-1)^(k-j) sum over compositions (m_1..m_j) of k of
    y_(m_1) ... y_(m_j).
    """
    k = _integer(k, 1, "k", NCSymError, SERIES_MAX_ORDER)
    return NCPolynomial("y")._add_terms(
        (_normalize((("y", m), 1) for m in c.parts), Fraction((-1) ** (k - len(c.parts))))
        for c in compositions(k)
    )


def psi_poly(n: int) -> NCPolynomial:
    """n-fold stochastic integral of a mean-t-normalized process.

    psi_0 = 1 and
    psi_n = X psi_(n-1)
            + sum_(j=2..n) (-1)^(j-1) sum_(k=0..n-j) C(k+j-2, j-2)
              X^(j) psi_(n-j-k),
    with X^(j) acting from the left, in the written order.
    """
    n = _integer(n, 0, "n", NCSymError, SERIES_MAX_ORDER)
    psis = [NCPolynomial.one("X")]
    x1 = NCPolynomial.generator("X", ("X", 1))
    for m in range(1, n + 1):
        acc = x1 * psis[m - 1]
        for j in range(2, m + 1):
            xj = NCPolynomial.generator("X", ("X", j))
            sign = (-1) ** (j - 1)
            for k in range(0, m - j + 1):
                weight = comb(k + j - 2, j - 2)
                acc = acc + (sign * weight) * (xj * psis[m - j - k])
        psis.append(acc)
    return psis[n]


def composition_of(sigma: Partition) -> Composition:
    try:
        return Composition.from_partition(sigma)
    except PartitionError as exc:
        raise NCSymError(str(exc)) from None


__all__ = [
    "NCPolynomial",
    "NCSymError",
    "composition_of",
    "distinct_neighbor_bruteforce",
    "expand_letters",
    "generator_degree",
    "generator_name",
    "p_basis",
    "psi_poly",
    "q_basis",
    "stochastic_integral_poly",
    "word_degree",
]
