from fractions import Fraction

import numpy as np
import pytest

from freelevy.ncsym import (
    NCPolynomial,
    NCSymError,
    composition_of,
    distinct_neighbor_bruteforce,
    expand_letters,
    p_basis,
    psi_poly,
    q_basis,
    stochastic_integral_poly,
)
from freelevy.partitions import Composition, Partition, enumerate_int, zero_partition


def mono(alphabet, *gens):
    word = tuple((g, 1) for g in gens)
    return NCPolynomial(alphabet, {word: Fraction(1)})


# -- bases ---------------------------------------------------------------


def test_constructor_adds_words_that_normalize_to_one():
    x1 = ("x", 1)
    poly = NCPolynomial("x", {((x1, 1), (x1, 1)): 1, ((x1, 2),): 1})
    assert poly.terms == {((x1, 2),): Fraction(2)}
    assert str(poly) == "2*x1*x1"
    assert not NCPolynomial("x", {((x1, 1), (x1, 1)): 1, ((x1, 2),): -1})


def test_q_basis_reads_block_sizes():
    assert q_basis(Partition(3, [(1, 2), (3,)])) == mono("p", ("p", 2), ("p", 1))
    assert q_basis(Partition(3, [(1,), (2, 3)])) == mono("p", ("p", 1), ("p", 2))
    assert q_basis(Partition(4, [(1, 2, 3, 4)])) == mono("p", ("p", 4))
    with pytest.raises(NCSymError):
        q_basis(Partition(3, [(1, 3), (2,)]))


def test_p_basis_pairs():
    expected = mono("p", ("p", 1), ("p", 1)) - mono("p", ("p", 2))
    assert p_basis(zero_partition(2)) == expected


def test_p_basis_triples():
    expected = (
        mono("p", ("p", 1), ("p", 1), ("p", 1))
        - mono("p", ("p", 2), ("p", 1))
        - mono("p", ("p", 1), ("p", 2))
        + mono("p", ("p", 3))
    )
    assert p_basis(zero_partition(3)) == expected


def test_p_basis_merged_block():
    sigma = Partition(3, [(1, 2), (3,)])
    expected = mono("p", ("p", 2), ("p", 1)) - mono("p", ("p", 3))
    assert p_basis(sigma) == expected


def test_p_basis_rejects_crossing():
    with pytest.raises(NCSymError):
        p_basis(Partition(4, [(1, 3), (2, 4)]))
    with pytest.raises(NCSymError):
        p_basis(Partition(3, [(1, 3), (2,)]))


def test_p_basis_coefficient_sanity():
    for n in range(1, 9):
        poly = p_basis(zero_partition(n))
        ones = tuple((("p", 1), n)) if n > 1 else (("p", 1), 1)
        word_ones = ((("p", 1), n),)
        assert poly.terms[word_ones] == 1
        assert poly.terms[((("p", n), 1),)] == (-1) ** (n - 1)
        del ones


# -- letter expansion oracle ------------------------------------------------


def test_expand_letters_basic():
    p2 = mono("p", ("p", 2))
    got = expand_letters(p2, 2)
    expected = NCPolynomial(
        "x", {((("x", 1), 2),): 1, ((("x", 2), 2),): 1}
    )
    assert got == expected


def test_expand_letters_product():
    p1p1 = mono("p", ("p", 1), ("p", 1))
    got = expand_letters(p1p1, 2)
    expected = NCPolynomial(
        "x",
        {
            ((("x", 1), 2),): 1,
            ((("x", 1), 1), (("x", 2), 1)): 1,
            ((("x", 2), 1), (("x", 1), 1)): 1,
            ((("x", 2), 2),): 1,
        },
    )
    assert got == expected


def test_expand_p_basis_gives_distinct_neighbors():
    got = expand_letters(p_basis(zero_partition(2)), 2)
    expected = NCPolynomial(
        "x",
        {
            ((("x", 1), 1), (("x", 2), 1)): 1,
            ((("x", 2), 1), (("x", 1), 1)): 1,
        },
    )
    assert got == expected


def test_distinct_neighbor_examples():
    assert distinct_neighbor_bruteforce(Composition((1, 1)), 2) == NCPolynomial(
        "x",
        {
            ((("x", 1), 1), (("x", 2), 1)): 1,
            ((("x", 2), 1), (("x", 1), 1)): 1,
        },
    )
    assert distinct_neighbor_bruteforce(Composition((2,)), 3) == NCPolynomial(
        "x", {((("x", i), 2),): 1 for i in (1, 2, 3)}
    )
    assert distinct_neighbor_bruteforce(Composition((1, 2)), 2) == NCPolynomial(
        "x",
        {
            ((("x", 1), 1), (("x", 2), 2)): 1,
            ((("x", 2), 1), (("x", 1), 2)): 1,
        },
    )


def test_expansion_bounds():
    with pytest.raises(NCSymError):
        expand_letters(mono("p", ("p", 9)), 2)
    with pytest.raises(NCSymError):
        expand_letters(mono("p", ("p", 2)), 7)
    with pytest.raises(NCSymError):
        distinct_neighbor_bruteforce(Composition((9,)), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_appendix_identity_all_sigma(n):
    """expand_letters(p_basis(sigma), N) == distinct-neighbor sum, exactly."""
    for sigma in enumerate_int(n):
        u = composition_of(sigma)
        for n_letters in range(1, 5):
            lhs = expand_letters(p_basis(sigma), n_letters)
            rhs = distinct_neighbor_bruteforce(u, n_letters)
            assert lhs == rhs, (sigma, n_letters)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mobius_inversion_q_equals_sum_of_p(n):
    """Q_sigma = sum over interval partitions tau >= sigma of P_tau."""
    for sigma in enumerate_int(n):
        coarser = [tau for tau in enumerate_int(n) if sigma.refines(tau)]
        acc = NCPolynomial.zero("p")
        for tau in coarser:
            acc = acc + p_basis(tau)
        assert acc == q_basis(sigma), sigma


# -- series polynomials -------------------------------------------------------


def test_stochastic_integral_poly_small():
    assert stochastic_integral_poly(1) == mono("y", ("y", 1))
    expected3 = (
        mono("y", ("y", 1), ("y", 1), ("y", 1))
        - mono("y", ("y", 2), ("y", 1))
        - mono("y", ("y", 1), ("y", 2))
        + mono("y", ("y", 3))
    )
    assert stochastic_integral_poly(3) == expected3


@pytest.mark.parametrize("k", range(1, 9))
def test_stochastic_integral_matches_p_basis(k):
    renamed = stochastic_integral_poly(k).rename(
        lambda gen: ("p", gen[1]), "p"
    )
    assert renamed == p_basis(zero_partition(k))


def test_psi_small():
    assert psi_poly(0) == NCPolynomial.one("X")
    assert psi_poly(1) == mono("X", ("X", 1))
    expected2 = mono("X", ("X", 1), ("X", 1)) - mono("X", ("X", 2))
    assert psi_poly(2) == expected2


def test_psi_three():
    # psi_3 = X psi_2 - X2 psi_1 - X2 psi_0 + X3 psi_0
    x, x2, x3 = mono("X", ("X", 1)), mono("X", ("X", 2)), mono("X", ("X", 3))
    expected = x * (x * x - x2) - x2 * x - x2 + x3
    assert psi_poly(3) == expected


def test_bounds_on_series():
    with pytest.raises(NCSymError):
        stochastic_integral_poly(13)
    with pytest.raises(NCSymError):
        psi_poly(13)
    with pytest.raises(NCSymError):
        stochastic_integral_poly(0)


# -- printing ------------------------------------------------------------------


def test_str_formats():
    assert str(p_basis(zero_partition(2))) == "p1*p1 - p2"
    assert str(psi_poly(2)) == "X*X - X2"
    assert str(NCPolynomial.zero("p")) == "0"


# -- matrix evaluation ---------------------------------------------------------


def test_matrix_identity_distinct_vs_integral_poly():
    """Substituting Hermitian matrices, the distinct-neighbor sum equals the
    integral polynomial with y_j -> sum_i X_i^j, to 1e-10 relative error."""
    rng = np.random.default_rng(42)
    n_letters, k, d = 3, 4, 6
    mats = []
    for _ in range(n_letters):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((a + a.conj().T) / 2)

    u = Composition((1,) * k)
    lhs_poly = distinct_neighbor_bruteforce(u, n_letters)
    lhs = lhs_poly.evaluate(
        {("x", i + 1): mats[i] for i in range(n_letters)}, one=np.eye(d)
    )

    power_sums = {
        ("y", j): sum(np.linalg.matrix_power(m, j) for m in mats)
        for j in range(1, k + 1)
    }
    rhs = stochastic_integral_poly(k).evaluate(power_sums, one=np.eye(d))

    err = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
    assert err <= 1e-10


def test_scalar_evaluation():
    poly = p_basis(zero_partition(2))
    # p1 -> 3, p2 -> 5 gives 3*3 - 5 = 4
    assert poly.evaluate({("p", 1): 3.0, ("p", 2): 5.0}) == pytest.approx(4.0)
