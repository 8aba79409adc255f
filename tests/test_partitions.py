import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelevy.partitions import (
    Composition,
    Partition,
    PartitionError,
    catalan,
    compositions,
    enumerate_int,
    enumerate_nc,
    interval_closure,
    kernel,
    kreweras,
    mobius_int,
    mobius_nc,
    one_partition,
    zero_partition,
)


def all_set_partitions(n):
    """Brute-force oracle: every set partition of {1..n}."""
    if n == 0:
        yield []
        return
    for rest in all_set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1 :]
        yield rest + [[n]]


def crossing_free(blocks):
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    elems = sorted(owner)
    for i, j, k, l in itertools.combinations(elems, 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]:
            return False
    return True


def test_catalan_counts():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_int_counts():
    for n in range(1, 11):
        assert len(enumerate_int(n)) == 2 ** (n - 1)


def test_nc_n1_trivial():
    assert enumerate_nc(1) == [Partition(1, [(1,)])]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_nc_matches_bruteforce_filter(n):
    expected = {
        Partition(n, blocks)
        for blocks in all_set_partitions(n)
        if crossing_free(blocks)
    }
    got = enumerate_nc(n)
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_crossing_partition_absent_n4():
    crossing = Partition(4, [(1, 3), (2, 4)])
    assert crossing not in enumerate_nc(4)
    assert not crossing.is_noncrossing()


def test_enumeration_bounds():
    with pytest.raises(PartitionError):
        enumerate_nc(0)
    with pytest.raises(PartitionError):
        enumerate_nc(15)
    with pytest.raises(PartitionError):
        enumerate_int(0)
    with pytest.raises(PartitionError):
        enumerate_int(31)


# sizes that are not integers: each once raised a bare TypeError, passed as
# a float or, as a bool, as 1
NOT_SIZES = [2.5, 3.0, True, "3", None]


def test_catalan_takes_integer_indices_only():
    for n in [*NOT_SIZES, 3.5, -1]:
        with pytest.raises(PartitionError, match="the Catalan index"):
            catalan(n)
    assert catalan(np.int64(4)) == 14 and catalan(0) == 1


def test_enumerate_nc_takes_integer_sizes_only():
    for n in NOT_SIZES:
        with pytest.raises(PartitionError, match="ground set size"):
            enumerate_nc(n)
    assert enumerate_nc(np.int64(3)) == enumerate_nc(3)
    assert all(type(p.n) is int for p in enumerate_nc(np.int64(3)))


def test_enumerate_int_takes_integer_sizes_only():
    for n in NOT_SIZES:
        with pytest.raises(PartitionError, match="ground set size"):
            enumerate_int(n)
    assert enumerate_int(np.int64(3)) == enumerate_int(3)


def test_compositions_take_integers_from_one():
    for n in [*NOT_SIZES, 0, -2]:
        with pytest.raises(PartitionError, match="the composed integer"):
            list(compositions(n))
    assert list(compositions(np.int64(3))) == list(compositions(3))


def test_partition_size_is_an_integer():
    for n in [3.0, True, "3"]:
        with pytest.raises(PartitionError, match="ground set size"):
            Partition(n, [(1,)] if n is True else [(1, 2), (3,)])
    p = Partition(np.int64(3), [(1, 2), (3,)])
    assert p == Partition(3, [(1, 2), (3,)]) and type(p.n) is int


def test_int_subset_of_nc():
    for n in range(1, 8):
        ncs = set(enumerate_nc(n))
        for p in enumerate_int(n):
            assert p in ncs


def test_composition_bijection():
    for n in range(1, 8):
        parts = enumerate_int(n)
        comps = [Composition.from_partition(p) for p in parts]
        assert len(set(comps)) == len(parts)
        for c, p in zip(comps, parts):
            assert c.to_partition() == p


@pytest.mark.parametrize("parts", [[1.5, 2.9], [2.0, 1], [True, 1], ["2"]],
                         ids=["fractional", "float", "bool", "string"])
def test_composition_rejects_parts_that_are_not_integers(parts):
    # a part is never truncated: 1.5 once became 1
    with pytest.raises(PartitionError,
                       match="^composition parts must be a nonempty list of integers >= 1"):
        Composition(parts)


def test_composition_normalizes_numpy_integers():
    import numpy as np

    parts = Composition([np.int64(2), 1]).parts
    assert parts == (2, 1) and all(type(p) is int for p in parts)


# -- Mobius functions --------------------------------------------------------


def interval_elements(sigma, pi, universe):
    return [t for t in universe if sigma.refines(t) and t.refines(pi)]


def test_mobius_nc_examples():
    p2 = enumerate_nc(2)
    assert mobius_nc(one_partition(2), one_partition(2)) == 1
    assert mobius_nc(zero_partition(2), one_partition(2)) == -1
    assert mobius_nc(zero_partition(4), one_partition(4)) == -5
    del p2


def test_mobius_nc_order_errors():
    with pytest.raises(PartitionError):
        mobius_nc(one_partition(3), zero_partition(3))
    with pytest.raises(PartitionError):
        mobius_nc(Partition(4, [(1, 3), (2, 4)]), one_partition(4))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_mobius_nc_recursion(n):
    """Sum of Mob(sigma, tau) over tau in [sigma, pi] vanishes for sigma < pi."""
    universe = enumerate_nc(n)
    import random

    rng = random.Random(7)
    pairs = [
        (s, p)
        for s in universe
        for p in universe
        if s.refines(p) and s != p
    ]
    if n >= 6:
        pairs = rng.sample(pairs, 300)
    for sigma, pi in pairs:
        total = sum(mobius_nc(sigma, tau) for tau in interval_elements(sigma, pi, universe))
        assert total == 0, (sigma, pi)


def test_mobius_nc_against_recursive_definition():
    """Independent oracle: solve the defining recursion on the full lattice."""
    for n in range(2, 6):
        universe = enumerate_nc(n)
        top = one_partition(n)
        # mu[t] = Mob(t, top), via Mob(pi, pi) = 1, sum over [t, top] = 0;
        # coarsest first so every mu[u] with u > t is known when t is reached
        order = sorted(universe, key=lambda p: len(p))
        mu = {}
        for t in order:
            above = [u for u in universe if t.refines(u)]
            if t == top:
                mu[t] = 1
            else:
                mu[t] = -sum(mu[u] for u in above if u != t)
        for t in universe:
            assert mobius_nc(t, top) == mu[t], t


def test_mobius_int_sign_rule():
    s = zero_partition(3)
    assert mobius_int(s, s) == 1
    assert mobius_int(s, one_partition(3)) == 1
    assert mobius_int(s, Partition(3, [(1, 2), (3,)])) == -1
    with pytest.raises(PartitionError):
        mobius_int(Partition(3, [(1, 3), (2,)]), one_partition(3))
    with pytest.raises(PartitionError):
        mobius_int(one_partition(3), zero_partition(3))


def test_enumerations_are_canonical():
    for n in (3, 5, 6):
        for p in enumerate_nc(n):
            mins = [b[0] for b in p.blocks]
            assert mins == sorted(mins)
            assert all(list(b) == sorted(b) for b in p.blocks)


def test_kreweras_block_count():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            k = kreweras(p)
            assert len(p) + len(k) == n + 1
            assert k.is_noncrossing()


# -- kernel and interval closure ---------------------------------------------


def test_kernel():
    assert kernel([7, 7, 3]) == Partition(3, [(1, 2), (3,)])
    assert kernel(["a"]) == Partition(1, [(1,)])
    with pytest.raises(PartitionError):
        kernel([])


def test_interval_closure_examples():
    assert interval_closure(Partition(3, [(1, 3), (2,)])) == zero_partition(3)
    p = Partition(4, [(1, 2), (3, 4)])
    assert interval_closure(p) == p


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_interval_closure_maximality_by_exhaustion(n):
    import random

    rng = random.Random(3)
    parts = [Partition(n, blocks) for blocks in all_set_partitions(n)]
    if len(parts) > 200:
        parts = rng.sample(parts, 200)
    intervals = enumerate_int(n)
    for pi in parts:
        closure = interval_closure(pi)
        assert closure.is_interval()
        assert closure.refines(pi)
        for tau in intervals:
            if tau.refines(pi) and tau != closure:
                # no strictly coarser interval partition lies below pi
                assert not closure.refines(tau) or closure == tau


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=9))
@settings(max_examples=150)
def test_kernel_groups_equal_labels(labels):
    p = kernel(labels)
    owner = p.block_of()
    for i, a in enumerate(labels, start=1):
        for j, b in enumerate(labels, start=1):
            assert (owner[i] == owner[j]) == (a == b)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=150)
def test_canonical_form_is_order_insensitive(n, data):
    labels = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    )
    groups = {}
    for i, lab in enumerate(labels, start=1):
        groups.setdefault(lab, []).append(i)
    blocks = list(groups.values())
    shuffled = data.draw(st.permutations(blocks))
    shuffled = [list(reversed(b)) for b in shuffled]
    assert Partition(n, blocks) == Partition(n, shuffled)


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition(3, [(1, 2)])
    with pytest.raises(PartitionError):
        Partition(3, [(1, 2), (2, 3)])
    with pytest.raises(PartitionError):
        Partition(0, [])


def test_compositions_count():
    assert len(list(compositions(5))) == 16
