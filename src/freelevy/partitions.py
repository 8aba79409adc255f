"""Set partitions, non-crossing and interval lattices, and their Mobius functions.

Partitions of {1..n} are kept in a canonical form (blocks sorted by least
element, elements ascending) so that equality and hashing are well defined.
Enumeration of NC(n) is constructive (no filtering of all set partitions):
the block containing 1 splits the rest into contiguous gaps which are
partitioned independently, so the work is proportional to the output size.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb


class PartitionError(ValueError):
    """Invalid partition input (bad cover, out-of-range size, order violation)."""


NC_ENUMERATION_BOUND = 14
INT_ENUMERATION_BOUND = 30


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class Partition:
    """A partition of {1..n} with canonically ordered blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        if n < 1:
            raise PartitionError(f"ground set size must be >= 1, got {n}")
        canon = tuple(tuple(sorted(b)) for b in blocks)
        canon = tuple(sorted(canon, key=lambda b: b[0]))
        seen = set()
        for b in canon:
            if not b:
                raise PartitionError("empty block")
            for x in b:
                if not (1 <= x <= n) or x in seen:
                    raise PartitionError(f"blocks do not partition {{1..{n}}}")
                seen.add(x)
        if len(seen) != n:
            raise PartitionError(f"blocks do not cover {{1..{n}}}")
        self.n = n
        self.blocks = canon

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        body = "".join("{%s}" % ",".join(map(str, b)) for b in self.blocks)
        return f"Partition({self.n}, {body})"

    def block_of(self) -> dict:
        """Map each element to the index of its block."""
        owner = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                owner[x] = i
        return owner

    def block_sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def is_noncrossing(self) -> bool:
        # quadruple scan: i<j<k<l with i,k together and j,l together elsewhere
        owner = self.block_of()
        n = self.n
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
            if owner[i] == owner[k] and owner[j] == owner[l] and owner[i] != owner[j]:
                return False
        return True

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] == len(b) - 1 for b in self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True if self <= other in the refinement order."""
        if self.n != other.n:
            return False
        owner = other.block_of()
        return all(len({owner[x] for x in b}) == 1 for b in self.blocks)


def zero_partition(n: int) -> Partition:
    return Partition(n, [(i,) for i in range(1, n + 1)])


def one_partition(n: int) -> Partition:
    return Partition(n, [tuple(range(1, n + 1))])


class Composition:
    """An ordered tuple of positive parts, in bijection with Int(degree)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise PartitionError(f"composition parts must be >= 1, got {parts}")
        self.parts = parts

    @property
    def degree(self) -> int:
        return sum(self.parts)

    def to_partition(self) -> Partition:
        blocks, start = [], 1
        for p in self.parts:
            blocks.append(tuple(range(start, start + p)))
            start += p
        return Partition(self.degree, blocks)

    @classmethod
    def from_partition(cls, pi: Partition) -> "Composition":
        if not pi.is_interval():
            raise PartitionError(f"{pi!r} is not an interval partition")
        return cls(pi.block_sizes())

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Composition{self.parts}"


def compositions(n: int):
    """All compositions of n, in lexicographic order of the cut set."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield Composition(parts)


@lru_cache(maxsize=16)
def _nc_small(length: int):
    return tuple(_nc_blocklists(length))


def _gap_lists(length: int):
    # cache small lengths only; larger ones are cheap relative to their output
    return _nc_small(length) if length <= 9 else _nc_blocklists(length)


def _nc_blocklists(length: int):
    """Block lists (0-based tuples) of all NC partitions of range(length).

    The block containing 0 is chosen first; the remaining elements fall into
    the contiguous gaps it leaves, which cannot be joined across gaps without
    creating a crossing, so each gap is partitioned independently.
    """
    if length == 0:
        return [()]
    out = []
    rest = range(1, length)
    for size in range(0, length):
        for chosen in itertools.combinations(rest, size):
            block = (0,) + chosen
            gaps = []
            for a, b in zip(block, block[1:] + (length,)):
                if b - a > 1:
                    gaps.append((a + 1, b - a - 1))  # (offset, length)
            gap_parts = [
                [
                    tuple(tuple(x + off for x in blk) for blk in bl)
                    for bl in _gap_lists(glen)
                ]
                for off, glen in gaps
            ]
            for combo in itertools.product(*gap_parts):
                blocks = [block]
                for part in combo:
                    blocks.extend(part)
                out.append(tuple(blocks))
    return out


def enumerate_nc(n: int) -> list:
    """All non-crossing partitions of {1..n}; |result| = catalan(n)."""
    if not (1 <= n <= NC_ENUMERATION_BOUND):
        raise PartitionError(
            f"NC enumeration supports 1 <= n <= {NC_ENUMERATION_BOUND}, got {n}"
        )
    result = []
    for blocklist in _gap_lists(n):
        blocks = tuple(tuple(x + 1 for x in b) for b in blocklist)
        p = Partition.__new__(Partition)
        p.n = n
        p.blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        result.append(p)
    return result


def enumerate_int(n: int) -> list:
    """All interval partitions of {1..n}; |result| = 2^(n-1)."""
    if not (1 <= n <= INT_ENUMERATION_BOUND):
        raise PartitionError(
            f"Int enumeration supports 1 <= n <= {INT_ENUMERATION_BOUND}, got {n}"
        )
    return [c.to_partition() for c in compositions(n)]


def kreweras(pi: Partition) -> Partition:
    """Kreweras complement of a non-crossing partition.

    Uses the permutation model: blocks of pi, read cyclically in increasing
    order, give a permutation s; the complement's blocks are the cycles of
    s^(-1) composed with the long cycle (1 2 ... n).
    """
    n = pi.n
    nxt = [0] * (n + 1)
    for b in pi.blocks:
        for i, x in enumerate(b):
            nxt[x] = b[(i + 1) % len(b)]
    inv = [0] * (n + 1)
    for x in range(1, n + 1):
        inv[nxt[x]] = x
    # sk(i) = inv(c(i)) with c the long cycle
    sk = [0] * (n + 1)
    for i in range(1, n + 1):
        sk[i] = inv[i % n + 1]
    seen, blocks = [False] * (n + 1), []
    for i in range(1, n + 1):
        if not seen[i]:
            cyc, j = [], i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sk[j]
            blocks.append(tuple(sorted(cyc)))
    return Partition(n, blocks)


def _require_nc(pi: Partition, name: str):
    if not pi.is_noncrossing():
        raise PartitionError(f"{name} is a crossing partition")


def _mobius_to_top(pi: Partition) -> int:
    """Mobius value of the interval [pi, 1] in NC(n)."""
    return _mobius_to_top_cached(pi.n, pi.blocks)


@lru_cache(maxsize=200_000)
def _mobius_to_top_cached(n, blocks) -> int:
    p = Partition.__new__(Partition)
    p.n = n
    p.blocks = blocks
    total = 1
    for w in kreweras(p).blocks:
        k = len(w) - 1
        total *= (-1) ** k * catalan(k)
    return total


def mobius_nc(sigma: Partition, pi: Partition) -> int:
    """Mobius function of the interval [sigma, pi] in the NC(n) lattice.

    The interval factors over the blocks of pi, and each factor [tau, 1]
    is evaluated through the Kreweras complement:
    Mob(tau, 1) = prod over blocks W of K(tau) of (-1)^(|W|-1) catalan(|W|-1).
    """
    _require_nc(sigma, "sigma")
    _require_nc(pi, "pi")
    if not sigma.refines(pi):
        raise PartitionError("sigma does not refine pi")
    total = 1
    owner = sigma.block_of()
    for v in pi.blocks:
        rank = {x: i + 1 for i, x in enumerate(v)}
        sub_ids = {}
        for x in v:
            sub_ids.setdefault(owner[x], []).append(rank[x])
        sub = Partition(len(v), [tuple(b) for b in sub_ids.values()])
        total *= _mobius_to_top(sub)
    return total


def mobius_int(sigma: Partition, pi: Partition) -> int:
    """Mobius function on Int(n): (-1)^(|sigma| - |pi|)."""
    if not (sigma.is_interval() and pi.is_interval()):
        raise PartitionError("mobius_int requires interval partitions")
    if not sigma.refines(pi):
        raise PartitionError("sigma does not refine pi")
    return (-1) ** (len(sigma) - len(pi))


def kernel(labels) -> Partition:
    """Partition of positions grouping equal labels."""
    labels = list(labels)
    if not labels:
        raise PartitionError("kernel of an empty tuple")
    groups = {}
    for i, lab in enumerate(labels, start=1):
        groups.setdefault(lab, []).append(i)
    return Partition(len(labels), [tuple(g) for g in groups.values()])


def interval_closure(pi: Partition) -> Partition:
    """Largest interval partition below pi.

    Consecutive elements stay together exactly when they share a pi-block,
    so the blocks are the maximal runs without a cut.
    """
    owner = pi.block_of()
    blocks, start = [], 1
    for x in range(2, pi.n + 1):
        if owner[x] != owner[x - 1]:
            blocks.append(tuple(range(start, x)))
            start = x
    blocks.append(tuple(range(start, pi.n + 1)))
    return Partition(pi.n, blocks)
