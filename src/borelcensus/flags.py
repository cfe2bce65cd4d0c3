"""Classification of orthogonal partial flags and maximal block subgroups.

A flag class is its canonical (non-decreasing) partition; the Weyl group
of the associated block subgroup O(N_1) x ... x O(N_r) is the product of
symmetric groups permuting equal-size blocks, one per entry of
weyl(p).factors, the multiplicity table.  This module computes the
equivalence test, orbit lengths, Weyl descriptors, the class census, the
static classification of connected groups transitive on spheres, and the
signed block swaps whose fixed subspaces contribute to nodal sets.

Block indices exposed here (InvolutionSpec, phi_indices) are 1-based
positions in the canonical non-decreasing partition.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass
from itertools import combinations

from .errors import DomainError, InternalInvariantError
from .partitions import Partition, partition_counts

__all__ = [
    "InvolutionSpec",
    "WeylDescriptor",
    "SignRep",
    "ClassCensus",
    "phi_indices",
    "equivalent",
    "orbit_length",
    "weyl",
    "nontrivial_factors",
    "class_census",
    "borel_classification",
    "nodal_subspaces",
]


@dataclass(frozen=True)
class InvolutionSpec:
    """A transposition of two equal-size blocks (1-based block positions).

    Acting by -1, it fixes the subspace where the two blocks agree
    coordinate-wise, whose codimension is block_size.
    """

    block_a: int
    block_b: int
    block_size: int

    def __post_init__(self):
        for name in ("block_a", "block_b", "block_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        if self.block_a >= self.block_b:
            raise DomainError("need 1 <= block_a < block_b")

    def check(self, p: Partition):
        """Refuse a swap whose blocks are out of range for p or not both of block_size."""
        if self.block_b > p.length:
            raise DomainError(f"block indices {self.block_a}, {self.block_b} out of range for {p}")
        if not p.parts[self.block_a - 1] == p.parts[self.block_b - 1] == self.block_size:
            raise DomainError(
                f"blocks {self.block_a} and {self.block_b} of {p} are not both of size "
                f"{self.block_size}"
            )


def _check_swap(p: Partition, inv):
    """Refuse anything but an InvolutionSpec whose blocks fit p."""
    if not isinstance(inv, InvolutionSpec):
        raise DomainError(f"a block swap must be an InvolutionSpec, got {inv!r}")
    inv.check(p)


def _adjacent_swaps(parts, first=1):
    """One InvolutionSpec per adjacent equal pair of parts; parts[0] is block first.

    parts is sorted, so equal parts sit in runs and the adjacent swaps
    generate each run's symmetric group; invverify's orbit walk relies on
    this to reach every point of a Weyl orbit and to know its largest one.
    """
    for t in range(len(parts) - 1):
        if parts[t] == parts[t + 1]:
            yield InvolutionSpec(first + t, first + t + 1, parts[t])


@dataclass(frozen=True)
class WeylDescriptor:
    """Product-of-symmetric-groups structure of the normalizer quotient."""

    factors: tuple  # ((part value, multiplicity), ...) sorted by value
    order: int
    nontrivial: bool
    involutions: tuple  # one block swap per adjacent equal pair


@dataclass(frozen=True)
class SignRep:
    """Sign character of the Weyl group: one delta per factor of multiplicity >= 2.

    deltas are ordered by part value; 1 antisymmetrizes the factor, 0 keeps
    it symmetric.  Factors of multiplicity 1 admit only the trivial
    character and carry no entry.
    """

    deltas: tuple

    def __post_init__(self):
        try:
            deltas = tuple(self.deltas)
        except TypeError:
            msg = f"deltas must be an iterable of integers, got {self.deltas!r}"
            raise DomainError(msg) from None
        for d in deltas:
            if not isinstance(d, int) or isinstance(d, bool) or d not in (0, 1):
                raise DomainError(f"deltas must be the integers 0 or 1, got {d!r}")
        object.__setattr__(self, "deltas", deltas)

    @property
    def trivial(self) -> bool:
        return all(d == 0 for d in self.deltas)


@dataclass(frozen=True)
class ClassCensus:
    """Flag-class counts for one n, split by Weyl-group triviality."""

    n: int
    total: int
    trivial_weyl: int
    nontrivial_weyl: int
    total_ge2: int
    trivial_weyl_ge2: int
    nontrivial_weyl_ge2: int


def phi_indices(p: Partition, value: int) -> frozenset:
    """1-based positions of the blocks of the given size; empty if absent."""
    return frozenset(j + 1 for j, v in enumerate(p.parts) if v == value)


def equivalent(p1: Partition, p2: Partition) -> bool:
    """Whether two flags are equivalent (conjugate subgroups): their canonical partitions agree."""
    if p1.n != p2.n:
        raise DomainError(f"partitions of different numbers: {p1.n} vs {p2.n}")
    return p1 == p2


def orbit_length(p: Partition) -> int:
    """Length of the index-permutation orbit: r! / prod over values of mult!."""
    num = math.factorial(p.length)
    for m in Counter(p.parts).values():
        num //= math.factorial(m)
    return num


def weyl(p: Partition) -> WeylDescriptor:
    """Weyl descriptor of the flag: factors, order, canonical involutions."""
    factors = tuple(sorted(Counter(p.parts).items()))
    order = math.prod(math.factorial(m) for _, m in factors)
    return WeylDescriptor(
        factors=factors,
        order=order,
        nontrivial=order >= 2,
        involutions=tuple(_adjacent_swaps(p.parts)),
    )


def nontrivial_factors(p: Partition) -> tuple:
    """The Weyl factors with multiplicity >= 2, ordered by part value."""
    return tuple((v, m) for v, m in weyl(p).factors if m >= 2)


def _signed_factors(p, rho):
    """((value, multiplicity), delta) for each nontrivial Weyl factor of p."""
    factors = nontrivial_factors(p)
    if len(rho.deltas) != len(factors):
        raise DomainError(
            f"sign rep has {len(rho.deltas)} deltas but the partition has "
            f"{len(factors)} nontrivial Weyl factors"
        )
    return list(zip(factors, rho.deltas))


def _euler_recount(n):
    """P(n), Q(n), P(n;1) and Q(n;1) as coefficients of Euler's products, in O(n^2).

    p[m] and q[m] count the partitions of m into the parts added so far,
    the coefficients of prod 1/(1 - x^k) and prod (1 + x^k).  Adding part
    k is a coin-change step: p may use it again, so m runs upwards; q uses
    it at most once, so m runs downwards.  Parts 2..n come first, which
    leaves the parts >= 2 counts at m = n, then part 1.
    """
    p = [1] + [0] * n
    q = p[:]
    for k in (*range(2, n + 1), 1):
        if k == 1:
            p_ge2, q_ge2 = p[n], q[n]
        for m in range(k, n + 1):
            p[m] += p[m - k]
        for m in range(n, k - 1, -1):
            q[m] += q[m - k]
    return p[n], q[n], p_ge2, q_ge2


def class_census(n: int) -> ClassCensus:
    """Census of flag classes of n, recounted from Euler's products as a safety net.

    The six closed-form counts come from one `partition_counts` call, by
    the pentagonal recurrences.  A coin-change count of the coefficients
    of prod 1/(1 - x^k) and prod (1 + x^k), for k >= 1 and k >= 2,
    recounts P(n), Q(n), P(n;1) and Q(n;1) independently of them; all six
    columns, the differences R = P - Q included, are compared with the
    closed forms, and a mismatch in any of them raises
    InternalInvariantError.  The recount is O(n^2) additions of big
    integers.
    """
    c = partition_counts(n)
    p, q, p2, q2 = _euler_recount(n)
    expected = astuple(c)[1:]
    got = (p, q, p - q, p2, q2, p2 - q2)
    if expected != got:
        raise InternalInvariantError(f"census recount mismatch at n={n}: {expected} vs {got}")
    # ClassCensus lists n and the six counts in PartitionCounts' order:
    # total = P, trivial Weyl = Q, nontrivial = R, then the same for parts >= 2.
    return ClassCensus(*astuple(c))


def borel_classification(n: int) -> list:
    """Connected groups acting transitively on the sphere of R^n, as name pairs.

    Static lookup keyed on the parity of n and s = n/2: (SO(n), SO(n-1))
    always; (G2, SU(3)) at n = 7; (SU(s), SU(s-1)) for even n with s >= 2;
    (Sp(s/2), Sp(s/2 - 1)) when additionally s is even; the two spinor
    pairs at n = 16 and n = 8.  Names are opaque strings.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"the sphere classification needs n >= 2, got {n!r}")
    out = [(f"SO({n})", f"SO({n - 1})")]
    if n == 7:
        out.append(("G2", "SU(3)"))
    if n % 2 == 0:
        s = n // 2
        if s >= 2:
            out.append((f"SU({s})", f"SU({s - 1})"))
            if s % 2 == 0:
                out.append((f"Sp({s // 2})", f"Sp({s // 2 - 1})"))
    if n == 16:
        out.append(("Spin(9)", "Spin(7)"))
    if n == 8:
        out.append(("Spin(7)", "G2"))
    return out


def nodal_subspaces(p: Partition, rho: SignRep) -> list:
    """The signed block swaps, one per transposition, as InvolutionSpecs.

    For every Weyl factor carrying delta = 1 and every unordered pair of
    blocks of that size, the swap fixes the subspace where the two blocks
    agree coordinate-wise; its codimension is the block size.
    """
    signed = _signed_factors(p, rho)
    if not signed:
        raise DomainError("the Weyl group is trivial; no signed swaps exist")
    out = []
    for (value, _m), delta in signed:
        if delta != 1:
            continue
        for a, b in combinations(sorted(phi_indices(p, value)), 2):
            out.append(InvolutionSpec(block_a=a, block_b=b, block_size=value))
    return out
