"""Exact integer-partition counting and enumeration.

Counts are exact big integers: P(n) via the Euler pentagonal recurrence,
Q(n) (distinct parts) from the P table by the same theorem, R(n) = P(n) -
Q(n), and the parts>=2 variants P(n;1), Q(n;1), R(n;1) via the subtraction
and alternating recurrences.  A direct enumerator lists the partitions,
and the tests use its lengths as an independent oracle for the counts;
at run time flags.class_census recounts them by Euler's products
instead.  The Hardy-Littlewood leading terms give the asymptotic
cross-check.

`Partition(...)` checks and sorts whatever it is given.  The one unchecked
path is the private `_trusted`, which wraps a tuple that is already sorted
and made of positive ints; only `enumerate_partitions` (on the enumerator's
own tuples) and `special.family` (on sorted doubled bases, whose invariants
it re-checks) use it.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import DomainError

__all__ = [
    "Partition",
    "PartitionCounts",
    "count_p",
    "count_q",
    "count_p_ge2",
    "count_q_ge2",
    "partition_counts",
    "enumerate_partitions",
    "asymptotic_p",
    "asymptotic_q",
]


@dataclass(frozen=True, order=True, slots=True)
class Partition:
    """A partition of n in canonical (non-decreasing) form.

    The constructor accepts parts in any order and sorts them; every other
    module assumes the canonical form.
    """

    parts: tuple

    def __post_init__(self):
        try:
            parts = tuple(self.parts)
        except TypeError:
            msg = f"parts must be an iterable of integers, got {self.parts!r}"
            raise DomainError(msg) from None
        if not parts:
            raise DomainError("a partition needs at least one part")
        # checked before sorting, which would raise TypeError on mixed types
        for v in parts:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise DomainError(f"parts must be positive integers, got {v!r}")
        object.__setattr__(self, "parts", tuple(sorted(parts)))

    @property
    def n(self) -> int:
        """The partitioned number (ambient dimension)."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def min_part(self) -> int:
        return self.parts[0]

    def prefix_sums(self) -> tuple:
        """Cumulative sums n_1, n_1+n_2, ..., n (the flag dimensions)."""
        return tuple(accumulate(self.parts))

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.parts) + "}"


def _trusted(parts):
    """A Partition of a tuple already sorted and made of positive ints, unchecked."""
    p = object.__new__(Partition)
    object.__setattr__(p, "parts", parts)
    return p


def _common_n(p1: Partition, p2: Partition) -> int:
    """The number both partitions partition, each side summed once; refuses two different ones."""
    n, m = sum(p1.parts), sum(p2.parts)
    if n != m:
        raise DomainError(f"partitions of different numbers: {n} vs {m}")
    return n


@dataclass(frozen=True)
class PartitionCounts:
    """The six census counts for one n, all exact.

    r = p - q and r_ge2 = p_ge2 - q_ge2 count the partitions with at least
    one repeated part, which are exactly the flag classes with a nontrivial
    Weyl group.
    """

    n: int
    p: int
    q: int
    r: int
    p_ge2: int
    q_ge2: int
    r_ge2: int


# Memo tables are extended under a lock; reads of already-filled prefixes
# are safe without one.
_lock = threading.Lock()
_p_table = [1]  # P(k), k >= 0, P(0) = 1 seeds the recurrence
_q_table = [1]  # Q(k), k >= 0, derived from _p_table


def _pentagonals(limit):
    """Pentagonal pairs k(3k-1)/2, k(3k+1)/2 for k = 1, 2, ... while the first <= limit."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        out += (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        k += 1
    return out


def _signed_sum(t, m, offsets):
    """t[m-o1] + t[m-o2] - t[m-o3] - t[m-o4] + ... over the sorted offsets <= m."""
    vals = [t[m - o] for o in offsets[: bisect_right(offsets, m)]]
    return sum(vals[0::4]) + sum(vals[1::4]) - sum(vals[2::4]) - sum(vals[3::4])


def _p_upto(n):
    with _lock:
        t = _p_table
        if len(t) <= n:
            offsets = _pentagonals(n)
            while len(t) <= n:
                t.append(_signed_sum(t, len(t), offsets))
        return t


def _q_upto(n):
    """Q from the P table: prod(1 + x^k) = E(x^2)/E(x), E(x) = prod(1 - x^k).

    Multiplying the generating function of P by E(x^2) gives
    Q(m) = P(m) - P(m-2) - P(m-4) + P(m-10) + P(m-14) - ..., the offsets
    being twice the generalized pentagonal numbers.
    """
    p = _p_upto(n)
    with _lock:
        t = _q_table
        if len(t) <= n:
            offsets = [2 * g for g in _pentagonals(n // 2)]
            while len(t) <= n:
                m = len(t)
                t.append(p[m] - _signed_sum(p, m, offsets))
        return t


def _check_positive(n, name="n"):
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"{name} must be a positive integer, got {n!r}")


def _check_ge2(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n!r}")


def count_p(n: int) -> int:
    """Number of unrestricted partitions of n (exact)."""
    _check_positive(n)
    return _p_upto(n)[n]


def count_q(n: int) -> int:
    """Number of partitions of n into pairwise distinct parts."""
    _check_positive(n)
    return _q_upto(n)[n]


def count_p_ge2(n: int) -> int:
    """Partitions of n with every part >= 2, via P(n) - P(n-1)."""
    _check_ge2(n)
    t = _p_upto(n)
    return t[n] - t[n - 1]


def count_q_ge2(n: int) -> int:
    """Distinct-part partitions of n with every part >= 2.

    Unrolls the alternating recurrence Q(m;1) = Q(m) - Q(m-1;1) from
    Q(1;1) = 0 into Q(n) - Q(n-1) + ... +- Q(2).  The test suite
    cross-checks against direct enumeration.
    """
    _check_ge2(n)
    q = _q_upto(n)
    return sum(q[n:1:-2]) - sum(q[n - 1 : 1 : -2])


def partition_counts(n: int) -> PartitionCounts:
    """All six counts at once; the parts>=2 triple is 0 for n = 1."""
    _check_positive(n)
    p, q = count_p(n), count_q(n)
    if n == 1:
        pg = qg = 0
    else:
        pg, qg = count_p_ge2(n), count_q_ge2(n)
    return PartitionCounts(n=n, p=p, q=q, r=p - q, p_ge2=pg, q_ge2=qg, r_ge2=pg - qg)


def _tuples(remaining, floor, distinct):
    # Non-decreasing tuples of parts >= floor, lexicographic order.  Each
    # successor merges the last two parts, raises the smaller one by 1 and
    # refills greedily with the smallest parts allowed (Kelleher and
    # O'Sullivan, "Generating All Partitions").
    step = 1 if distinct else 0
    parts, low, rest = [], floor, remaining
    while rest >= low:  # fails only at the start, when remaining < floor
        while rest - low >= low + step:
            parts.append(low)
            rest -= low
            low += step
        parts.append(rest)
        yield tuple(parts)
        if len(parts) < 2:
            return
        rest = parts.pop() + parts[-1]
        low = parts.pop() + 1


def enumerate_partitions(n: int, min_part: int = 1, distinct: bool = False) -> list:
    """All partitions of n with parts >= min_part, lexicographic.

    With distinct=True, parts are additionally pairwise distinct.  Empty
    list when nothing qualifies.  The length always equals the matching
    count_* value, which the tests exploit as an oracle.
    """
    _check_positive(n)
    _check_positive(min_part, "min_part")
    return [_trusted(t) for t in _tuples(n, min_part, distinct)]


def _leading_term(n, exponent, denominator):
    """exp(exponent) / denominator, refusing the n whose exponential overflows a float."""
    try:
        return math.exp(exponent) / denominator
    except OverflowError:
        raise DomainError(f"the leading term at n={n} does not fit a float") from None


def asymptotic_p(n: int) -> float:
    """Hardy-Littlewood leading term for P(n): exp(pi*sqrt(2n/3)) / (4n*sqrt(3)).

    Kept as the growth scale that README states and the tests hold count_p against.
    """
    _check_positive(n)
    return _leading_term(n, math.pi * math.sqrt(2.0 * n / 3.0), 4.0 * n * math.sqrt(3.0))


def asymptotic_q(n: int) -> float:
    """Hardy-Littlewood leading term for Q(n): exp(pi*sqrt(n/3)) / (4 n^(3/4) 3^(1/4)).

    Kept as the growth scale that README states and the tests hold count_q against.
    """
    _check_positive(n)
    return _leading_term(n, math.pi * math.sqrt(n / 3.0), 4.0 * n ** 0.75 * 3.0 ** 0.25)
