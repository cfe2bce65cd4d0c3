"""The mod-4 families of double partitions with guaranteed symmetry.

For n = 4M, 4M+2, 4M+3, 4M+5 each partition of M doubles into a partition
of n whose parts are all >= 2 and whose Weyl group is nontrivial (doubling
always produces an equal pair).  Distinct bases give non-equivalent
doubles, so each family realizes exactly P(M) classes; that count is the
number of geometrically distinct solution series the construction yields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, UnsupportedDimensionError
from .partitions import _trusted, _tuples, count_p

__all__ = ["SpecialFamily", "applicable_case", "family", "solutions_count"]

_CASES = {"mod0": 0, "mod2": 2, "mod3": 3, "mod5": 5}


@dataclass(frozen=True)
class SpecialFamily:
    """All double partitions of n built from the partitions of the base M."""

    n: int
    case: str  # mod0 | mod2 | mod3 | mod5
    m: int
    members: tuple


def applicable_case(n: int):
    """Which construction applies to n, as (case, M).

    n = 5 and n < 4 admit none (the residue-1 form needs n >= 9).
    """
    if isinstance(n, int) and not isinstance(n, bool) and n >= 4:
        rem = n % 4
        if rem == 0:
            return "mod0", n // 4
        if rem == 2:
            return "mod2", (n - 2) // 4
        if rem == 3:
            return "mod3", (n - 3) // 4
        if n >= 9:
            return "mod5", (n - 5) // 4
    raise UnsupportedDimensionError(f"no double-partition construction covers n={n}")


def _doubled(parts, case):
    """Every part M_i as the equal pair 2M_i, 2M_i, plus the case's residue part."""
    doubled = [2 * v for v in parts] * 2
    if _CASES[case]:
        doubled.append(_CASES[case])
    return tuple(doubled)


def family(n: int) -> SpecialFamily:
    """The full family at dimension n, with its invariants re-verified.

    A flag class is its canonical partition, so the members are pairwise
    non-equivalent exactly when they are pairwise distinct.  Members are
    built unchecked from the sorted doubled bases; the checks below are
    what guard them.
    """
    case, m = applicable_case(n)
    members = tuple(_trusted(tuple(sorted(_doubled(t, case)))) for t in _tuples(m, 1, False))
    for p in members:
        if p.n != n or p.min_part < 2 or len(set(p.parts)) == p.length:
            raise InternalInvariantError(f"double partition {p} violates the construction")
    if len(set(members)) != len(members):
        raise InternalInvariantError(f"two members of the family at n={n} coincide")
    if len(members) != count_p(m):
        raise InternalInvariantError(f"family size {len(members)} != P({m})")
    return SpecialFamily(n=n, case=case, m=m, members=members)


def solutions_count(n: int) -> int:
    """Number of geometrically distinct solution series: P(M) for the case's M."""
    _case, m = applicable_case(n)
    return count_p(m)
