"""Structure of the group generated by two block subgroups.

Two canonical partitions of n are swept in parallel over their prefix
sums, one cut at a time: from an offset both sides reach, the next cut is
the first partial sum that both reach again.  A segment that took one
block from each side is an agreement, and the group keeps that block
factor; any other segment is a minimal window, on which the generated
group is the full orthogonal group of the window subspace.  The pair is
jointly transitive on the sphere exactly when the first cut is n, so that
the whole of [0, n) is one segment (a window, or the agreement of {n}
with itself), i.e. when the partitions share no proper common prefix sum;
is_transitive_pair decides from that first cut alone, and cross-checks it
against has_common_subpartition's set of common prefix sums.

decompose takes an agreement (the next blocks on both sides are equal)
without a sweep, and builds every segment through its public
constructor, so each window is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import DomainError, InternalInvariantError
from .flags import InvolutionSpec, _adjacent_swaps
from .partitions import Partition, _common_n

__all__ = [
    "Agreement",
    "Window",
    "PairDecomposition",
    "WindowPlan",
    "has_common_subpartition",
    "decompose",
    "generated_group",
    "is_transitive_pair",
]


@dataclass(frozen=True, slots=True)
class Agreement:
    """Both partitions carry the same part at this coordinate offset."""

    start: int
    part: int

    @property
    def size(self):
        return self.part


@dataclass(frozen=True, slots=True)
class Window:
    """A maximal interval with no shared intermediate prefix sum.

    h_parts and k_parts are the two sides' parts inside the window;
    h_first/k_first are the 1-based positions of the first of those blocks
    in each canonical partition.
    """

    start: int
    size: int
    h_parts: tuple
    k_parts: tuple
    h_first: int
    k_first: int

    def __post_init__(self):
        if sum(self.h_parts) != self.size or sum(self.k_parts) != self.size:
            raise DomainError("window sides must both sum to the window size")
        if self.h_parts == self.k_parts:
            raise DomainError("a window needs differing parts on the two sides")

    def swap(self, side: int):
        """First swap of adjacent equal blocks on side 1 or 2 inside the window, or None."""
        if not isinstance(side, int) or isinstance(side, bool) or side not in (1, 2):
            raise DomainError(f"a window side is 1 or 2, got {side!r}")
        parts, first = (self.h_parts, self.h_first) if side == 1 else (self.k_parts, self.k_first)
        return next(_adjacent_swaps(parts, first), None)


@dataclass(frozen=True, slots=True)
class PairDecomposition:
    """The generated group: one orthogonal factor per segment.

    An agreement keeps its shared block's factor and a window fuses into
    the full orthogonal group of its subspace.
    """

    n: int
    segments: tuple

    @property
    def windows(self):
        return tuple(s for s in self.segments if isinstance(s, Window))

    @property
    def factors(self):
        """((size, "agreement" | "window"), ...), one per segment."""
        return tuple(
            (s.size, "agreement" if isinstance(s, Agreement) else "window")
            for s in self.segments
        )

    @property
    def lie_dimension(self):
        return sum(s.size * (s.size - 1) // 2 for s in self.segments)

    @property
    def window_plan(self):
        """First window holding an equal-block pair on either side, with the swap.

        Side 1 is preferred when both qualify.  None when no window has a
        repeated part (equal partitions have no windows at all), in which
        case the pair supports no window-local involution.
        """
        for window in self.windows:
            for side in (1, 2):
                swap = window.swap(side)
                if swap is not None:
                    return WindowPlan(window=window, side=side, swap=swap)
        return None


@dataclass(frozen=True, slots=True)
class WindowPlan:
    """A window together with an order-two block swap localized inside it.

    side is 1 or 2; swap's blocks are 1-based positions in that side's
    canonical partition and lie entirely inside the window, so the swap
    acts trivially outside it.
    """

    window: Window
    side: int
    swap: InvolutionSpec


def has_common_subpartition(p1: Partition, p2: Partition):
    """Smallest proper prefix sum shared by both partitions, or None.

    Its absence is the joint-transitivity criterion.
    """
    _common_n(p1, p2)
    common = set(accumulate(p1.parts[:-1])).intersection(accumulate(p2.parts[:-1]))
    return min(common) if common else None


def _blocks(p1: Partition, p2: Partition):
    """n and both sides' parts; refuses different n, then a part of 1 on either side."""
    n = _common_n(p1, p2)
    a, b = p1.parts, p2.parts
    if a[0] < 2 or b[0] < 2:
        raise DomainError("every part must be >= 2 on both sides")
    return n, a, b


def _cut(a, b, i, j, pos):
    """The first partial sum after pos that both sides reach, and the next blocks.

    Blocks a[i] and b[j] both start at pos.  Returns (cut, i', j'): a[i:i']
    and b[j:j'] fill [pos, cut) exactly.  The sides meet at n at the latest.
    """
    ta, tb = pos + a[i], pos + b[j]
    i += 1
    j += 1
    while ta != tb:
        if ta < tb:
            ta += a[i]
            i += 1
        else:
            tb += b[j]
            j += 1
    return ta, i, j


def decompose(p1: Partition, p2: Partition) -> PairDecomposition:
    """Alternating agreement/window decomposition (minimal windows).

    One segment per cut: an agreement when it took one block from each
    side, which is exactly when the next blocks are equal, otherwise a
    window.
    """
    n, a, b = _blocks(p1, p2)
    segments = []
    i = j = pos = 0
    while pos < n:
        part = a[i]
        if part == b[j]:
            segments.append(Agreement(pos, part))
            i += 1
            j += 1
            pos += part
        else:
            cut, i1, j1 = _cut(a, b, i, j, pos)
            segments.append(Window(pos, cut - pos, a[i:i1], b[j:j1], i + 1, j + 1))
            i, j, pos = i1, j1, cut
    return PairDecomposition(n=n, segments=tuple(segments))


def generated_group(p1: Partition, p2: Partition) -> PairDecomposition:
    """The generated group, which is the decomposition: agreements survive, windows fuse.

    Kept only because the benchmark's workloads call it; new code calls decompose.
    """
    return decompose(p1, p2)


def is_transitive_pair(p1: Partition, p2: Partition) -> bool:
    """Whether the generated group is transitive on the sphere: one segment spans [0, n).

    The first cut decides: the pair is transitive exactly when the sides
    first meet at n.  The absence of a common proper prefix sum is an
    independent cross-check and must agree.
    """
    n, a, b = _blocks(p1, p2)
    transitive = _cut(a, b, 0, 0, 0)[0] == n
    if transitive != (has_common_subpartition(p1, p2) is None):
        raise InternalInvariantError(f"transitivity criteria disagree on {p1}, {p2}")
    return transitive
