"""Polynomial surrogate for the invariant function spaces.

Block-group invariants on R^n are polynomials in the block norms
q_j = |x_blockj|^2, so at bounded total degree the fixed-point spaces are
finite-dimensional and their intersections reduce to numerical rank.
This module builds those spaces, the signed (intertwining) variants on
which the Weyl group acts by a sign character, and the single-swap
antisymmetric spaces the independence argument actually uses, then checks
that spaces attached to different partitions meet only in zero.
The blocks are disjoint, so a block-norm monomial expands block by block:
each coordinate monomial concatenates one term of every q_j^alpha_j, with
the product of their multinomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import factorial

import numpy as np

from .errors import DomainError, NumericalError
from .flags import SignRep, _signed_factors, nontrivial_factors, weyl
from .lieverify import _rank
from .pairs import decompose, first_window_with_involution, _window_swap
from .partitions import Partition

__all__ = [
    "DEGREE_CAP",
    "RANK_TOL",
    "PolySubspace",
    "IndependenceReport",
    "invariant_space",
    "intertwining_space",
    "swap_antisymmetric_space",
    "intersection_dim",
    "invariant_dim_by_derivations",
    "verify_pair",
]

DEGREE_CAP = 8
RANK_TOL = 1e-8


@dataclass(frozen=True)
class PolySubspace:
    """Span of polynomials on R^n, held as sparse exponent->coefficient maps."""

    n: int
    degree_cap: int
    basis: tuple
    dim: int


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of one pairwise independence check."""

    p1: Partition
    p2: Partition
    degree: int
    window_start: int
    window_size: int
    carrier_side: int
    swaps: tuple  # per side: (block_a, block_b) or None for a trivial Weyl group
    dims: tuple
    intersection: int
    passed: bool
    sv_kept_min: float
    sv_dropped_max: float


def _check_degree(d):
    if not isinstance(d, int) or d < 2 or d % 2:
        raise DomainError(f"degree must be a positive even integer, got {d!r}")
    if d > DEGREE_CAP:
        raise DomainError(f"degree {d} exceeds the cap {DEGREE_CAP}")


def _check_parts(p):
    if p.min_part < 2:
        raise DomainError("invariant spaces are built for partitions with parts >= 2")


@cache
def _block_power(size, k):
    """Terms of (x_1^2 + ... + x_size^2)^k as (block-local exponents, coefficient)."""
    terms = []
    for b in _alphas(size - 1, k):
        beta = (*b, k - sum(b))
        coeff = factorial(k)
        for v in beta:
            coeff //= factorial(v)
        terms.append((tuple(2 * v for v in beta), float(coeff)))
    return tuple(terms)


def _norm_monomial(alpha, parts):
    """prod_j q_j^alpha_j in coordinates, one concatenated term per block combination."""
    poly = {}
    for combo in product(*(_block_power(size, k) for size, k in zip(parts, alpha))):
        e, c = (), 1.0
        for block_e, block_c in combo:
            e += block_e
            c *= block_c
        poly[e] = c
    return poly


def _alphas(r, wmax):
    """Exponent vectors over r block variables with total weight <= wmax."""
    out = []

    def rec(prefix, budget):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], budget - v)

    rec([], wmax)
    return out


def invariant_space(p: Partition, d: int) -> PolySubspace:
    """All block-norm monomials of total degree <= d, expanded to coordinates.

    The dimension is the stars-and-bars count of exponent vectors with
    2*sum(alpha) <= d; constants are included.
    """
    _check_parts(p)
    _check_degree(d)
    basis = tuple(_norm_monomial(a, p.parts) for a in _alphas(p.length, d // 2))
    return PolySubspace(n=p.n, degree_cap=d, basis=basis, dim=len(basis))


def _value_groups(p, rho):
    """Block-index groups by part value, each with its sign delta.

    Multiplicity-1 groups get delta 0 (the only character they have);
    groups of multiplicity >= 2 consume rho's deltas in value order.
    """
    deltas = {v: delta for (v, _m), delta in _signed_factors(p, rho)}
    by_value = {}
    for idx, v in enumerate(p.parts):
        by_value.setdefault(v, []).append(idx)
    return [(tuple(slots), deltas.get(v, 0)) for v, slots in sorted(by_value.items())]


def _canonical(alpha, groups):
    """Sorted-within-group representative, or None if antisymmetrization kills it."""
    canon = list(alpha)
    for slots, delta in groups:
        entries = [alpha[s] for s in slots]
        if delta and len(set(entries)) < len(entries):
            return None
        entries.sort(reverse=True)
        for s, v in zip(slots, entries):
            canon[s] = v
    return tuple(canon)


def _parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1.0 if inversions % 2 else 1.0


def _signed_orbit(alpha, groups):
    """Accumulated exponent orbit under the per-group permutation action."""
    group_moves = []
    for slots, delta in groups:
        entries = [alpha[s] for s in slots]
        moves = []
        for perm in permutations(range(len(slots))):
            arranged = tuple(entries[t] for t in perm)
            moves.append((arranged, _parity(perm) if delta else 1.0))
        group_moves.append((slots, moves))
    orbit = {}
    for combo in product(*(moves for _, moves in group_moves)):
        beta = list(alpha)
        sign = 1.0
        for (slots, _), (arranged, s) in zip(group_moves, combo):
            for slot, v in zip(slots, arranged):
                beta[slot] = v
            sign *= s
        beta = tuple(beta)
        orbit[beta] = orbit.get(beta, 0.0) + sign
    return orbit


def intertwining_space(p: Partition, rho: SignRep, d: int) -> PolySubspace:
    """Invariants on which the Weyl group acts by the sign character rho.

    Block-norm monomials are symmetrized over each delta=0 factor and
    antisymmetrized over each delta=1 factor (the full factor's symmetric
    group, so a delta=1 factor of multiplicity m contributes nothing below
    weighted degree m(m-1)).
    """
    _check_parts(p)
    _check_degree(d)
    groups = _value_groups(p, rho)
    basis, seen = [], set()
    for alpha in _alphas(p.length, d // 2):
        canon = _canonical(alpha, groups)
        if canon is None or canon in seen:
            continue
        seen.add(canon)
        poly = {}
        for beta, coeff in _signed_orbit(canon, groups).items():
            for e, val in _norm_monomial(beta, p.parts).items():
                poly[e] = poly.get(e, 0.0) + coeff * val
        basis.append(poly)
    return PolySubspace(n=p.n, degree_cap=d, basis=tuple(basis), dim=len(basis))


def swap_antisymmetric_space(p: Partition, block_a: int, block_b: int, d: int) -> PolySubspace:
    """Invariants antisymmetric under one swap of equal blocks (1-based).

    This is the fixed-point space of the group generated by the block
    subgroup and the single transposition, with the transposition acting
    by -1; it is what the independence argument needs when the swapped
    blocks sit inside a window.
    """
    _check_parts(p)
    _check_degree(d)
    a, b = block_a - 1, block_b - 1
    if not (0 <= a < b < p.length):
        raise DomainError(f"block indices {block_a}, {block_b} out of range for {p}")
    if p.parts[a] != p.parts[b]:
        raise DomainError(f"blocks {block_a} and {block_b} of {p} differ in size")
    basis = []
    for alpha in _alphas(p.length, d // 2):
        if alpha[a] <= alpha[b]:
            continue
        swapped = list(alpha)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        poly = _norm_monomial(alpha, p.parts)
        for e, val in _norm_monomial(tuple(swapped), p.parts).items():
            poly[e] = poly.get(e, 0.0) - val
        basis.append(poly)
    return PolySubspace(n=p.n, degree_cap=d, basis=tuple(basis), dim=len(basis))


def _coefficient_rows(polys):
    """One unit-norm row of monomial coefficients per polynomial."""
    mons = sorted({e for poly in polys for e in poly})
    index = {e: i for i, e in enumerate(mons)}
    rows = np.zeros((len(polys), len(mons)))
    for i, poly in enumerate(polys):
        for e, val in poly.items():
            rows[i, index[e]] = val
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise NumericalError("zero polynomial in a subspace basis")
    rows /= norms[:, None]
    return rows


def _intersection(s1, s2, rank_tol):
    """(dim of the intersection, smallest kept, largest dropped singular value)."""
    if s1.dim == 0 or s2.dim == 0:
        return 0, 0.0, 0.0
    rows = _coefficient_rows([*s1.basis, *s2.basis])
    # rows^T = QR with orthonormal columns in Q, so each side and the stack
    # have the singular values of their columns of the small R
    r = np.linalg.qr(rows.T, mode="r")
    for cols, space in ((r[:, : s1.dim], s1), (r[:, s1.dim :], s2)):
        rank = _rank(cols, rank_tol)[0]
        if rank != space.dim:
            raise NumericalError(f"subspace basis is rank-deficient: {rank} < {space.dim}")
    rank, kept_min, dropped_max = _rank(r, rank_tol)
    return s1.dim + s2.dim - rank, kept_min, dropped_max


def intersection_dim(s1: PolySubspace, s2: PolySubspace, rank_tol: float = RANK_TOL) -> int:
    """dim(U and W) = dim U + dim W - rank [U; W] over the shared monomials."""
    if s1.n != s2.n or s1.degree_cap != s2.degree_cap:
        raise DomainError("subspaces must share the variable count and degree cap")
    return _intersection(s1, s2, rank_tol)[0]


def invariant_dim_by_derivations(p: Partition, d: int) -> int:
    """Slow oracle: dimension of the joint kernel of all in-block rotations.

    Assembles the infinitesimal rotation operators x_a d/dx_b - x_b d/dx_a
    for every coordinate pair inside a block, acting on all monomials of
    degree <= d, and counts the nullspace.  Independent of the block-norm
    construction; intended for desk-scale cross-checks only.
    """
    _check_parts(p)
    _check_degree(d)
    n = p.n
    mons = []

    def rec(prefix, budget):
        if len(prefix) == n:
            mons.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], budget - v)

    rec([], d)
    index = {e: i for i, e in enumerate(mons)}

    pairs_in_blocks = []
    offset = 0
    for size in p.parts:
        for a in range(offset, offset + size):
            for b in range(a + 1, offset + size):
                pairs_in_blocks.append((a, b))
        offset += size

    ops = np.zeros((len(pairs_in_blocks) * len(mons), len(mons)))
    for k, (a, b) in enumerate(pairs_in_blocks):
        base = k * len(mons)
        for col, e in enumerate(mons):
            if e[b] > 0:
                target = list(e)
                target[b] -= 1
                target[a] += 1
                ops[base + index[tuple(target)], col] += e[b]
            if e[a] > 0:
                target = list(e)
                target[a] -= 1
                target[b] += 1
                ops[base + index[tuple(target)], col] -= e[a]
    return len(mons) - _rank(ops, RANK_TOL)[0]


def _side_space(p, swap, d):
    if swap is None:
        return intertwining_space(p, SignRep((0,) * len(nontrivial_factors(p))), d)
    return swap_antisymmetric_space(p, swap[0], swap[1], d)


def verify_pair(p1: Partition, p2: Partition, degree: int = 6) -> IndependenceReport:
    """Check that the signed fixed-point spaces of two partitions meet in zero.

    Replays the independence argument at polynomial scale: the first
    window holding an equal pair supplies a swap acting only inside the
    window; that side's space is antisymmetrized under it, the other side
    under its own swap (from a window when possible, anywhere otherwise,
    or not at all for a trivial Weyl group).  A nonzero intersection is
    reported as a counterexample, never raised away.
    """
    _check_parts(p1)
    _check_parts(p2)
    if p1 == p2:
        raise DomainError("the two partitions must differ")
    _check_degree(degree)
    plan = first_window_with_involution(p1, p2)
    if plan is None:
        raise DomainError(f"no window of ({p1}, {p2}) contains an equal-block pair")
    windows = decompose(p1, p2).windows

    # the carrier's first window swap is the plan's swap, so one scan serves both sides
    swaps = []
    for side, p in ((1, p1), (2, p2)):
        found = next(filter(None, (_window_swap(w, side) for w in windows)), None)
        if found is not None:
            swaps.append(found[:2])
        else:
            invs = weyl(p).involutions
            swaps.append((invs[0].block_a, invs[0].block_b) if invs else None)

    s1 = _side_space(p1, swaps[0], degree)
    s2 = _side_space(p2, swaps[1], degree)

    inter, kept_min, dropped_max = _intersection(s1, s2, RANK_TOL)

    return IndependenceReport(
        p1=p1,
        p2=p2,
        degree=degree,
        window_start=plan.window.start,
        window_size=plan.window.size,
        carrier_side=plan.side,
        swaps=tuple(swaps),
        dims=(s1.dim, s2.dim),
        intersection=inter,
        passed=inter == 0,
        sv_kept_min=kept_min,
        sv_dropped_max=dropped_max,
    )
