"""Polynomial surrogate for the invariant function spaces.

Block-group invariants on R^n are polynomials in the block norms
q_j = |x_blockj|^2, so at bounded total degree the fixed-point spaces are
finite-dimensional and their intersections reduce to numerical rank.
This module builds those spaces, the signed (intertwining) variants on
which the Weyl group acts by a sign character, and the single-swap
antisymmetric spaces the independence argument actually uses, then checks
that spaces attached to different partitions meet only in zero.
A signed space sums each Weyl orbit of exponent vectors, walked from its
largest point along the adjacent block swaps that generate the Weyl group.
The blocks are disjoint, so a block-norm monomial expands block by block:
a term is keyed by the sorted tuple of its squared variables' indices, one
index per unit of weight, so it joins one term of each q_j^alpha_j with
alpha_j > 0 and costs its weight, not the block count; its coefficient is
the product of their multinomial coefficients.  The coordinate builders
spell each key as a dense exponent tuple over the n coordinates once, at
the end.

verify_pair decides exactly, without expanding to coordinates.  The cut
points of both partitions split [0, n) into refinement pieces; every block
norm of either partition is a sum of the piece sums s_k, and the s_k are
algebraically independent, so both spaces embed injectively in
Q[s_1..s_r] with integer coefficients; a coordinate is the finest piece,
so one builder serves both.  Every basis element is homogeneous, so the
intersection splits by weight, and each weight's rank is taken modulo a
61-bit prime: full rank there certifies full rank over Q, and a deficit is
confirmed by elimination over the rationals before it is reported.  A
float SVD of the same rows only reports the margins.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import comb, factorial

import numpy as np

from .errors import DomainError, InternalInvariantError, NumericalError
from .flags import InvolutionSpec, SignRep, _adjacent_swaps, _check_swap, _signed_factors, weyl
from .lieverify import _rank
from .pairs import decompose
from .partitions import Partition

__all__ = [
    "DEGREE_CAP",
    "PolySubspace",
    "IndependenceReport",
    "invariant_space",
    "intertwining_space",
    "swap_antisymmetric_space",
    "intersection_dim",
    "invariant_dim_by_derivations",
    "pair_space_dims",
    "verify_pair",
]

DEGREE_CAP = 8
_PRIME = (1 << 61) - 1  # a rank mod p never exceeds the rank over Q


@dataclass(frozen=True)
class PolySubspace:
    """Span of polynomials on R^n, held as sparse exponent->coefficient maps."""

    n: int
    degree_cap: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)


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
def _block_power(start, size, k):
    """Terms of (y_start + ... + y_{start+size-1})^k as (variables, coefficient).

    A term is keyed by the sorted tuple of its variable indices, one index
    per unit of weight: y_0^2 y_3 is (0, 0, 3), with the multinomial
    coefficient k!/prod beta_i!.  Each y_i is the square of a variable: a
    coordinate of a block, or the root of a refinement piece's sum of
    squares.
    """
    terms = []
    for key in combinations_with_replacement(range(start, start + size), k):
        coeff = factorial(k)
        for i in set(key):
            coeff //= factorial(key.count(i))
        terms.append((key, coeff))
    return tuple(terms)


def _norm_monomial(alpha, sizes):
    """prod_j (sum of squares of block j's sizes[j] variables)^alpha_j, block by block.

    Keys are the variable tuples of _block_power; only the blocks with
    alpha_j > 0 take part, so a term costs its weight.  With sizes =
    p.parts the variables are the coordinates, so this is q^alpha in
    coordinates; one term per block combination.
    """
    powers, start = [], 0
    for size, k in zip(sizes, alpha):
        if k:
            powers.append(_block_power(start, size, k))
        start += size
    poly = {}
    for combo in product(*powers):
        key, c = (), 1
        for block_key, block_c in combo:
            key += block_key
            c *= block_c
        poly[key] = c
    return poly


def _dense(poly, n):
    """poly with each variable key spelled as its exponent tuple over n coordinates."""
    dense = {}
    for key, c in poly.items():
        e = [0] * n
        for i in key:
            e[i] += 2
        dense[tuple(e)] = c
    return dense


def _alphas(r, wmax):
    """Exponent vectors over r block variables with total weight <= wmax.

    Stars and bars: each multiset of wmax indices from range(r + 1) counts
    each block's entry, and index r holds the unused weight.
    """
    for picks in combinations_with_replacement(range(r + 1), wmax):
        alpha = [0] * (r + 1)
        for i in picks:
            alpha[i] += 1
        yield tuple(alpha[:r])


def invariant_space(p: Partition, d: int) -> PolySubspace:
    """All block-norm monomials of total degree <= d, expanded to coordinates.

    The dimension is the stars-and-bars count of exponent vectors with
    2*sum(alpha) <= d; constants are included.
    """
    _check_parts(p)
    _check_degree(d)
    basis = tuple(_dense(poly, p.n) for poly in _side_basis(p.parts, None, d))
    return PolySubspace(n=p.n, degree_cap=d, basis=basis)


def _signed_orbit(alpha, swaps):
    """Orbit of alpha along the swaps (a, b, sign), each point with its path's sign.

    A swap exchanges entries a and b; the sign of a point is the product
    of the signs of the swaps on a path from alpha to it, well defined
    when no swap of sign -1 meets two equal entries.
    """
    orbit, stack = {alpha: 1}, [alpha]
    while stack:
        beta = stack.pop()
        for a, b, sign in swaps:
            if beta[a] == beta[b]:
                continue
            gamma = (*beta[:a], beta[b], *beta[a + 1 : b], beta[a], *beta[b + 1 :])
            if gamma not in orbit:
                orbit[gamma] = sign * orbit[beta]
                stack.append(gamma)
    return orbit


def intertwining_space(p: Partition, rho: SignRep, d: int) -> PolySubspace:
    """Invariants on which the Weyl group acts by the sign character rho.

    Block-norm monomials are symmetrized over each delta=0 factor and
    antisymmetrized over each delta=1 factor (the full factor's symmetric
    group, so a delta=1 factor of multiplicity m contributes nothing below
    weighted degree m(m-1)).  Each orbit of exponent vectors is walked
    once along the Weyl group's adjacent swaps, from its largest point
    (lexicographically); one whose largest point a swap of sign -1 fixes
    sums to 0 and is not walked.  Its point beta enters the sum with weight
    |W|/|orbit| times the sign of the swaps reaching it: the signed count
    of the Weyl elements that map alpha to beta.
    """
    _check_parts(p)
    _check_degree(d)
    deltas = {v: delta for (v, _m), delta in _signed_factors(p, rho)}
    w = weyl(p)
    swaps = [
        (s.block_a - 1, s.block_b - 1, -1 if deltas[s.block_size] else 1) for s in w.involutions
    ]
    basis = []
    for alpha in _alphas(p.length, d // 2):
        if any(alpha[a] < alpha[b] or alpha[a] == alpha[b] and s < 0 for a, b, s in swaps):
            continue
        orbit = _signed_orbit(alpha, swaps)
        scale = w.order // len(orbit)
        poly = {}
        for beta, sign in orbit.items():
            for e, val in _norm_monomial(beta, p.parts).items():
                poly[e] = poly.get(e, 0) + scale * sign * val
        basis.append(_dense(poly, p.n))
    return PolySubspace(n=p.n, degree_cap=d, basis=tuple(basis))


def swap_antisymmetric_space(p: Partition, inv: InvolutionSpec, d: int) -> PolySubspace:
    """Invariants antisymmetric under one swap of equal blocks.

    This is the fixed-point space of the group generated by the block
    subgroup and the single transposition, with the transposition acting
    by -1; it is what the independence argument needs when the swapped
    blocks sit inside a window.
    """
    _check_parts(p)
    _check_degree(d)
    _check_swap(p, inv)
    basis = tuple(_dense(poly, p.n) for poly in _side_basis(p.parts, inv, d))
    return PolySubspace(n=p.n, degree_cap=d, basis=basis)


# Kept apart from _signed_orbit: a swap routed through the walk made verify_pair 1.3-1.6x
# slower (127 benchmark pairs, best of 15, five alternating rounds, 2-core x86-64).
def _side_basis(sizes, swap, d):
    """Every block-norm monomial q^alpha, or q^alpha - q^alpha' with a swap.

    Block j sums the squares of sizes[j] variables: its coordinates when
    sizes is p.parts, its refinement pieces for verify_pair, of which a
    coordinate is the finest.  With a swap, alpha holds x > y on the two
    swapped blocks and any rest of weight <= w - x - y on the others, and
    alpha' exchanges x and y.
    """
    length, w = len(sizes), d // 2
    if swap is None:
        return [_norm_monomial(alpha, sizes) for alpha in _alphas(length, w)]
    a, b = swap.block_a - 1, swap.block_b - 1
    basis = []
    for x in range(1, w + 1):
        for y in range(min(x, w - x + 1)):
            for rest in _alphas(length - 2, w - x - y):
                head, mid, tail = rest[:a], rest[a : b - 1], rest[b - 1 :]
                poly = _norm_monomial((*head, x, *mid, y, *tail), sizes)
                for e, val in _norm_monomial((*head, y, *mid, x, *tail), sizes).items():
                    poly[e] = poly.get(e, 0) - val
                basis.append(poly)
    return basis


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


def intersection_dim(s1: PolySubspace, s2: PolySubspace) -> int:
    """dim(U and W) = dim U + dim W - rank [U; W] over the shared monomials."""
    if s1.n != s2.n or s1.degree_cap != s2.degree_cap:
        raise DomainError("subspaces must share the variable count and degree cap")
    if s1.dim == 0 or s2.dim == 0:
        return 0
    rows = _coefficient_rows([*s1.basis, *s2.basis])
    # rows^T = QR with orthonormal columns in Q, so each side and the stack
    # have the singular values of their columns of the small R
    r = np.linalg.qr(rows.T, mode="r")
    for cols, space in ((r[:, : s1.dim], s1), (r[:, s1.dim :], s2)):
        rank = _rank(cols)[0]
        if rank != space.dim:
            raise NumericalError(f"subspace basis is rank-deficient: {rank} < {space.dim}")
    return s1.dim + s2.dim - _rank(r)[0]


def invariant_dim_by_derivations(p: Partition, d: int) -> int:
    """Slow oracle: dimension of the joint kernel of all in-block rotations.

    Assembles the infinitesimal rotation operators x_a d/dx_b - x_b d/dx_a
    for every coordinate pair inside a block, acting on all monomials of
    degree <= d, and counts the nullspace.  Independent of the block-norm
    construction; intended for desk-scale cross-checks only.
    """
    _check_parts(p)
    _check_degree(d)
    mons = tuple(_alphas(p.n, d))
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
    return len(mons) - _rank(ops)[0]


def _sparse_rank(rows, prime=None):
    """Rank of sparse integer rows {column: value} mod prime, or over Q when prime is None.

    Each pivot row is scaled to 1 at its smallest column, so eliminating
    with it only touches larger columns.
    """
    reduce = (lambda v: v % prime) if prime else Fraction
    pivots = {}
    for row in rows:
        row = {c: reduce(v) for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, prime) if prime else 1 / row[col]
                pivots[col] = {c: reduce(v * inv) for c, v in row.items()}
                break
            f = row[col]
            for c, v in pivot.items():
                x = reduce(row.get(c, 0) - f * v)
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def _cuts(p1, p2):
    """The cut points of both partitions, which end the refinement pieces."""
    return sorted({*p1.prefix_sums(), *p2.prefix_sums()})


def _refined_basis(p, swap, d, cuts):
    """A side's basis in the refinement piece sums: swap-antisymmetric, or all of them."""
    # the block [start, end) holds the pieces ending at the cuts in (start, end]
    bounds = (0, *p.prefix_sums())
    sizes = [bisect_right(cuts, e) - bisect_right(cuts, s) for s, e in zip(bounds, bounds[1:])]
    return _side_basis(sizes, swap, d)


def _refined_intersection(p1, swap1, p2, swap2, d):
    """Exact dim of the intersection of two sides' spaces, with the float margins.

    Returns (dims, intersection, smallest kept, largest dropped singular
    value).  A side with swap None spans every block-norm monomial.
    """
    cuts = _cuts(p1, p2)
    sides = (_refined_basis(p1, swap1, d, cuts), _refined_basis(p2, swap2, d, cuts))
    by_weight = {}
    for k, basis in enumerate(sides):
        for poly in basis:
            by_weight.setdefault(len(next(iter(poly))), ([], []))[k].append(poly)
    intersection, kept, dropped = 0, [], [0.0]
    for u, w in by_weight.values():
        stacked = u + w
        # rank(stacked) <= rank(u) + rank(w), so full rank certifies both sides too
        rank = _sparse_rank(stacked, _PRIME)
        if rank < len(stacked):
            # a deficit mod p can be p's alone: only ranks over Q are reported
            if _sparse_rank(u) < len(u) or _sparse_rank(w) < len(w):
                raise InternalInvariantError("a fixed-space basis is linearly dependent")
            rank = _sparse_rank(stacked)
        intersection += len(stacked) - rank
        float_rank, kept_min, dropped_max = _rank(_coefficient_rows(stacked))
        if float_rank != rank:
            raise InternalInvariantError(
                f"float rank {float_rank} disagrees with the exact rank {rank}"
            )
        if float_rank:
            kept.append(kept_min)
        dropped.append(dropped_max)
    dims = (len(sides[0]), len(sides[1]))
    return dims, intersection, min(kept, default=0.0), max(dropped)


def _space_dim(p, swap, d):
    """Closed-form dim of a side's space, before any basis is built.

    Stars and bars for all block-norm monomials; with a swap, half of
    those whose entries on the two swapped blocks differ.
    """
    length, w = p.length, d // 2
    total = comb(length + w, length)
    if swap is None:
        return total
    # alpha[a] == alpha[b] == t leaves length - 2 entries of weight <= w - 2t
    equal = sum(comb(length - 2 + w - 2 * t, length - 2) for t in range(w // 2 + 1))
    return (total - equal) // 2


def _plan(p1, p2, degree):
    """Validated window plan and each side's swap, as verify_pair uses them."""
    _check_parts(p1)
    _check_parts(p2)
    if p1 == p2:
        raise DomainError("the two partitions must differ")
    _check_degree(degree)
    dec = decompose(p1, p2)
    plan = dec.window_plan
    if plan is None:
        raise DomainError(f"no window of ({p1}, {p2}) contains an equal-block pair")

    # the carrier's first window swap is the plan's swap
    swaps = tuple(
        next(filter(None, (w.swap(side) for w in dec.windows)), None)
        or next(_adjacent_swaps(p.parts), None)
        for side, p in ((1, p1), (2, p2))
    )
    return plan, swaps


def pair_space_dims(p1: Partition, p2: Partition, degree: int = 6) -> tuple:
    """Dimensions of the two spaces verify_pair would build, in closed form."""
    swaps = _plan(p1, p2, degree)[1]
    return tuple(_space_dim(p, swap, degree) for p, swap in zip((p1, p2), swaps))


def verify_pair(p1: Partition, p2: Partition, degree: int = 6) -> IndependenceReport:
    """Check that the signed fixed-point spaces of two partitions meet in zero.

    Replays the independence argument at polynomial scale: the first
    window holding an equal pair supplies a swap acting only inside the
    window; that side's space is antisymmetrized under it, the other side
    under its own swap (from a window when possible, anywhere otherwise,
    or not at all for a trivial Weyl group).  The intersection is exact
    (see the module docstring); the singular-value margins come from the
    same rows in floating point.  A nonzero intersection is reported as a
    counterexample, never raised away.
    """
    plan, swaps = _plan(p1, p2, degree)
    dims, inter, kept_min, dropped_max = _refined_intersection(p1, swaps[0], p2, swaps[1], degree)
    return IndependenceReport(
        p1=p1,
        p2=p2,
        degree=degree,
        window_start=plan.window.start,
        window_size=plan.window.size,
        carrier_side=plan.side,
        swaps=tuple(None if s is None else (s.block_a, s.block_b) for s in swaps),
        dims=dims,
        intersection=inter,
        passed=inter == 0,
        sv_kept_min=kept_min,
        sv_dropped_max=dropped_max,
    )
