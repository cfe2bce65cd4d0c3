"""Polynomial fixed-space surrogate: dimensions, intersections, independence."""

import dataclasses
import inspect
import sys
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from borelcensus import (
    DomainError,
    IndeterminateError,
    InternalInvariantError,
    InvolutionSpec,
    NumericalError,
    Partition,
    SignRep,
    family,
    intersection_dim,
    intertwining_space,
    invariant_space,
    nontrivial_factors,
    pair_space_dims,
    swap_antisymmetric_space,
    verify_pair,
)
from borelcensus import invverify
from borelcensus.invverify import PolySubspace
from borelcensus.lieverify import DEFAULT_RANK_TOL
from derivation_oracle import invariant_dim_by_derivations

P = Partition
RNG = np.random.default_rng(24)


def poly_eval(poly, x):
    total = 0.0
    for exps, coeff in poly.items():
        term = coeff
        for xi, e in zip(x, exps):
            if e:
                term *= xi**e
        total += term
    return total


def block_rotation(p, block, rng):
    """Random special-orthogonal rotation acting on one block only."""
    size = p.parts[block]
    offset = (0, *p.prefix_sums())[block]
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    full = np.eye(p.n)
    full[offset : offset + size, offset : offset + size] = q
    return full


def block_alpha(p, exps):
    """Block-norm powers of a monomial: half the exponent sum of each block."""
    offsets = (0, *p.prefix_sums())
    return tuple(sum(exps[o : o + size]) // 2 for o, size in zip(offsets, p.parts))


def norm_monomial_eval(p, alpha, x):
    """prod_j q_j(x)^alpha_j with the block norms q_j computed numerically."""
    offsets = (0, *p.prefix_sums())
    return float(
        np.prod([np.sum(x[o : o + size] ** 2) ** k for o, size, k in zip(offsets, p.parts, alpha)])
    )


def _parity(perm):
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1.0 if inversions % 2 else 1.0


def _signed_orbit_by_permutations(alpha, groups):
    """Reference orbit: every permutation of every group, m! per group, accumulated.

    Points whose signed counts cancel are dropped, so a killed orbit is {}.
    """
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
    return {beta: w for beta, w in orbit.items() if w}


def reference_basis(p, rho, d):
    """intertwining_space's basis, in order, from the permutation reference.

    Each orbit is summed once, from its largest point, in the order _alphas
    yields those points; killed orbits are dropped.
    """
    deltas = dict(zip((v for v, _m in nontrivial_factors(p)), rho.deltas))
    groups = [
        (tuple(i for i, part in enumerate(p.parts) if part == v), deltas.get(v, 0))
        for v in sorted(set(p.parts))
    ]
    basis = []
    for alpha in invverify._alphas(p.length, d // 2):
        orbit = _signed_orbit_by_permutations(alpha, groups)
        if orbit and alpha == max(orbit):
            poly = {}
            for beta, weight in orbit.items():
                for key, val in invverify._norm_monomial(beta, p.parts).items():
                    e = tuple(2 * key.count(i) for i in range(p.n))
                    poly[e] = poly.get(e, 0) + weight * val
            basis.append(poly)
    return basis


def first_equal_pair(p):
    """The swap of the first two adjacent equal blocks of p."""
    i = next(i for i in range(p.length - 1) if p.parts[i] == p.parts[i + 1])
    return InvolutionSpec(i + 1, i + 2, p.parts[i])


def coordinate_space(p, swap, d):
    """A verify_pair side built in coordinates from a report's (block_a, block_b) or None."""
    if swap is None:
        return invariant_space(p, d)
    return swap_antisymmetric_space(p, InvolutionSpec(*swap, p.parts[swap[0] - 1]), d)


def block_swap_map(p, a, b):
    """Coordinate permutation exchanging blocks a and b (1-based)."""
    offsets = (0, *p.prefix_sums())
    size = p.parts[a - 1]
    perm = list(range(p.n))
    for i in range(size):
        perm[offsets[a - 1] + i], perm[offsets[b - 1] + i] = (
            perm[offsets[b - 1] + i],
            perm[offsets[a - 1] + i],
        )
    return perm


class TestInvariantSpace:
    def test_examples(self):
        assert invariant_space(P((4, 4)), 2).dim == 3
        assert invariant_space(P((2,)), 4).dim == 3
        assert invariant_space(P((2, 2)), 4).dim == 6

    def test_stars_and_bars_sweep(self):
        from borelcensus import enumerate_partitions

        for n in range(2, 9):
            for p in enumerate_partitions(n, 2):
                for d in (2, 4, 6):
                    expected = comb(p.length + d // 2, p.length)
                    assert invariant_space(p, d).dim == expected

    @pytest.mark.parametrize("r", range(7))
    def test_alphas_yield_each_vector_once(self, r):
        for w in range(5):
            every = [a for a in product(range(w + 1), repeat=r) if sum(a) <= w]
            assert sorted(invverify._alphas(r, w)) == every

    def test_many_blocks_need_no_recursion(self):
        # the stack is 100 frames deeper than the test's own, under 300 blocks
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            assert invariant_space(P((2,) * 300), 2).dim == 301
        finally:
            sys.setrecursionlimit(limit)

    def test_odd_degree_rejected(self):
        with pytest.raises(DomainError):
            invariant_space(P((2, 2)), 3)

    def test_cap_enforced(self):
        with pytest.raises(DomainError):
            invariant_space(P((2, 2)), 10)

    def test_parts_must_be_ge2(self):
        with pytest.raises(DomainError):
            invariant_space(P((1, 3)), 4)

    def test_matches_derivation_oracle(self):
        for parts in [(2,), (3,), (4,), (2, 2)]:
            for d in (2, 4):
                assert invariant_space(P(parts), d).dim == invariant_dim_by_derivations(
                    P(parts), d
                )

    def test_rotation_invariance_numeric(self):
        p = P((2, 3))
        space = invariant_space(p, 4)
        for block in (0, 1):
            rot = block_rotation(p, block, RNG)
            for poly in space.basis:
                for _ in range(3):
                    x = RNG.standard_normal(p.n)
                    assert abs(poly_eval(poly, rot @ x) - poly_eval(poly, x)) < 1e-9


class TestExpandedCoefficients:
    @pytest.mark.parametrize(
        "parts,d", [((2, 3, 4), 6), ((2, 2, 3, 3), 6), ((3, 5), 6), ((2, 3), 8)]
    )
    def test_invariant_basis_is_block_norm_monomials(self, parts, d):
        p = P(parts)
        rng = np.random.default_rng(11)
        alphas = []
        for poly in invariant_space(p, d).basis:
            alpha = block_alpha(p, next(iter(poly)))
            alphas.append(alpha)
            for _ in range(3):
                x = rng.standard_normal(p.n)
                expected = norm_monomial_eval(p, alpha, x)
                assert poly_eval(poly, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)
        every = [a for a in product(range(d // 2 + 1), repeat=p.length) if sum(a) <= d // 2]
        assert sorted(alphas) == sorted(every)

    def test_swap_basis_is_difference_of_monomials(self):
        # every swap of (2, 2, 2, 3), the non-adjacent (1, 3) among them
        p = P((2, 2, 2, 3))
        rng = np.random.default_rng(12)
        for (a, b), d in product([(1, 2), (1, 3), (2, 3)], (2, 4, 6, 8)):
            space = swap_antisymmetric_space(p, InvolutionSpec(a, b, 2), d)
            alphas = []
            for poly in space.basis:
                alpha = block_alpha(p, next(e for e, c in poly.items() if c > 0))
                alphas.append(alpha)
                swapped = list(alpha)
                swapped[a - 1], swapped[b - 1] = alpha[b - 1], alpha[a - 1]
                for _ in range(3):
                    x = rng.standard_normal(p.n)
                    q_alpha = norm_monomial_eval(p, alpha, x)
                    q_swapped = norm_monomial_eval(p, swapped, x)
                    expected = q_alpha - q_swapped
                    assert abs(poly_eval(poly, x) - expected) <= 1e-10 * (q_alpha + q_swapped)
            every = product(range(d // 2 + 1), repeat=p.length)
            kept = [e for e in every if sum(e) <= d // 2 and e[a - 1] > e[b - 1]]
            assert sorted(alphas) == kept, (a, b, d)


class TestIntertwiningSpace:
    def test_two_block_examples(self):
        assert intertwining_space(P((4, 4)), SignRep((1,)), 2).dim == 1
        assert intertwining_space(P((4, 4)), SignRep((0,)), 2).dim == 2

    def test_antisymmetric_generator_is_difference(self):
        space = intertwining_space(P((4, 4)), SignRep((1,)), 2)
        poly = space.basis[0]
        x = RNG.standard_normal(8)
        swapped = x[block_swap_map(P((4, 4)), 1, 2)]
        assert abs(poly_eval(poly, swapped) + poly_eval(poly, x)) < 1e-9

    def test_symmetric_plus_antisymmetric_splits_total(self):
        for parts in [(2, 2), (3, 3), (4, 4)]:
            for d in (2, 4, 6):
                sym = intertwining_space(P(parts), SignRep((0,)), d).dim
                anti = intertwining_space(P(parts), SignRep((1,)), d).dim
                assert sym + anti == invariant_space(P(parts), d).dim

    def test_radial_polynomial_in_trivial_space(self):
        from borelcensus.flags import nontrivial_factors

        for parts in [(2, 2, 3), (2, 5), (4, 4)]:
            p = P(parts)
            deltas = SignRep((0,) * len(nontrivial_factors(p)))
            space = intertwining_space(p, deltas, 2)
            radial = {tuple(2 if j == i else 0 for j in range(p.n)): 1.0 for i in range(p.n)}
            mons = sorted({e for poly in space.basis for e in poly} | set(radial))
            rows = np.array([[poly.get(e, 0.0) for e in mons] for poly in space.basis])
            target = np.array([radial.get(e, 0.0) for e in mons])
            _sol, resid, _rank, _sv = np.linalg.lstsq(rows.T, target, rcond=None)
            assert float(resid[0]) < 1e-18 if resid.size else True

    def test_full_factor_antisymmetrization_vanishes_below_vandermonde(self):
        # alternating polynomials in four block norms start at weighted degree 12
        assert intertwining_space(P((2, 2, 2, 2)), SignRep((1,)), 6).dim == 0

    def test_weyl_action_sign(self):
        p = P((2, 2, 3))
        space = intertwining_space(p, SignRep((1,)), 4)
        assert space.dim > 0
        perm = block_swap_map(p, 1, 2)
        for poly in space.basis:
            x = RNG.standard_normal(p.n)
            assert abs(poly_eval(poly, x[perm]) + poly_eval(poly, x)) < 1e-9

    def test_delta_length_checked(self):
        with pytest.raises(DomainError):
            intertwining_space(P((2, 2, 3, 3)), SignRep((1,)), 4)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_orbit_matches_permutation_reference(self, m):
        # one group of multiplicity m at degrees <= 8 and every character,
        # so killed orbits are covered too
        p = P((2,) * m)
        for d, deltas in product((2, 4, 6, 8), [()] if m == 1 else [(0,), (1,)]):
            rho = SignRep(deltas)
            assert list(intertwining_space(p, rho, d).basis) == reference_basis(p, rho, d)

    def test_orbit_of_several_groups_matches_reference(self):
        p = P((2, 2, 2, 3, 3, 5))
        for deltas in product((0, 1), repeat=2):
            rho = SignRep(deltas)
            assert list(intertwining_space(p, rho, 8).basis) == reference_basis(p, rho, 8)

    @pytest.mark.parametrize("delta, dim", [(0, 12), (1, 0)])
    def test_each_orbit_walked_once(self, monkeypatch, delta, dim):
        # weight <= 4 over ten equal blocks: the partitions of 0..4, 12 orbits;
        # with delta=1 every orbit is killed and none is walked, so there is
        # one walk per basis element
        walks, real = [], invverify._signed_orbit

        def spy(alpha, swaps):
            walks.append(alpha)
            return real(alpha, swaps)

        monkeypatch.setattr(invverify, "_signed_orbit", spy)
        assert intertwining_space(P((2,) * 10), SignRep((delta,)), 8).dim == dim
        assert len(walks) == dim

    def test_ten_equal_blocks(self):
        # symmetric polynomials in ten block norms of weight <= 3: the
        # partitions of 0, 1, 2, 3, i.e. 1 + 1 + 2 + 3
        p = P((2,) * 10)
        space = intertwining_space(p, SignRep((0,)), 6)
        assert space.dim == 7
        x = RNG.standard_normal(p.n)
        perm = block_swap_map(p, 1, 10)
        for poly in space.basis:
            assert poly_eval(poly, x[perm]) == pytest.approx(poly_eval(poly, x), rel=1e-10)


class TestSwapSpace:
    def test_dimension_single_swap(self):
        # alpha with a>b entry among weighted degree <= 3 over two variables
        assert swap_antisymmetric_space(P((4, 4)), InvolutionSpec(1, 2, 4), 6).dim == 4
        # four blocks, swap only the first two
        assert swap_antisymmetric_space(P((2, 2, 2, 2)), InvolutionSpec(1, 2, 2), 6).dim == 11

    def test_swap_antisymmetry_numeric(self):
        p = P((2, 2, 2, 2))
        space = swap_antisymmetric_space(p, InvolutionSpec(1, 2, 2), 4)
        perm = block_swap_map(p, 1, 2)
        for poly in space.basis:
            x = RNG.standard_normal(p.n)
            assert abs(poly_eval(poly, x[perm]) + poly_eval(poly, x)) < 1e-9

    def test_rejects_unequal_blocks(self):
        with pytest.raises(DomainError):
            swap_antisymmetric_space(P((2, 4)), InvolutionSpec(1, 2, 2), 4)

    def test_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            swap_antisymmetric_space(P((2, 2)), InvolutionSpec(2, 3, 2), 4)

    def test_rejects_a_tuple_swap(self):
        with pytest.raises(DomainError, match="must be an InvolutionSpec"):
            swap_antisymmetric_space(P((2, 2)), (1, 2), 4)


class TestIntersection:
    def test_spec_pair_is_zero(self):
        s1 = intertwining_space(P((4, 4)), SignRep((1,)), 6)
        s2 = swap_antisymmetric_space(P((2, 2, 2, 2)), InvolutionSpec(1, 2, 2), 6)
        assert intersection_dim(s1, s2) == 0

    def test_self_intersection(self):
        s = intertwining_space(P((4, 4)), SignRep((1,)), 6)
        assert intersection_dim(s, s) == s.dim

    def test_trivial_rho_contains_radial_tower(self):
        d = 6
        s1 = intertwining_space(P((4, 4)), SignRep((0,)), d)
        s2 = intertwining_space(P((2, 2, 2, 2)), SignRep((0,)), d)
        assert intersection_dim(s1, s2) >= d // 2 + 1

    def test_mismatched_spaces_rejected(self):
        s1 = invariant_space(P((4, 4)), 4)
        s2 = invariant_space(P((2, 2)), 4)
        with pytest.raises(DomainError):
            intersection_dim(s1, s2)
        s3 = invariant_space(P((4, 4)), 6)
        with pytest.raises(DomainError):
            intersection_dim(s1, s3)

    def test_ambiguity_band_raises(self):
        e1 = (2, 0, 0, 0)
        e2 = (0, 2, 0, 0)
        s1 = PolySubspace(n=4, degree_cap=2, basis=({e1: 1.0},))
        s2 = PolySubspace(n=4, degree_cap=2, basis=({e1: 1.0, e2: 3e-9},))
        with pytest.raises(IndeterminateError):
            intersection_dim(s1, s2)

    def test_public_builders_key_dense_even_exponents(self):
        p = P((2, 2, 3))
        for space in (
            invariant_space(p, 6),
            intertwining_space(p, SignRep((1,)), 6),
            swap_antisymmetric_space(p, InvolutionSpec(1, 2, 2), 6),
        ):
            for poly in space.basis:
                for e in poly:
                    assert type(e) is tuple and len(e) == p.n
                    assert all(type(v) is int and v >= 0 and v % 2 == 0 for v in e)

    def test_dim_is_the_basis_length(self):
        # the dimension is read off the basis; no constructor field can contradict it
        assert "dim" not in {f.name for f in dataclasses.fields(PolySubspace)}
        s = PolySubspace(n=2, degree_cap=2, basis=({(2, 0): 1.0},))
        assert s.dim == len(s.basis) == 1
        for space in (
            invariant_space(P((2, 4)), 4),
            intertwining_space(P((2, 2)), SignRep((1,)), 6),
            swap_antisymmetric_space(P((4, 4)), InvolutionSpec(1, 2, 4), 6),
        ):
            assert space.dim == len(space.basis)

    def test_rank_deficient_basis_raises(self):
        e1 = (2, 0)
        s = PolySubspace(n=2, degree_cap=2, basis=({e1: 1.0}, {e1: 2.0}))
        with pytest.raises(NumericalError):
            intersection_dim(s, s)


class TestVerifyPair:
    def test_flag_pair_of_eight(self):
        report = verify_pair(P((4, 4)), P((2, 2, 2, 2)), 6)
        assert report.passed
        assert report.intersection == 0
        assert report.dims[0] >= 1 and report.dims[1] >= 1
        assert report.carrier_side == 2
        assert (report.window_start, report.window_size) == (0, 4)

    def test_families_pairwise(self):
        for n in (8, 12, 16):
            members = family(n).members
            for p1, p2 in combinations(members, 2):
                report = verify_pair(p1, p2, 4)
                assert report.passed, (p1, p2, report)
                assert min(report.dims) >= 1

    def test_trivial_weyl_side_falls_back(self):
        report = verify_pair(P((2, 6)), P((4, 4)), 6)
        assert report.passed and report.carrier_side == 2
        assert report.swaps[0] is None and report.swaps[1] == (1, 2)

    def test_equal_blocks_outside_windows_fall_back_to_weyl(self):
        # (4, 4) has its equal pair across a window and an agreement
        report = verify_pair(P((2, 2, 4)), P((4, 4)), 6)
        assert report.passed and report.carrier_side == 1
        assert report.swaps == ((1, 2), (1, 2))

    def test_equal_partitions_rejected(self):
        with pytest.raises(DomainError):
            verify_pair(P((2, 2)), P((2, 2)))

    def test_no_window_swap_rejected(self):
        with pytest.raises(DomainError):
            verify_pair(P((2, 2, 4)), P((2, 6)), 4)

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            verify_pair(P((4, 4)), P((2, 2, 2, 2)), 5)

    def test_reports_margins(self):
        report = verify_pair(P((4, 4)), P((2, 2, 2, 2)), 6)
        assert report.sv_kept_min > DEFAULT_RANK_TOL
        assert report.sv_dropped_max < DEFAULT_RANK_TOL / 10

    @pytest.mark.parametrize("d", [4, 6])
    def test_exact_path_matches_float_oracle(self, d):
        for n in range(8, 17):
            for p1, p2 in combinations(family(n).members, 2):
                report = verify_pair(p1, p2, d)
                s1 = coordinate_space(p1, report.swaps[0], d)
                s2 = coordinate_space(p2, report.swaps[1], d)
                assert report.dims == (s1.dim, s2.dim) == pair_space_dims(p1, p2, d)
                assert report.intersection == intersection_dim(s1, s2), (p1, p2)

    def test_families_pairwise_at_28_and_32(self):
        for n in (28, 32):
            for p1, p2 in combinations(family(n).members, 2):
                report = verify_pair(p1, p2, 6)
                assert report.passed, (p1, p2, report)
                assert min(report.dims) >= 1


@pytest.fixture
def primes_used(monkeypatch):
    """The prime of every _sparse_rank call, None for one over the rationals."""
    used = []
    real = invverify._sparse_rank

    def spy(rows, prime=None):
        used.append(prime)
        return real(rows, prime)

    monkeypatch.setattr(invverify, "_sparse_rank", spy)
    return used


class TestFixedSwaps:
    """Independence needs the window-local swaps of verify_pair.

    Giving every member its first equal pair as a fixed swap instead, some
    family pairs meet: these rank deficits go through the confirmation
    over the rationals.
    """

    @pytest.mark.parametrize(
        "a,b,meet",
        [
            ((2,) * 6, (2, 2, 4, 4), 11),
            ((2,) * 8, (2, 2, 2, 2, 4, 4), 22),
            ((2,) * 8, (2, 2, 6, 6), 11),
            ((2, 2, 2, 2, 4, 4), (2, 2, 6, 6), 7),
        ],
    )
    def test_first_pair_swaps_meet(self, a, b, meet, primes_used):
        p1, p2 = P(a), P(b)
        swap1, swap2 = first_equal_pair(p1), first_equal_pair(p2)
        dims, inter, _kept, _dropped = invverify._refined_intersection(p1, swap1, p2, swap2, 6)
        assert inter == meet
        assert None in primes_used
        s1 = swap_antisymmetric_space(p1, swap1, 6)
        s2 = swap_antisymmetric_space(p2, swap2, 6)
        assert dims == (s1.dim, s2.dim)
        assert intersection_dim(s1, s2) == meet

    def test_all_first_pair_swaps_at_twelve(self):
        members = family(12).members
        meeting = []
        for p1, p2 in combinations(members, 2):
            inter = invverify._refined_intersection(
                p1, first_equal_pair(p1), p2, first_equal_pair(p2), 6
            )[1]
            if inter:
                meeting.append((p1.parts, p2.parts, inter))
            assert verify_pair(p1, p2, 6).passed
        assert meeting == [((2,) * 6, (2, 2, 4, 4), 11)]


class TestExactChecks:
    def test_deficit_mod_p_is_confirmed_over_q(self, monkeypatch, primes_used):
        # mod 2 the multinomial coefficients 2 vanish and the rank drops;
        # the rank over Q still decides
        monkeypatch.setattr(invverify, "_PRIME", 2)
        for p1, p2 in combinations(family(16).members, 2):
            report = verify_pair(p1, p2, 6)
            assert report.passed and report.intersection == 0
        assert None in primes_used

    def test_full_rank_mod_p_needs_no_rationals(self, primes_used):
        for p1, p2 in combinations(family(16).members, 2):
            verify_pair(p1, p2, 6)
        assert primes_used and None not in primes_used

    def test_float_exact_disagreement_raises(self, monkeypatch):
        real = invverify._rank
        monkeypatch.setattr(invverify, "_rank", lambda m: (real(m)[0] - 1, 1.0, 0.0))
        with pytest.raises(InternalInvariantError, match="disagrees"):
            verify_pair(P((4, 4)), P((2, 2, 2, 2)), 6)

    def test_dependent_basis_raises(self, monkeypatch):
        real = invverify._side_basis
        monkeypatch.setattr(invverify, "_side_basis", lambda *args: 2 * real(*args))
        with pytest.raises(InternalInvariantError, match="linearly dependent"):
            verify_pair(P((4, 4)), P((2, 2, 2, 2)), 6)

    def test_sparse_rank_over_q_and_mod_p(self):
        rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}]
        assert invverify._sparse_rank(rows) == 2
        assert invverify._sparse_rank(rows, invverify._PRIME) == 2
        assert invverify._sparse_rank(rows, 3) == 1
