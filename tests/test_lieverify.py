"""Numerical Lie-algebra oracle: closure dimensions, tangent ranks, swaps."""

import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from borelcensus import (
    DomainError,
    IndeterminateError,
    InvolutionSpec,
    NumericalError,
    Partition,
    ProbeDisagreementError,
    block_algebra,
    closure,
    decompose,
    enumerate_partitions,
    generated_group,
    involution_normalizes,
    is_transitive_pair,
    transitive_on,
)
from borelcensus import lieverify
from borelcensus.lieverify import DEFAULT_TOL, LieClosure, _accept, _swap_permutation

P = Partition


class TestBlockAlgebra:
    def test_counts(self):
        assert len(block_algebra(P((2, 2)))) == 2
        assert len(block_algebra(P((4,)))) == 6
        assert len(block_algebra(P((2, 6)))) == 16

    def test_rejects_small_parts(self):
        with pytest.raises(DomainError):
            block_algebra(P((1, 3)))

    def test_orthonormal_and_skew(self):
        b = block_algebra(P((2, 3, 3)))
        flat = b.reshape(len(b), -1)
        gram = flat @ flat.T
        assert np.allclose(gram, np.eye(len(b)), atol=1e-12)
        assert np.max(np.abs(b + np.transpose(b, (0, 2, 1)))) == 0

    def test_block_support(self):
        b = block_algebra(P((2, 4)))
        # no generator mixes the two blocks
        assert np.max(np.abs(b[:, :2, 2:])) == 0
        assert np.max(np.abs(b[:, 2:, :2])) == 0

    @pytest.mark.parametrize("parts", [(2, 3, 3), (2, 2, 4)])
    def test_matches_per_element_reference(self, parts):
        # one matrix per pair a < b of a block, built one at a time
        p = P(parts)
        mats = []
        for offset, size in zip((0, *p.prefix_sums()), p.parts):
            for a in range(offset, offset + size):
                for b in range(a + 1, offset + size):
                    x = np.zeros((p.n, p.n))
                    x[a, b] = 1.0 / np.sqrt(2.0)
                    x[b, a] = -1.0 / np.sqrt(2.0)
                    mats.append(x)
        got = block_algebra(p)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(mats))

    def test_block_placement(self):
        # blocks start at the prefix sums 0, 2, 5 of {2,3,3}
        p = P((2, 3, 3))
        support = np.zeros((8, 8), dtype=bool)
        for lo, hi in ((0, 2), (2, 5), (5, 8)):
            support[lo:hi, lo:hi] = True
        assert np.max(np.abs(block_algebra(p)[:, ~support])) == 0
        assert _swap_permutation(p, InvolutionSpec(2, 3, 3)) == [0, 1, 5, 6, 7, 2, 3, 4]


class TestClosure:
    def test_torus_plus_full_block(self):
        c = closure(block_algebra(P((2, 2))), block_algebra(P((4,))))
        assert c.dimension == 6

    def test_already_closed(self):
        b = block_algebra(P((2, 2)))
        assert closure(b, b).dimension == len(b)

    def test_two_partitions_of_eight(self):
        c = closure(block_algebra(P((2, 2, 4))), block_algebra(P((2, 6))))
        assert c.dimension == 16

    def test_monotone_in_generators(self):
        for parts1, parts2 in [((2, 2), (4,)), ((2, 3), (5,)), ((2, 2, 2), (6,))]:
            b1, b2 = block_algebra(P(parts1)), block_algebra(P(parts2))
            assert closure(b1, b1).dimension <= closure(b1, b2).dimension

    def test_closure_basis_stays_skew(self):
        c = closure(block_algebra(P((2, 2, 4))), block_algebra(P((2, 6))))
        resid = np.max(np.abs(c.basis + np.transpose(c.basis, (0, 2, 1))))
        assert resid <= 1e-12

    def test_closed_under_bracket(self):
        c = closure(block_algebra(P((2, 3))), block_algebra(P((5,))))
        flat = c.basis.reshape(c.dimension, -1)
        for x in c.basis:
            for y in c.basis:
                z = (x @ y - y @ x).ravel()
                resid = z - flat.T @ (flat @ z)
                assert np.linalg.norm(resid) <= 1e-9

    def test_rejects_non_skew(self):
        bad = np.eye(3)[None, :, :]
        with pytest.raises(DomainError):
            closure(bad, bad)

    def test_rejects_empty_basis(self):
        empty = np.zeros((0, 3, 3))
        b = block_algebra(P((3,)))
        with pytest.raises(DomainError, match="first basis is empty"):
            closure(empty, b)
        with pytest.raises(DomainError, match="second basis is empty"):
            closure(b, empty)

    def test_rejects_non_orthonormal(self):
        b = block_algebra(P((3,)))
        x = b[0]
        with pytest.raises(DomainError, match="not orthonormal"):
            closure(np.stack([x, x]), b)
        with pytest.raises(DomainError, match="not orthonormal"):
            closure(b, 2.0 * x[None])

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 3)),  # 2-D
            np.zeros((2, 3, 4)),  # not square
            [[[0.0, 1.0], [-1.0, 0.0]]],  # a list, not an array
            np.zeros((1, 2, 2), dtype=complex),
        ],
        ids=["2d", "non-square", "list", "complex"],
    )
    def test_rejects_non_array_input(self, bad):
        b = block_algebra(P((2,)))
        with pytest.raises(DomainError, match="must be a real \\(k, n, n\\) array"):
            closure(bad, b)
        with pytest.raises(DomainError, match="must be a real \\(k, n, n\\) array"):
            closure(b, bad)

    def test_rejects_nan(self):
        b = block_algebra(P((2, 2))).copy()
        b[0, 0, 1] = b[0, 1, 0] = np.nan
        with pytest.raises(DomainError, match="not skew-symmetric"):
            closure(b, block_algebra(P((4,))))

    def test_first_round_brackets_each_unordered_pair_once(self, monkeypatch):
        # at n = 20 every slice of G is one generator, and the first round
        # stops short of so(20): the generated group is O(2) x O(18)
        p1, p2 = P((2, 9, 9)), P((2, 3, 15))
        calls = []

        def spy(basis, m, batch):
            calls.append((m, len(batch)))
            widths.add((basis.shape, batch.shape[1]))
            return _accept(basis, m, batch)

        widths = set()
        monkeypatch.setattr(lieverify, "_accept", spy)
        c = closure(block_algebra(p1), block_algebra(p2))
        assert c.dimension == decompose(p1, p2).lie_dimension == 154 < 190
        # every row is a packed skew matrix, its 20 * 19 / 2 upper entries
        assert widths == {((190, 190), 190)}
        # G: the two block algebras (73 and 109 elements) less the algebra of
        # their common refinement, which both contain
        size_g = 73 + 109 - len(block_algebra(P((2, 3, 6, 9))))
        assert calls[1][0] == size_g == 127
        assert lieverify._BATCH_FLOATS // (size_g * 20 * 20) == 1
        # after the seed's call, generator j meets the frontier rows i >= j:
        # |G|(|G|+1)/2 brackets where every ordered pair would be |G|^2
        rows = [r for _m, r in calls[1 : 1 + size_g]]
        assert rows == list(range(size_g, 0, -1))
        assert sum(rows) == size_g * (size_g + 1) // 2

    @pytest.mark.parametrize("n", [8, 9])
    def test_basis_exactly_skew_and_orthonormal(self, n):
        for p1, p2 in combinations(enumerate_partitions(n, 2), 2):
            c = closure(block_algebra(p1), block_algebra(p2))
            assert c.basis.shape == (c.dimension, n, n)
            assert not np.any(c.basis + np.transpose(c.basis, (0, 2, 1))), (p1, p2)
            flat = c.basis.reshape(c.dimension, -1)
            assert np.max(np.abs(flat @ flat.T - np.eye(c.dimension))) <= 1e-12, (p1, p2)

    def test_seed_spanning_so_n_runs_no_round(self):
        c = closure(block_algebra(P((4,))), block_algebra(P((2, 2))))
        assert c.dimension == 6 and c.iterations == 0

    def test_margins(self):
        c = closure(block_algebra(P((2, 2, 4))), block_algebra(P((2, 6))))
        assert c.residual_kept_min > DEFAULT_TOL
        assert c.residual_dropped_max < DEFAULT_TOL / 10

    @pytest.mark.parametrize("eps", [3e-9, 3e-11])
    def test_margin_is_the_deciding_residual(self, eps):
        # the second generator's residual against the first is eps
        x = np.zeros((4, 4))
        x[0, 1], x[1, 0] = 1.0, -1.0
        y = x.copy()
        y[2, 3], y[3, 2] = eps, -eps
        b1 = (x / np.linalg.norm(x))[None]
        b2 = (y / np.linalg.norm(y))[None]
        c = closure(b1, b2)
        margin = c.residual_kept_min if eps > DEFAULT_TOL else c.residual_dropped_max
        assert margin == pytest.approx(eps, rel=1e-3)

    def test_rejects_dimension_mismatch(self):
        b4, b5 = block_algebra(P((2, 2))), block_algebra(P((2, 3)))
        for b1, b2 in ((b4, b5), (b5, b4)):
            with pytest.raises(DomainError, match="different dimensions: 4 vs 5|5 vs 4"):
                closure(b1, b2)

    def test_dimension_matches_prediction_small_sweep(self):
        for n in (6, 7, 8):
            parts = enumerate_partitions(n, 2)
            for p1, p2 in combinations(parts, 2):
                c = closure(block_algebra(p1), block_algebra(p2))
                assert c.dimension == generated_group(p1, p2).lie_dimension, (p1, p2)

    def test_self_pair_dimension(self):
        for parts in [(2, 2), (2, 4), (3, 3), (2, 2, 2)]:
            b = block_algebra(P(parts))
            assert closure(b, b).dimension == generated_group(P(parts), P(parts)).lie_dimension

    def test_residual_in_ambiguity_band_raises(self):
        # the second generator leaves the first's span by eps, and the two
        # commute, so eps against the band [1e-10, 1e-9] decides the dimension
        def pair(eps):
            x = np.zeros((4, 4))
            x[0, 1], x[1, 0] = 1.0, -1.0
            y = x.copy()
            y[2, 3], y[3, 2] = eps, -eps
            b1 = (x / np.linalg.norm(x))[None]
            b2 = (y / np.linalg.norm(y))[None]
            return b1, b2

        with pytest.raises(IndeterminateError):
            closure(*pair(3e-10))
        assert closure(*pair(3e-9)).dimension == 2
        assert closure(*pair(3e-11)).dimension == 1

    def test_basis_overflow_raises(self):
        basis = np.zeros((1, 4))  # room for one direction only
        with pytest.raises(NumericalError):
            _accept(basis, 0, np.eye(4)[:2])

    def test_zero_brackets_never_reach_the_projector(self, monkeypatch):
        # block algebras sit on the coordinate axes, so most of their
        # brackets are exactly zero; those rows leave before the projection
        seen = []

        def spy(rows, norms, basis):
            seen.append(len(rows))
            assert np.all(np.any(rows, axis=1)), "an all-zero row reached _project_out"
            return project_out(rows, norms, basis)

        project_out = lieverify._project_out
        monkeypatch.setattr(lieverify, "_project_out", spy)
        p1, p2 = P((2, 2, 4)), P((2, 6))
        c = closure(block_algebra(p1), block_algebra(p2))
        assert c.dimension == generated_group(p1, p2).lie_dimension == 16
        assert sum(seen) > 0

    def test_cancelling_rows_are_projected_twice(self):
        # rows 1e-7 of whose length survives the first pass keep rounding
        # of about 2e-15 along the span; the second pass removes it
        rng = np.random.default_rng(25)
        basis = np.linalg.qr(rng.standard_normal((40, 5)))[0].T
        noise = rng.standard_normal((8, 40))
        noise /= np.linalg.norm(noise, axis=1)[:, None]
        span = rng.standard_normal((8, 5)) @ basis
        rows = span + 1e-7 * np.linalg.norm(span, axis=1)[:, None] * noise
        norms = np.linalg.norm(rows, axis=1)
        kept, norms, dropped = lieverify._project_out(rows, norms, basis)
        assert len(kept) == 8 and dropped == 0.0
        assert np.max(np.abs(kept @ basis.T)) < 1e-20
        assert np.allclose(norms, np.linalg.norm(kept, axis=1))

    def test_exhaustive_sweep_n11_n13(self):
        pairs = [
            (n, p1, p2)
            for n in (11, 12, 13)
            for p1, p2 in combinations(enumerate_partitions(n, 2), 2)
        ]
        assert len(pairs) == 577
        for n, p1, p2 in pairs:
            c = closure(block_algebra(p1), block_algebra(p2))
            assert c.dimension == generated_group(p1, p2).lie_dimension, (p1, p2)
            assert transitive_on(c, (0, n)) == is_transitive_pair(p1, p2), (p1, p2)
            for w in decompose(p1, p2).windows:
                assert transitive_on(c, (w.start, w.start + w.size)), (p1, p2, w)

    @pytest.mark.parametrize("n", [8, 10])
    def test_off_axis_frame(self, n):
        # one random orthogonal Q moves both algebras off the coordinate
        # axes, so residuals are no longer exactly 0 or 1/sqrt(2)
        q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))

        def rotated(p):
            return q @ block_algebra(p) @ q.T

        for p1, p2 in combinations_with_replacement(enumerate_partitions(n, 2), 2):
            b1, b2 = rotated(p1), rotated(p2)
            c = closure(b1, b2)
            assert c.dimension == generated_group(p1, p2).lie_dimension, (p1, p2)
            assert transitive_on(c, (0, n)) == is_transitive_pair(p1, p2), (p1, p2)
            # the larger input seeds the basis, so the order must not matter
            assert closure(b2, b1).dimension == c.dimension, (p1, p2)

    @pytest.mark.parametrize(
        "parts1,parts2",
        [((2, 2, 9), (3, 5, 5)), ((2, 3, 3, 5), (4, 9)), ((2, 3, 4, 4), (3, 10))],
    )
    def test_pivoted_acceptance_at_n13(self, parts1, parts2):
        # one SVD per bracket batch instead of the pivoted loop put singular
        # values of 2.5e-10 to 9.5e-10 inside the band on exactly these pairs
        p1, p2 = P(parts1), P(parts2)
        c = closure(block_algebra(p1), block_algebra(p2))
        assert c.dimension == generated_group(p1, p2).lie_dimension
        assert transitive_on(c, (0, 13)) == is_transitive_pair(p1, p2)
        for w in decompose(p1, p2).windows:
            assert transitive_on(c, (w.start, w.start + w.size))


class TestTransitivity:
    def test_full_sphere_true(self):
        c = closure(block_algebra(P((2, 2))), block_algebra(P((4,))))
        assert transitive_on(c, (0, 4)) is True

    def test_torus_alone_false(self):
        b = block_algebra(P((2, 2)))
        assert transitive_on(closure(b, b), (0, 4)) is False

    def test_window_of_eight(self):
        c = closure(block_algebra(P((2, 2, 4))), block_algebra(P((2, 6))))
        assert transitive_on(c, (2, 8)) is True

    def test_one_coordinate_window_false(self):
        # S^0 is two points, which the connected group fixes; the tangent
        # rank there is 0 == dim - 1 and must not read as transitive
        x = np.zeros((3, 3))
        x[0, 1], x[1, 0] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        c = closure(x[None], x[None])
        assert transitive_on(c, (2, 3)) is False
        assert transitive_on(c, (0, 2)) is True

    def test_non_invariant_window_rejected(self):
        c = closure(block_algebra(P((4,))), block_algebra(P((4,))))
        with pytest.raises(DomainError):
            transitive_on(c, (0, 2))

    def test_bad_range_rejected(self):
        c = closure(block_algebra(P((2, 2))), block_algebra(P((2, 2))))
        with pytest.raises(DomainError):
            transitive_on(c, (3, 3))

    @pytest.mark.parametrize(
        "window", [(0.5, 3), (0, 4.0), ("0", 4), (0, 4, 5), (True, 3), (0, False), 4, None, "04"]
    )
    def test_window_must_be_a_pair_of_integers(self, window):
        c = closure(block_algebra(P((4,))), block_algebra(P((4,))))
        with pytest.raises(DomainError, match="window must be a pair of integers"):
            transitive_on(c, window)

    def test_numpy_integer_window(self):
        c = closure(block_algebra(P((4,))), block_algebra(P((4,))))
        assert transitive_on(c, (np.int64(0), np.int32(4))) is True

    def test_ambiguity_band_raises(self):
        from borelcensus.errors import IndeterminateError
        from borelcensus.lieverify import LieClosure

        # two tangent directions at e0 separated by an angle ~3e-9 put the
        # second singular value inside [rank_tol/10, rank_tol]
        eps = 3e-9
        x1 = np.zeros((4, 4))
        x1[0, 1], x1[1, 0] = 1.0, -1.0
        x2 = np.zeros((4, 4))
        x2[0, 1], x2[1, 0] = 1.0, -1.0
        x2[0, 2], x2[2, 0] = eps, -eps
        x1 /= np.sqrt(2.0)
        x2 /= np.linalg.norm(x2)
        c = LieClosure(
            basis=np.stack([x1, x2]),
            dimension=2,
            iterations=0,
            residual_kept_min=1.0,
            residual_dropped_max=0.0,
        )
        with pytest.raises(IndeterminateError):
            transitive_on(c, (0, 4))

    @staticmethod
    def _closure_of(basis):
        return LieClosure(
            basis=basis,
            dimension=len(basis),
            iterations=0,
            residual_kept_min=1.0,
            residual_dropped_max=0.0,
        )

    @pytest.mark.parametrize("window", [(0, 2), (1, 3), (0, 4), (2, 3)])
    def test_zero_algebra_is_never_transitive(self, window):
        # the zero algebra fixes every point, and preserves every window
        assert transitive_on(self._closure_of(np.zeros((0, 4, 4))), window) is False

    @pytest.mark.parametrize(
        "basis",
        [
            np.zeros((4, 4)),
            np.zeros((1, 4, 3)),
            np.zeros((1, 4, 4), dtype=complex),
            [np.zeros((4, 4))],
        ],
        ids=["2d", "non-square", "complex", "list"],
    )
    def test_rejects_malformed_basis(self, basis):
        with pytest.raises(DomainError, match="must be a real \\(k, n, n\\) array"):
            transitive_on(self._closure_of(basis), (0, 2))

    def test_probes_disagree_on_a_basis_that_is_not_closed(self):
        # rotations in the planes 01 and 12, without their bracket in 02: at
        # e_0 only the first moves the point (rank 1), at the fixed probe
        # both do (rank 2 == dim - 1)
        basis = np.zeros((2, 3, 3))
        basis[0, 0, 1] = basis[1, 1, 2] = 1 / np.sqrt(2.0)
        basis -= basis.transpose(0, 2, 1)
        with pytest.raises(ProbeDisagreementError, match="probes disagree on window"):
            transitive_on(self._closure_of(basis), (0, 3))

    @pytest.mark.parametrize("window", [(0, 2), (2, 5), (5, 8)])
    def test_spill_in_each_off_window_slab(self, window):
        # blocks {0,1}, {2,3,4}, {5,6,7}: every block is an invariant window
        lo, hi = window
        basis = block_algebra(P((2, 3, 3)))
        assert transitive_on(self._closure_of(basis), window) is True
        # one entry in each slab between the window and the coordinates
        # before or after it; a window at either end has two such slabs
        before, inside, after = range(lo), range(lo, hi), range(hi, 8)
        pairs = [(before, inside), (after, inside), (inside, before), (inside, after)]
        slabs = [(rows[0], cols[0]) for rows, cols in pairs if len(rows) and len(cols)]
        assert len(slabs) == (2 if lo == 0 or hi == 8 else 4)
        for r, c in slabs:
            for eps, spills in ((1e-6, True), (1e-12, False)):
                perturbed = basis.copy()
                perturbed[-1, r, c] = eps
                closed = self._closure_of(perturbed)
                if spills:
                    with pytest.raises(DomainError, match="not invariant"):
                        transitive_on(closed, window)
                else:
                    assert transitive_on(closed, window) is True

    def test_matches_exact_predicate_small_sweep(self):
        for n in (6, 7, 8):
            parts = enumerate_partitions(n, 2)
            for p1, p2 in combinations(parts, 2):
                c = closure(block_algebra(p1), block_algebra(p2))
                assert transitive_on(c, (0, n)) == is_transitive_pair(p1, p2)
                for w in decompose(p1, p2).windows:
                    assert transitive_on(c, (w.start, w.start + w.size))


class TestInvolutions:
    def test_swap_matrix_is_orthogonal_involution(self):
        # np.eye(7)[perm] is the swap matrix: orthogonal for a permutation,
        # an involution for a permutation that is its own inverse
        perm = _swap_permutation(P((2, 2, 3)), InvolutionSpec(1, 2, 2))
        assert sorted(perm) == list(range(7))
        assert [perm[i] for i in perm] == list(range(7))

    def test_normalizes_equal_blocks(self):
        assert involution_normalizes(P((2, 2)), InvolutionSpec(1, 2, 2))
        assert involution_normalizes(P((2, 2, 2)), InvolutionSpec(1, 3, 2))
        assert involution_normalizes(P((2, 3, 3)), InvolutionSpec(2, 3, 3))

    def test_unequal_blocks_rejected(self):
        with pytest.raises(DomainError):
            involution_normalizes(P((2, 4)), InvolutionSpec(1, 2, 2))

    def test_wrong_size_rejected(self):
        with pytest.raises(DomainError):
            involution_normalizes(P((2, 2)), InvolutionSpec(1, 2, 3))

    def test_tuple_swap_rejected(self):
        for check in (_swap_permutation, involution_normalizes):
            with pytest.raises(DomainError, match="must be an InvolutionSpec"):
                check(P((2, 2)), (1, 2, 2))

    @pytest.mark.parametrize("eps,verdict", [(1e-12, True), (5e-10, None), (1e-6, False)])
    def test_normalizer_residual_band(self, monkeypatch, eps, verdict):
        # perturb so(2) + 0 by eps out of the block algebra's span; the swap
        # of the two blocks then leaves a residual of norm eps
        real = lieverify.block_algebra

        def perturbed(p):
            b = real(p).copy()
            b[0, 0, 2] += eps / np.sqrt(2.0)
            b[0, 2, 0] -= eps / np.sqrt(2.0)
            return b

        monkeypatch.setattr(lieverify, "block_algebra", perturbed)
        inv = InvolutionSpec(1, 2, 2)
        if verdict is None:
            with pytest.raises(IndeterminateError, match="normalizer residual"):
                involution_normalizes(P((2, 2)), inv)
        else:
            assert involution_normalizes(P((2, 2)), inv) is verdict

    def test_every_emitted_involution_normalizes(self):
        from borelcensus import weyl

        for n in range(4, 11):
            for q in enumerate_partitions(n, 2):
                for inv in weyl(q).involutions:
                    assert involution_normalizes(q, inv)


def test_oracle_never_imports_numpy_random():
    # the tangent probe is a closed-form vector; numpy.random costs about
    # 6 MB of resident memory in a process that never draws from it
    script = (
        "import io, sys\n"
        "from borelcensus import InvolutionSpec, Partition, cli, involution_normalizes\n"
        "out = io.StringIO()\n"
        "assert cli.run(['verify-lie', '2', '2', '4', '--', '4', '4'], stdout=out) == 0\n"
        "assert involution_normalizes(Partition((4, 4)), InvolutionSpec(1, 2, 4))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(lieverify.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
