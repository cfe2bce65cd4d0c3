"""Flag classification: multiplicity tables, Weyl groups, census, nodal swaps."""

import math
import re
import sys
from dataclasses import replace
from itertools import permutations

import pytest

from borelcensus import (
    DomainError,
    InternalInvariantError,
    InvolutionSpec,
    Partition,
    SignRep,
    borel_classification,
    class_census,
    count_p,
    enumerate_partitions,
    equivalent,
    nodal_subspaces,
    orbit_length,
    phi_indices,
    weyl,
)
from borelcensus import flags, partitions

P = Partition


class TestProfile:
    def test_examples(self):
        assert dict(weyl(P((2, 2, 3))).factors) == {2: 2, 3: 1}
        assert dict(weyl(P((2, 2, 2))).factors) == {2: 3}
        assert dict(weyl(P((4,))).factors) == {4: 1}

    def test_invariants(self):
        for parts in [(2, 2, 3), (1, 1, 1, 4), (5,)]:
            p = P(parts)
            factors = weyl(p).factors
            assert sum(v * m for v, m in factors) == p.n
            assert sum(m for _, m in factors) == p.length
            assert p.n + 1 not in dict(factors)

    def test_phi_indices(self):
        assert phi_indices(P((2, 2, 3)), 2) == frozenset({1, 2})
        assert phi_indices(P((2, 2, 3)), 5) == frozenset()
        assert phi_indices(P((2, 2, 4, 4, 4)), 4) == frozenset({3, 4, 5})


class TestEquivalence:
    def test_examples(self):
        assert equivalent(P((2, 3, 2)), P((2, 2, 3)))
        assert not equivalent(P((2, 2, 4)), P((2, 3, 3)))
        assert not equivalent(P((4, 4)), P((2, 2, 2, 2)))

    def test_mismatched_n(self):
        with pytest.raises(DomainError):
            equivalent(P((2, 2)), P((2, 3)))

    def test_class_count_matches_p(self):
        for n in range(1, 13):
            classes = {weyl(q).factors for q in enumerate_partitions(n)}
            assert len(classes) == count_p(n)


class TestOrbitAndWeyl:
    def test_orbit_examples(self):
        assert orbit_length(P((2, 2, 3))) == 3
        assert orbit_length(P((2, 3, 4))) == 6
        assert orbit_length(P((2, 2, 2))) == 1

    def test_orbit_matches_distinct_orderings(self):
        for parts in [(2, 2, 3), (1, 2, 3), (2, 2, 2), (1, 1, 2, 2), (1, 2, 2, 3)]:
            assert orbit_length(P(parts)) == len(set(permutations(parts)))

    def test_orbit_stabilizer_to_12(self):
        for n in range(1, 13):
            for q in enumerate_partitions(n):
                assert orbit_length(q) * weyl(q).order == math.factorial(q.length)

    def test_weyl_examples(self):
        w = weyl(P((2, 2, 2)))
        assert w.factors == ((2, 3),) and w.order == 6 and w.nontrivial
        w2 = weyl(P((2, 3)))
        assert w2.factors == ((2, 1), (3, 1)) and w2.order == 1 and not w2.nontrivial
        assert weyl(P((2, 2, 3, 3))).order == 4

    def test_involutions_iff_nontrivial(self):
        for n in range(1, 13):
            for q in enumerate_partitions(n):
                w = weyl(q)
                assert bool(w.involutions) == w.nontrivial
                assert w.nontrivial == (len(set(q.parts)) < q.length)
                for inv in w.involutions:
                    assert q.parts[inv.block_a - 1] == q.parts[inv.block_b - 1]
                    assert q.parts[inv.block_a - 1] == inv.block_size


class TestCensus:
    def test_examples(self):
        c = class_census(6)
        assert (c.total, c.trivial_weyl, c.nontrivial_weyl) == (11, 4, 7)
        c4 = class_census(4)
        assert (c4.total_ge2, c4.nontrivial_weyl_ge2) == (2, 1)
        c1 = class_census(1)
        assert (c1.total, c1.nontrivial_weyl) == (1, 0)
        assert (c1.total_ge2, c1.trivial_weyl_ge2, c1.nontrivial_weyl_ge2) == (0, 0, 0)

    def test_columns_are_the_count_functions(self):
        from borelcensus import count_p_ge2, count_q, count_q_ge2, count_r, count_r_ge2

        for n in range(2, 13):
            c = class_census(n)
            assert c.total == count_p(n)
            assert c.trivial_weyl == count_q(n)
            assert c.nontrivial_weyl == count_r(n)
            assert c.total_ge2 == count_p_ge2(n)
            assert c.trivial_weyl_ge2 == count_q_ge2(n)
            assert c.nontrivial_weyl_ge2 == count_r_ge2(n)

    @pytest.mark.parametrize("field", ["p", "q", "r", "p_ge2", "q_ge2", "r_ge2"])
    def test_recount_mismatch_raises(self, monkeypatch, field):
        real = flags.partition_counts

        def off_by_one(n):
            c = real(n)
            return replace(c, **{field: getattr(c, field) + 1})

        monkeypatch.setattr(flags, "partition_counts", off_by_one)
        with pytest.raises(InternalInvariantError, match="recount mismatch at n=6"):
            class_census(6)

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("floor", [1, 2])
    def test_euler_recount_matches_enumerator(self, floor, distinct):
        column = 2 * (floor - 1) + distinct  # in the order P, Q, P(;1), Q(;1)
        for n in range(1, 31):
            enumerated = sum(1 for _ in partitions._tuples(n, floor, distinct))
            assert flags._euler_recount(n)[column] == enumerated, n

    def test_census_enumerates_nothing(self, monkeypatch):
        real = partitions._tuples

        def refuse(*args):
            raise AssertionError(f"enumerated {args}")

        for name, module in list(sys.modules.items()):
            if name.startswith("borelcensus") and getattr(module, "_tuples", None) is real:
                monkeypatch.setattr(module, "_tuples", refuse)
        assert class_census(45).total == count_p(45)


class TestClassification:
    def test_examples(self):
        assert borel_classification(7) == [("SO(7)", "SO(6)"), ("G2", "SU(3)")]
        assert borel_classification(4) == [
            ("SO(4)", "SO(3)"),
            ("SU(2)", "SU(1)"),
            ("Sp(1)", "Sp(0)"),
        ]
        assert borel_classification(3) == [("SO(3)", "SO(2)")]

    def test_spinor_dimensions(self):
        assert ("Spin(9)", "Spin(7)") in borel_classification(16)
        assert ("Spin(7)", "G2") in borel_classification(8)
        assert all("Spin" not in g for g, _ in borel_classification(12))

    def test_low_even_dimension_has_no_trivial_su(self):
        assert borel_classification(2) == [("SO(2)", "SO(1)")]

    def test_odd_dimensions_su_free(self):
        for n in (3, 5, 9, 11):
            assert borel_classification(n) == [(f"SO({n})", f"SO({n - 1})")]

    def test_domain(self):
        with pytest.raises(DomainError):
            borel_classification(1)


class TestNodalSubspaces:
    def test_single_swap(self):
        specs = nodal_subspaces(P((2, 2)), SignRep((1,)))
        assert len(specs) == 1
        assert (specs[0].block_a, specs[0].block_b, specs[0].block_size) == (1, 2, 2)

    def test_zero_delta_gives_nothing(self):
        assert nodal_subspaces(P((2, 2, 3)), SignRep((0,))) == []

    def test_all_transpositions(self):
        specs = nodal_subspaces(P((2, 2, 2)), SignRep((1,)))
        assert [(s.block_a, s.block_b) for s in specs] == [(1, 2), (1, 3), (2, 3)]
        assert all(s.block_size == 2 for s in specs)

    def test_codimension_equals_block_size(self):
        specs = nodal_subspaces(P((2, 2, 5, 5)), SignRep((1, 1)))
        assert {(s.block_a, s.block_b, s.block_size) for s in specs} == {
            (1, 2, 2),
            (3, 4, 5),
        }

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            nodal_subspaces(P((2, 2, 3)), SignRep((0, 1)))

    def test_trivial_weyl_rejected(self):
        with pytest.raises(DomainError):
            nodal_subspaces(P((2, 3)), SignRep(()))

    def test_sign_rep_validation(self):
        with pytest.raises(DomainError):
            SignRep((0, 2))
        with pytest.raises(DomainError, match="got 1"):
            SignRep(1)
        assert SignRep((0, 0)).trivial and not SignRep((0, 1)).trivial

    @pytest.mark.parametrize("delta", [1.7, 0.5, 1.0, "1", True, False, None])
    def test_sign_rep_refuses_non_int_deltas(self, delta):
        # int() used to coerce these to 0 or 1 before the check
        with pytest.raises(DomainError, match=re.escape(repr(delta))):
            SignRep((0, delta))


class TestInvolutionSpec:
    @pytest.mark.parametrize(
        "fields",
        [(1, 2, 2.5), (1, 2, True), ("1", 2, 2), (1, 2.0, 2), (0, 1, 2), (2, 2, 2), (1, 2, 0)],
    )
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(DomainError):
            InvolutionSpec(*fields)

    def test_check_fits_partition(self):
        InvolutionSpec(2, 3, 3).check(P((2, 3, 3)))
        for inv in (InvolutionSpec(1, 2, 2), InvolutionSpec(2, 3, 2), InvolutionSpec(2, 4, 3)):
            with pytest.raises(DomainError):
                inv.check(P((2, 3, 3)))
