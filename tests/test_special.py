"""Double-partition families and the solution-series count."""

import math

import pytest

from borelcensus import (
    InternalInvariantError,
    Partition,
    UnsupportedDimensionError,
    count_p,
    decompose,
    double_partition,
    equivalent,
    family,
    solutions_count,
    weyl,
)
from borelcensus import special
from borelcensus.special import applicable_case

P = Partition
_doubled = special._doubled


class TestDoubling:
    def test_examples(self):
        assert double_partition(P((2,)), 8).parts == (4, 4)
        assert double_partition(P((1, 1)), 8).parts == (2, 2, 2, 2)
        assert double_partition(P((1,)), 7).parts == (2, 2, 3)

    def test_odd_part_insertion_both_branches(self):
        # small doubled pairs before the odd part, large ones after
        assert double_partition(P((1, 1, 2)), 19).parts == (2, 2, 2, 2, 3, 4, 4)
        assert double_partition(P((2, 3)), 23).parts == (3, 4, 4, 6, 6)
        assert double_partition(P((1, 3)), 21).parts == (2, 2, 5, 6, 6)
        assert double_partition(P((3,)), 17).parts == (5, 6, 6)

    def test_mod2_prepends(self):
        assert double_partition(P((1,)), 6).parts == (2, 2, 2)
        assert double_partition(P((2,)), 10).parts == (2, 4, 4)

    def test_base_must_match_case(self):
        with pytest.raises(UnsupportedDimensionError):
            double_partition(P((2,)), 12)  # 12 = 4*3 needs a base of 3

    def test_uncovered_dimensions(self):
        for n in (1, 2, 3, 5):
            with pytest.raises(UnsupportedDimensionError):
                applicable_case(n)


class TestFamily:
    def test_family_8(self):
        fam = family(8)
        assert fam.case == "mod0" and fam.m == 2
        assert sorted(p.parts for p in fam.members) == [(2, 2, 2, 2), (4, 4)]

    def test_family_6(self):
        fam = family(6)
        assert fam.case == "mod2" and [p.parts for p in fam.members] == [(2, 2, 2)]

    def test_family_12(self):
        fam = family(12)
        assert sorted(p.parts for p in fam.members) == [
            (2, 2, 2, 2, 2, 2),
            (2, 2, 4, 4),
            (6, 6),
        ]

    def test_family_9_uses_mod5(self):
        fam = family(9)
        assert fam.case == "mod5" and [p.parts for p in fam.members] == [(2, 2, 5)]

    def test_sweep_invariants_to_60(self):
        for n in range(4, 61):
            if n == 5:
                continue
            fam = family(n)
            assert len(fam.members) == solutions_count(n) == count_p(fam.m)
            for p in fam.members:
                assert p.n == n and p.min_part >= 2 and weyl(p).nontrivial
            for i in range(len(fam.members)):
                for j in range(i + 1, len(fam.members)):
                    assert not equivalent(fam.members[i], fam.members[j])

    def test_mod0_members_all_even_with_paired_values(self):
        from collections import Counter

        for n in (8, 16, 24, 40):
            for p in family(n).members:
                assert all(v % 2 == 0 for v in p.parts)
                # doubling gives every value an even multiplicity >= 2
                assert all(m >= 2 and m % 2 == 0 for m in Counter(p.parts).values())

    def test_distinct_members_have_windows_and_swaps(self):
        for n in (8, 12, 16, 20):
            members = family(n).members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    dec = decompose(members[i], members[j])
                    assert dec.windows, (members[i], members[j])
                    assert dec.window_plan is not None


class TestFamilyChecks:
    """Each consistency check of family fires when the construction breaks."""

    @pytest.mark.parametrize(
        "broken,message",
        [
            # the bases {1,1,1} and {1,2} give one member
            (lambda t, case: _doubled((1, 2) if t == (1, 1, 1) else t, case), "coincide"),
            # members of the wrong n, with a part 1, with a trivial Weyl group
            (lambda t, _case: tuple(2 * v for v in t) * 3, "violates"),
            (lambda _t, _case: (1,) * 12, "violates"),
            (lambda _t, _case: (12,), "violates"),
        ],
    )
    def test_broken_doubling_raises(self, monkeypatch, broken, message):
        monkeypatch.setattr(special, "_doubled", broken)
        with pytest.raises(InternalInvariantError, match=message):
            family(12)

    def test_size_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(special, "count_p", lambda m: 4)
        with pytest.raises(InternalInvariantError, match="family size 3 != P"):
            family(12)


class TestSolutionsCount:
    def test_examples(self):
        assert solutions_count(9) == 1
        assert solutions_count(16) == 5
        assert solutions_count(8) == 2
        assert solutions_count(12) == 3

    def test_growth_like_exp_sqrt(self):
        # s_N = P(M), M ~ N/4, grows like exp(pi sqrt(N/6)): log s_N / sqrt(N)
        # climbs towards pi/sqrt(6) ~ 1.283, while log s_N / N falls
        limit = math.pi / math.sqrt(6)
        rates = {n: math.log(solutions_count(n)) / math.sqrt(n) for n in (400, 4000)}
        assert 0.95 < rates[400] < 0.96
        assert 1.14 < rates[4000] < 1.15 < limit
        assert math.log(solutions_count(4000)) / 4000 < math.log(solutions_count(400)) / 400

    def test_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            solutions_count(5)
        with pytest.raises(UnsupportedDimensionError):
            solutions_count(3)

    def test_residue_table(self):
        assert solutions_count(4) == count_p(1)
        assert solutions_count(40) == count_p(10)
        assert solutions_count(42) == count_p(10)
        assert solutions_count(43) == count_p(10)
        assert solutions_count(45) == count_p(10)
