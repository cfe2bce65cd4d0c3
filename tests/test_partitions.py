"""Counting and enumeration, cross-validated by independent oracles."""

import dataclasses
import math
import random
from concurrent.futures import ThreadPoolExecutor
from itertools import pairwise

import pytest

from borelcensus import (
    DomainError,
    Partition,
    asymptotic_p,
    asymptotic_q,
    count_p,
    count_p_ge2,
    count_q,
    count_q_ge2,
    enumerate_partitions,
    family,
    partition_counts,
)
from borelcensus import partitions
from borelcensus.published import PUBLISHED_P_LIST, PUBLISHED_TABLE


def p_by_dp(limit):
    """Unrestricted partition counts by plain DP; independent of the recurrence."""
    dp = [0] * (limit + 1)
    dp[0] = 1
    for k in range(1, limit + 1):
        for m in range(k, limit + 1):
            dp[m] += dp[m - k]
    return dp


def q_by_dp(limit, min_part=1):
    """Distinct parts >= min_part by 0/1-knapsack DP; independent of the recurrences."""
    dp = [0] * (limit + 1)
    dp[0] = 1
    for k in range(min_part, limit + 1):
        for m in range(limit, k - 1, -1):
            dp[m] += dp[m - k]
    return dp


def _tuples_by_recursion(remaining, floor, distinct):
    """Non-decreasing tails with parts >= floor, lexicographic; the generator's oracle."""
    if remaining == 0:
        yield ()
        return
    for k in range(floor, remaining + 1):
        nxt = k + 1 if distinct else k
        for tail in _tuples_by_recursion(remaining - k, nxt, distinct):
            yield (k,) + tail


class TestPartitionType:
    def test_canonicalizes(self):
        assert Partition((3, 1, 2)).parts == (1, 2, 3)

    def test_fields(self):
        p = Partition((2, 2, 3))
        assert p.n == 7 and p.length == 3 and p.min_part == 2
        assert p.prefix_sums() == (2, 4, 7)

    @pytest.mark.parametrize(
        "bad", [(), (0,), (-1, 2), (1.5, 2), (True, 2), (2, "x"), (2, None), 5, None]
    )
    def test_rejects_bad_parts(self, bad):
        with pytest.raises(DomainError):
            Partition(bad)

    def test_non_iterable_is_named(self):
        with pytest.raises(DomainError, match="iterable of integers, got 5"):
            Partition(5)

    def test_ordering_and_equality(self):
        assert Partition((2, 3)) == Partition((3, 2))
        assert sorted([Partition((4,)), Partition((1, 3))]) == [
            Partition((1, 3)),
            Partition((4,)),
        ]


def assert_as_checked(built):
    """A Partition built without checks equals its checked construction in every respect."""
    checked = Partition(built.parts)
    assert type(built) is Partition
    assert built == checked and hash(built) == hash(checked)
    assert str(built) == str(checked)
    assert not (built < checked or checked < built)


class TestTrustedPath:
    """enumerate_partitions and family build members unchecked; each matches Partition(...)."""

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("min_part", [1, 2, 3])
    def test_enumeration_matches_checked_construction(self, min_part, distinct):
        for n in range(1, 21):
            built = enumerate_partitions(n, min_part, distinct)
            for p in built:
                assert_as_checked(p)
            for a, b in pairwise(built):
                ca, cb = Partition(a.parts), Partition(b.parts)
                assert a < b and ca < cb and a < cb and ca < b
                assert not (b < a or cb < ca)

    def test_family_members_match_checked_construction(self):
        for n in [4] + list(range(6, 41)):
            for p in family(n).members:
                assert_as_checked(p)

    def test_slotted_and_frozen(self):
        for p in (Partition((2, 1)), enumerate_partitions(4)[0], family(8).members[0]):
            assert not hasattr(p, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.parts = (4,)


class TestCounts:
    def test_p_examples(self):
        assert count_p(10) == 42
        assert count_p(49) == 173525
        assert count_p(1) == 1

    def test_q_examples(self):
        assert count_q(10) == 10
        assert count_q(7) == 5
        assert count_q(1) == 1

    def test_r_sequence(self):
        assert [partition_counts(n).r for n in range(1, 11)] == [0, 1, 1, 3, 4, 7, 10, 16, 22, 32]

    def test_ge2_examples(self):
        assert count_p_ge2(10) == 12
        assert count_p_ge2(6) == 4
        assert count_p_ge2(2) == 1
        assert count_q_ge2(5) == 2
        # the recurrence values at 7 and 8, where the published table misprints
        assert count_q_ge2(7) == 3
        assert count_q_ge2(8) == 3
        assert partition_counts(4).r_ge2 == 1
        assert partition_counts(10).r_ge2 == 7
        assert partition_counts(8).r_ge2 == 4

    @pytest.mark.parametrize(
        "fn,bad",
        [(count_p, 0), (count_q, 0), (count_p_ge2, 1), (count_q_ge2, 1), (partition_counts, 0)],
    )
    def test_domain_errors(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)

    def test_pentagonal_matches_dp_to_200(self):
        dp = p_by_dp(200)
        for n in range(1, 201):
            assert count_p(n) == dp[n]

    def test_q_ge2_matches_dp_to_300(self):
        dp = q_by_dp(300, 2)
        for n in range(2, 301):
            assert count_q_ge2(n) == dp[n]

    def test_q_matches_dp_to_2000(self, monkeypatch):
        # empty tables, so that later queries extend what earlier ones filled
        monkeypatch.setattr(partitions, "_p_table", [1])
        monkeypatch.setattr(partitions, "_q_table", [1])
        dp = q_by_dp(2000)
        assert count_q(1000) == dp[1000]
        assert count_q(1001) == dp[1001]
        assert [count_q(n) for n in range(1, 2001)] == dp[1:]

    def test_published_table_p_q_r_columns(self):
        for n, (p, q, r, _p1, _q1, _r1) in PUBLISHED_TABLE.items():
            assert (count_p(n), count_q(n), partition_counts(n).r) == (p, q, r)

    def test_published_p_list_except_n3(self):
        for n, printed in PUBLISHED_P_LIST.items():
            if n == 3:
                assert count_p(3) == 3 and printed == 2  # documented misprint
            else:
                assert count_p(n) == printed

    def test_counts_record(self):
        c = partition_counts(10)
        assert (c.p, c.q, c.r, c.p_ge2, c.q_ge2, c.r_ge2) == (42, 10, 32, 12, 5, 7)
        c1 = partition_counts(1)
        assert (c1.p, c1.q, c1.r, c1.p_ge2, c1.q_ge2, c1.r_ge2) == (1, 1, 0, 0, 0, 0)

    def test_record_invariants_to_60(self):
        for n in range(2, 61):
            c = partition_counts(n)
            assert c.r == c.p - c.q >= 0
            assert c.r_ge2 == c.p_ge2 - c.q_ge2 >= 0
            assert c.p_ge2 == count_p(n) - count_p(n - 1)

    def test_big_values_stay_exact(self):
        # spot value for the partition function at 1000
        assert count_p(1000) == 24061467864032622473692149727991


class TestEnumeration:
    def test_listing_example(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]

    def test_distinct_min2_example(self):
        got = [p.parts for p in enumerate_partitions(7, 2, True)]
        assert got == [(2, 5), (3, 4), (7,)]

    def test_single(self):
        assert [p.parts for p in enumerate_partitions(2, 2)] == [(2,)]
        assert enumerate_partitions(1, 2) == []

    def test_lengths_match_counts(self):
        for n in range(1, 31):
            assert len(enumerate_partitions(n)) == count_p(n)
            assert len(enumerate_partitions(n, 1, True)) == count_q(n)
            if n >= 2:
                assert len(enumerate_partitions(n, 2)) == count_p_ge2(n)
                assert len(enumerate_partitions(n, 2, True)) == count_q_ge2(n)

    def test_elements_satisfy_invariants(self):
        for n in (6, 9, 13):
            for p in enumerate_partitions(n, 2, True):
                assert p.n == n
                assert p.parts == tuple(sorted(p.parts))
                assert p.min_part >= 2
                assert len(set(p.parts)) == p.length

    def test_repeated_part_count_matches_r(self):
        for n in range(1, 31):
            repeated = sum(
                1 for p in enumerate_partitions(n) if len(set(p.parts)) < p.length
            )
            assert repeated == partition_counts(n).r

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("floor", [1, 2, 3, 4])
    def test_generator_matches_recursion(self, floor, distinct):
        # n < floor included: both yield nothing there
        for n in range(1, 31):
            got = list(partitions._tuples(n, floor, distinct))
            assert got == list(_tuples_by_recursion(n, floor, distinct)), n

    def test_lexicographic_order(self):
        for n in (8, 11):
            listing = [p.parts for p in enumerate_partitions(n)]
            assert listing == sorted(listing)


class TestAsymptotics:
    def test_ratio_near_one(self):
        r100 = count_p(100) / asymptotic_p(100)
        r200 = count_p(200) / asymptotic_p(200)
        assert 0.9 <= r100 <= 1.1
        assert abs(r200 - 1.0) < abs(r100 - 1.0)

    def test_strictly_increasing(self):
        values = [asymptotic_p(n) for n in range(1, 301)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_q_ratio_reasonable(self):
        assert 0.8 <= count_q(200) / asymptotic_q(200) <= 1.2

    @pytest.mark.parametrize("fn,last", [(asymptotic_p, 76567), (asymptotic_q, 153134)])
    def test_domain(self, fn, last):
        # last is the largest n whose leading term fits a float
        assert math.isfinite(fn(last))
        with pytest.raises(DomainError):
            fn(0)
        with pytest.raises(DomainError, match=f"n={last + 1} does not fit a float"):
            fn(last + 1)


def test_concurrent_counting_is_consistent():
    ns = list(range(1, 400, 7)) * 4
    random.Random(7).shuffle(ns)
    expected = {n: count_p(n) for n in set(ns)}
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda n: (n, count_p(n), count_q(n)), ns))
    for n, p, q in results:
        assert p == expected[n]
        assert q == count_q(n)
