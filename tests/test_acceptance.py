"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here: Gram-Schmidt acceptance
1e-9, rank threshold 1e-8, degrees 6 and 4 as stated.
"""

import io
import json
import math
import time
from itertools import combinations

import pytest

import borelcensus as bc
import borelcensus.cli as cli
from borelcensus.partitions import _tuples
from borelcensus.published import PUBLISHED_P_LIST, PUBLISHED_TABLE

TOL = 1e-9
RANK_TOL = 1e-8


class Criterion:
    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.label}): {verdict} [{elapsed:.2f}s]")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_table_reproduction():
    with Criterion(1, "table reproduction", budget=1.0):
        out = io.StringIO()
        assert cli.run(["table", "--max", "10", "--json"], stdout=out) == 0
        env = json.loads(out.getvalue())
        rows = {int(r["n"]): r for r in env["result"]["rows"]}
        assert len(rows) == 10
        for n, (p, q, r, p1, _q1, _r1) in PUBLISHED_TABLE.items():
            assert int(rows[n]["p"]) == p
            assert int(rows[n]["q"]) == q
            assert int(rows[n]["r"]) == r
            assert int(rows[n]["p_ge2"]) == p1
        # Q(;1)/R(;1) columns must equal the recurrences everywhere
        for n in range(2, 11):
            assert int(rows[n]["q_ge2"]) == bc.count_q_ge2(n)
            assert int(rows[n]["r_ge2"]) == bc.count_r_ge2(n)
        flagged = {(e["n"], e["column"]) for e in env["errata"]}
        assert flagged == {(7, "Q1"), (7, "R1"), (8, "Q1"), (8, "R1")}


def test_criterion_2_p_list():
    with Criterion(2, "P list 1..49", budget=1.0):
        for n, printed in PUBLISHED_P_LIST.items():
            if n == 3:
                assert bc.count_p(3) == 3  # documented list misprint (prints 2)
            else:
                assert bc.count_p(n) == printed
        assert bc.count_p(49) == 173525


def test_criterion_3_r_sequence():
    with Criterion(3, "R sequence 1..10"):
        assert [bc.count_r(n) for n in range(1, 11)] == [
            0, 1, 1, 3, 4, 7, 10, 16, 22, 32,
        ]


def test_criterion_4_asymptotics():
    with Criterion(4, "Hardy-Littlewood ratio"):
        r100 = bc.count_p(100) / bc.asymptotic_p(100)
        r200 = bc.count_p(200) / bc.asymptotic_p(200)
        assert 0.9 <= r100 <= 1.1
        assert abs(r200 - 1.0) < abs(r100 - 1.0)


def test_criterion_5_family_construction():
    with Criterion(5, "s_N construction 4..60", budget=5.0):
        assert bc.solutions_count(8) == 2
        assert bc.solutions_count(9) == 1
        assert bc.solutions_count(12) == 3
        assert bc.solutions_count(16) == 5
        for n in range(4, 61):
            if n == 5:
                continue
            fam = bc.family(n)
            assert len(fam.members) == bc.solutions_count(n)
            for p in fam.members:
                assert p.min_part >= 2 and bc.weyl(p).nontrivial
            for p1, p2 in combinations(fam.members, 2):
                assert not bc.equivalent(p1, p2)
        with pytest.raises(bc.UnsupportedDimensionError):
            bc.solutions_count(5)


@pytest.fixture(scope="module")
def structure_sweep():
    """Closure results for every unordered pair of distinct partitions, n <= 10."""
    results = []
    for n in range(2, 11):
        parts = bc.enumerate_partitions(n, 2)
        algebras = {p: bc.block_algebra(p) for p in parts}
        for p1, p2 in combinations(parts, 2):
            c = bc.closure(algebras[p1], algebras[p2])
            results.append((n, p1, p2, c))
    return results


def test_criterion_6_structure_oracle_equivalence(structure_sweep):
    with Criterion(6, "closure == exact structure, n <= 10", budget=120.0):
        assert bc.lieverify.DEFAULT_TOL == TOL
        assert bc.lieverify.DEFAULT_RANK_TOL == RANK_TOL
        assert len(structure_sweep) == 129
        for n, p1, p2, c in structure_sweep:
            predicted = bc.generated_group(p1, p2)
            assert c.dimension == predicted.lie_dimension, (p1, p2)
            numeric = bc.transitive_on(c, (0, n))
            assert numeric == bc.is_transitive_pair(p1, p2), (p1, p2)


def test_criterion_7_window_transitivity(structure_sweep):
    with Criterion(7, "window transitivity", budget=120.0):
        windows = 0
        for _n, p1, p2, c in structure_sweep:
            for w in bc.decompose(p1, p2).windows:
                assert bc.transitive_on(c, (w.start, w.start + w.size)), (p1, p2, w)
                windows += 1
        assert windows > 0


def test_criterion_8_fixed_space_independence():
    with Criterion(8, "fixed-space independence", budget=120.0):
        report = bc.verify_pair(bc.Partition((4, 4)), bc.Partition((2, 2, 2, 2)), 6)
        assert report.passed and report.intersection == 0
        assert min(report.dims) >= 1
        for n in (8, 12, 16):
            for p1, p2 in combinations(bc.family(n).members, 2):
                rep = bc.verify_pair(p1, p2, 4)
                assert rep.passed, (p1, p2, rep)
        # trivial-rho controls keep the shared radial tower
        for n, d in ((8, 6), (12, 4), (16, 4)):
            members = bc.family(n).members
            for p1, p2 in combinations(members, 2):
                s1 = bc.intertwining_space(p1, _trivial_rho(p1), d)
                s2 = bc.intertwining_space(p2, _trivial_rho(p2), d)
                assert bc.intersection_dim(s1, s2) >= d // 2 + 1, (p1, p2)


def _trivial_rho(p):
    from borelcensus.flags import nontrivial_factors

    return bc.SignRep((0,) * len(nontrivial_factors(p)))


def test_criterion_9_property_suites():
    with Criterion(9, "property suites", budget=30.0):
        # orbit-stabilizer over all partitions of n <= 12
        for n in range(1, 13):
            for p in bc.enumerate_partitions(n):
                assert bc.orbit_length(p) * bc.weyl(p).order == math.factorial(p.length)
        # equivalence classes count P(n) for n <= 12
        for n in range(1, 13):
            classes = {bc.weyl(p).factors for p in bc.enumerate_partitions(n)}
            assert len(classes) == bc.count_p(n)
        # pentagonal recurrence against an independent DP up to 200
        dp = [0] * 201
        dp[0] = 1
        for k in range(1, 201):
            for m in range(k, 201):
                dp[m] += dp[m - k]
        for n in range(1, 201):
            assert bc.count_p(n) == dp[n]
        # counting recurrences equal enumeration up to 60
        for n in range(2, 61):
            assert bc.count_p_ge2(n) == sum(1 for _ in _tuples(n, 2, False))
            assert bc.count_q_ge2(n) == sum(1 for _ in _tuples(n, 2, True))
        for n in range(1, 61):
            repeated = sum(1 for t in _tuples(n, 1, False) if len(set(t)) < len(t))
            assert bc.count_r(n) == repeated
        # block-norm invariant dimensions match the derivation oracle
        for parts in [(2,), (3,), (4,), (2, 2)]:
            for d in (2, 4):
                p = bc.Partition(parts)
                assert bc.invariant_space(p, d).dim == bc.invariant_dim_by_derivations(p, d)
