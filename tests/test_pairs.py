"""Pair decomposition, generated-group structure, transitivity predicates."""

import dataclasses
import random
from itertools import combinations

import pytest

from borelcensus import (
    Agreement,
    DomainError,
    InternalInvariantError,
    InvolutionSpec,
    Partition,
    SignRep,
    Window,
    decompose,
    enumerate_partitions,
    equivalent,
    family,
    generated_group,
    has_common_subpartition,
    is_transitive_pair,
    nodal_subspaces,
    weyl,
)
from borelcensus import pairs

P = Partition


class TestCommonSubpartition:
    def test_examples(self):
        assert has_common_subpartition(P((2, 2, 4)), P((2, 6))) == 2
        assert has_common_subpartition(P((3, 3)), P((2, 4))) is None
        assert has_common_subpartition(P((2, 3)), P((2, 3))) == 2

    def test_single_block_self_pair(self):
        assert has_common_subpartition(P((6,)), P((6,))) is None

    def test_mismatched_n(self):
        # one message, from the one shared check
        for fn in (equivalent, has_common_subpartition, decompose, is_transitive_pair):
            with pytest.raises(DomainError, match="partitions of different numbers: 4 vs 5"):
                fn(P((2, 2)), P((2, 3)))


class TestDecompose:
    def test_agreement_then_window(self):
        dec = decompose(P((2, 2, 4)), P((2, 6)))
        a, w = dec.segments
        assert isinstance(a, Agreement) and (a.start, a.part) == (0, 2)
        assert isinstance(w, Window)
        assert (w.start, w.size, w.h_parts, w.k_parts) == (2, 6, (2, 4), (6,))

    def test_two_windows(self):
        dec = decompose(P((4, 4)), P((2, 2, 2, 2)))
        assert [(w.start, w.size) for w in dec.segments] == [(0, 4), (4, 4)]
        for w in dec.segments:
            assert w.h_parts == (4,) and w.k_parts == (2, 2)

    def test_identical_partitions_all_agreements(self):
        dec = decompose(P((2, 3, 5)), P((2, 3, 5)))
        assert all(isinstance(s, Agreement) for s in dec.segments)
        assert [s.part for s in dec.segments] == [2, 3, 5]

    def test_rejects_parts_below_two(self):
        with pytest.raises(DomainError):
            decompose(P((1, 3)), P((2, 2)))

    def test_rejects_mismatched_n(self):
        with pytest.raises(DomainError):
            decompose(P((2, 2)), P((2, 4)))

    def test_segments_and_plan_are_slotted_and_frozen(self):
        dec = decompose(P((2, 2, 4, 4)), P((2, 2, 8)))
        agreement, window = dec.segments[1:]
        for obj in (agreement, window, dec, dec.window_plan):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, 0)

    def sweep_pairs(self, max_n):
        for n in range(4, max_n + 1):
            parts = enumerate_partitions(n, 2)
            for p1, p2 in combinations(parts, 2):
                yield n, p1, p2

    def test_tiling_sweep_to_14(self):
        for n, p1, p2 in self.sweep_pairs(14):
            dec = decompose(p1, p2)
            pos = 0
            for seg in dec.segments:
                assert seg.start == pos
                pos += seg.size
            assert pos == n

    def test_window_invariants_sweep_to_14(self):
        for n, p1, p2 in self.sweep_pairs(14):
            for w in decompose(p1, p2).windows:
                assert w.size >= 4
                assert w.h_parts != w.k_parts
                assert sum(w.h_parts) == sum(w.k_parts) == w.size
                # minimality: no shared proper prefix sum inside the window
                ha = {sum(w.h_parts[: t + 1]) for t in range(len(w.h_parts) - 1)}
                ka = {sum(w.k_parts[: t + 1]) for t in range(len(w.k_parts) - 1)}
                assert not (ha & ka)

    def test_agreements_match_positionally(self):
        for n, p1, p2 in self.sweep_pairs(12):
            for seg in decompose(p1, p2).segments:
                if isinstance(seg, Agreement):
                    i1 = p1.prefix_sums().index(seg.start + seg.part)
                    i2 = p2.prefix_sums().index(seg.start + seg.part)
                    assert p1.parts[i1] == p2.parts[i2] == seg.part


class TestWindowCheck:
    """Every window decompose returns passes Window's checks, with their messages."""

    def test_window_check_runs_in_decompose(self, monkeypatch):
        cut = pairs._cut

        def one_past(a, b, i, j, pos):
            end, i1, j1 = cut(a, b, i, j, pos)
            return end + 1, i1, j1

        monkeypatch.setattr(pairs, "_cut", one_past)
        with pytest.raises(DomainError, match="window sides must both sum to the window size"):
            decompose(P((3, 3)), P((2, 4)))

    def test_public_window_keeps_its_messages(self):
        with pytest.raises(DomainError, match="window sides must both sum to the window size"):
            Window(0, 6, (2, 4), (3, 2), 1, 1)
        with pytest.raises(DomainError, match="a window needs differing parts on the two sides"):
            Window(0, 6, (2, 4), (2, 4), 1, 1)


class TestGeneratedGroup:
    def test_examples(self):
        g = generated_group(P((2, 2, 4)), P((2, 6)))
        assert g.factors == ((2, "agreement"), (6, "window"))
        assert g.lie_dimension == 16
        g2 = generated_group(P((3, 3)), P((2, 4)))
        assert g2.factors == ((6, "window"),) and is_transitive_pair(P((3, 3)), P((2, 4)))
        g3 = generated_group(P((2, 2)), P((2, 2)))
        assert g3.factors == ((2, "agreement"), (2, "agreement"))

    def test_factor_sizes_tile_n(self):
        for n in range(4, 13):
            parts = enumerate_partitions(n, 2)
            for p1, p2 in combinations(parts, 2):
                g = generated_group(p1, p2)
                assert sum(s for s, _ in g.factors) == n
                assert g.lie_dimension == sum(s * (s - 1) // 2 for s, _ in g.factors)


class TestTransitivity:
    def test_examples(self):
        assert is_transitive_pair(P((3, 3)), P((2, 4)))
        assert not is_transitive_pair(P((4, 4)), P((2, 2, 2, 2)))
        assert not is_transitive_pair(P((2, 2)), P((2, 2)))
        # O(n) with itself is O(n), which is transitive on the sphere
        assert is_transitive_pair(P((4,)), P((4,)))

    def test_parts_of_one_rejected(self):
        with pytest.raises(DomainError, match="every part must be >= 2 on both sides"):
            is_transitive_pair(P((1, 3)), P((2, 2)))

    def test_three_criteria_agree(self):
        for n in range(4, 17):
            parts = enumerate_partitions(n, 2)
            for p1, p2 in combinations(parts, 2):
                direct = has_common_subpartition(p1, p2) is None
                structural = generated_group(p1, p2).factors == ((n, "window"),)
                assert is_transitive_pair(p1, p2) == direct == structural

    @pytest.mark.parametrize(
        "parts,common", [(((3, 3), (2, 4)), 2), (((4, 4), (2, 2, 2, 2)), None)]
    )
    def test_criteria_disagreement_raises(self, monkeypatch, parts, common):
        monkeypatch.setattr(pairs, "has_common_subpartition", lambda p1, p2: common)
        with pytest.raises(InternalInvariantError, match="transitivity criteria disagree"):
            is_transitive_pair(*map(P, parts))

    def test_decides_without_decomposing(self, monkeypatch):
        def refuse(p1, p2):
            raise AssertionError(f"decomposed {p1}, {p2}")

        monkeypatch.setattr(pairs, "decompose", refuse)
        parts = enumerate_partitions(12, 2)
        assert sum(is_transitive_pair(p1, p2) for p1, p2 in combinations(parts, 2)) > 0


def random_partition(rng, n):
    """A partition of n >= 2 with parts >= 2, mostly small parts so agreements occur."""
    parts, left = [], n
    while left:
        v = rng.randint(2, left if rng.random() < 0.3 else min(left, 6))
        if left - v != 1:
            parts.append(v)
            left -= v
    return P(tuple(parts))


def brute_decomposition(p1, p2):
    """decompose's answer from the common prefix sums, segment by segment.

    Consecutive common cut points bound each segment; a side's parts in a
    segment are those whose span lies inside it.  One equal part on both
    sides is an agreement, anything else a window.
    """
    def inside(p, lo, hi):
        """Parts of p spanning a sub-interval of [lo, hi), and the first one's position."""
        cuts = (0,) + p.prefix_sums()
        found = [i for i in range(p.length) if lo <= cuts[i] and cuts[i + 1] <= hi]
        return tuple(p.parts[i] for i in found), found[0] + 1

    common = sorted(set((0,) + p1.prefix_sums()) & set((0,) + p2.prefix_sums()))
    segments = []
    for lo, hi in zip(common, common[1:]):
        (h_parts, h_first), (k_parts, k_first) = inside(p1, lo, hi), inside(p2, lo, hi)
        if h_parts == k_parts and len(h_parts) == 1:
            segments.append(("agreement", lo, hi - lo, h_parts, k_parts, None, None))
        else:
            segments.append(("window", lo, hi - lo, h_parts, k_parts, h_first, k_first))
    return segments, common


class TestSeededDecompose:
    """decompose and the predicates built on it, against brute_decomposition."""

    def test_random_pairs_match_common_prefix_sum_model(self):
        rng = random.Random(20171)
        seen = {"self": 0, "transitive": 0, "mixed": 0}
        for _ in range(600):
            n = rng.randint(2, 40)
            p1 = random_partition(rng, n)
            p2 = p1 if rng.random() < 0.15 else random_partition(rng, n)
            want, common = brute_decomposition(p1, p2)
            got = [
                ("agreement", s.start, s.size, (s.part,), (s.part,), None, None)
                if isinstance(s, Agreement)
                else ("window", s.start, s.size, s.h_parts, s.k_parts, s.h_first, s.k_first)
                for s in decompose(p1, p2).segments
            ]
            assert got == want, (p1, p2)
            factors = tuple((size, kind) for kind, _lo, size, *_rest in want)
            dec = decompose(p1, p2)
            assert generated_group(p1, p2) == dec, (p1, p2)
            assert dec.factors == factors, (p1, p2)
            assert dec.lie_dimension == sum(s * (s - 1) // 2 for s, _ in factors)
            proper = [c for c in common if 0 < c < n]
            assert has_common_subpartition(p1, p2) == (min(proper) if proper else None)
            transitive = not proper
            assert is_transitive_pair(p1, p2) == transitive, (p1, p2)
            seen["self"] += p1 == p2
            seen["transitive"] += transitive
            seen["mixed"] += len({kind for kind, *_rest in want}) == 2
        assert min(seen.values()) >= 20, seen


class TestWindowPlan:
    @pytest.mark.parametrize("side", [0, 3, True, "1"])
    def test_swap_refuses_other_sides(self, side):
        window = decompose(P((4, 4)), P((2, 2, 2, 2))).windows[0]
        with pytest.raises(DomainError, match="window side is 1 or 2"):
            window.swap(side)

    def test_example_pair(self):
        plan = decompose(P((4, 4)), P((2, 2, 2, 2))).window_plan
        assert plan.side == 2
        assert plan.swap == InvolutionSpec(1, 2, 2)
        assert (plan.window.start, plan.window.size) == (0, 4)

    def test_absent_when_no_window_pair(self):
        assert decompose(P((2, 2, 4)), P((2, 6))).window_plan is None

    def test_side_one_preferred(self):
        plan = decompose(P((6, 6)), P((2, 2, 4, 4))).window_plan
        assert plan.side == 1 and plan.swap == InvolutionSpec(1, 2, 6)

    def test_equal_partitions_have_no_plan(self):
        # equal partitions decompose into agreements only, so no window carries a swap
        assert decompose(P((2, 2)), P((2, 2))).window_plan is None

    def test_swap_lies_inside_window(self):
        for n in (8, 12, 16):
            members = family(n).members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    plan = decompose(members[i], members[j]).window_plan
                    assert plan is not None
                    p = members[i] if plan.side == 1 else members[j]
                    sums = (0,) + p.prefix_sums()
                    lo, hi = plan.window.start, plan.window.start + plan.window.size
                    swap = plan.swap
                    assert lo <= sums[swap.block_a - 1] and sums[swap.block_b] <= hi
                    swap.check(p)

    def test_one_scan_one_swap_type(self):
        # window plans, Weyl involutions and nodal swaps are all InvolutionSpecs
        # from the same scan, so every one of them fits its partition
        for n in range(4, 13):
            parts = enumerate_partitions(n, 2)
            for p1 in parts:
                for p2 in parts:
                    plan = decompose(p1, p2).window_plan
                    if plan is not None:
                        carrier = p1 if plan.side == 1 else p2
                        assert plan.swap in weyl(carrier).involutions, (p1, p2)
                w = weyl(p1)
                if w.nontrivial:
                    rho = SignRep((1,) * sum(m >= 2 for _, m in w.factors))
                    for swap in nodal_subspaces(p1, rho):
                        assert isinstance(swap, InvolutionSpec)
                        swap.check(p1)
