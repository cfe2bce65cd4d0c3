"""The benchmark's workloads: their inputs, operations and checks.

Each workload is a fixed batch of operations.  An operation calls into
the program through a Tracer, one span per layer call, and returns what
the program answered; its check then compares that answer with the
reference computations in oracles.py, outside the operation's timing.
The seed only orders operations or offsets sizes in ways that leave the
cost of a batch unchanged (see README.md).
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from itertools import combinations

import oracles


class CheckFailed(Exception):
    """The program's answer disagrees with a reference computation."""


def expect(condition, what):
    if not condition:
        raise CheckFailed(what)


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


COUNT_KEYS = ("p", "q", "p_ge2", "q_ge2")


class Reference:
    """Exact counts up to exact_max and counts modulo a prime beyond it."""

    def __init__(self, exact_max, modular_max=0):
        self.exact_max = exact_max
        self.exact = oracles.exact_counts(exact_max)
        self.modular = oracles.modular_counts(modular_max) if modular_max > exact_max else None
        self.pentagonal = oracles.generalized_pentagonals(max(exact_max, modular_max))

    def check_counts(self, n, got):
        """got maps p, q, r, p_ge2, q_ge2, r_ge2 to integers."""
        for key in COUNT_KEYS:
            if n <= self.exact_max:
                expect(got[key] == self.exact[key][n], f"{key}({n}) = {got[key]}")
            else:
                expect(
                    got[key] % oracles.MODULUS == int(self.modular[key][n]),
                    f"{key}({n}) disagrees with the generating-function DP",
                )
        expect(got["r"] == got["p"] - got["q"], f"R({n}) != P - Q")
        expect(got["r_ge2"] == got["p_ge2"] - got["q_ge2"], f"R({n};1) != P(;1) - Q(;1)")
        expect((got["q"] % 2 == 1) == (n in self.pentagonal), f"parity of Q({n})")
        divisor = oracles.ramanujan_divisor(n)
        if divisor:
            expect(got["p"] % divisor == 0, f"Ramanujan congruence mod {divisor} at {n}")


class Session:
    """Operation factories shared by the workloads."""

    name = None
    exact_max = 200

    def __init__(self, bc, cli, seed):
        self.bc = bc
        self.cli = cli
        self.rng = random.Random(seed)
        self.ops = []
        self.modular_max = 0
        self.ref = None

    def prepare(self):
        """Build the reference tables; run after set-up, before the batch."""
        self.ref = Reference(self.exact_max, self.modular_max)

    def partition(self, parts):
        return self.bc.Partition(tuple(parts))

    # exact layers

    def count_op(self, n):
        self.modular_max = max(self.modular_max, n)

        def run(tr):
            return tr.call("partitions.count", self.bc.partition_counts, n)

        def check(c):
            self.ref.check_counts(n, vars(c))

        return Op(f"counts {n}", run, check)

    def enumerate_op(self, n):
        """Partitions of n with parts >= 2."""

        def run(tr):
            found = tr.call("partitions.enumerate", self.bc.enumerate_partitions, n, 2)
            tr.count("partitions.enumerated", len(found))
            return found

        def check(found):
            expect(len(found) == self.ref.exact["p_ge2"][n], f"{len(found)} partitions of {n}")
            tuples = [p.parts for p in found]
            expect(all(a < b for a, b in zip(tuples, tuples[1:])), "not distinct and sorted")
            for t in tuples:
                expect(sum(t) == n and t[0] >= 2, f"{t} is not a partition of {n}")
                expect(all(x <= y for x, y in zip(t, t[1:])), f"{t} is not canonical")

        return Op(f"enumerate {n} min 2", run, check)

    def census_op(self, n):
        def run(tr):
            return tr.call("flags.census", self.bc.class_census, n)

        def check(c):
            self._check_census(n, vars(c))

        return Op(f"census {n}", run, check)

    def _check_census(self, n, got):
        ex = self.ref.exact
        p, q, p2, q2 = (ex[key][n] for key in COUNT_KEYS)
        want = {
            "total": p,
            "trivial_weyl": q,
            "nontrivial_weyl": p - q,
            "total_ge2": p2,
            "trivial_weyl_ge2": q2,
            "nontrivial_weyl_ge2": p2 - q2,
        }
        for key, value in want.items():
            expect(int(got[key]) == value, f"census {n}: {key} = {got[key]}, want {value}")

    def family_op(self, n):
        def run(tr):
            fam = tr.call("special.family", self.bc.family, n)
            tr.count("special.members", len(fam.members))
            return fam

        def check(fam):
            self._check_family(n, fam.case, fam.m, [p.parts for p in fam.members])

        return Op(f"family {n}", run, check)

    def _check_family(self, n, case, m, members):
        want_case, want_m, want_members = oracles.mod4_family(n)
        expect((case, m) == (want_case, want_m), f"family {n}: case {case}, M = {m}")
        expect(len(members) == self.ref.exact["p"][m], f"family {n}: {len(members)} != P({m})")
        expect(sorted(map(tuple, members)) == sorted(want_members), f"family {n}: wrong members")
        profiles = {oracles.profile(t) for t in members}
        expect(len(profiles) == len(members), f"family {n}: repeated multiplicity profile")

    def sweep_op(self, n):
        parts = [self.partition(t) for t in oracles.partitions(n, 2)]
        pairs = list(combinations(parts, 2))
        bc = self.bc

        def sweep():
            return [(bc.generated_group(a, b), bc.is_transitive_pair(a, b)) for a, b in pairs]

        def run(tr):
            found = tr.call("pairs.structure", sweep)
            tr.count("pairs.pairs", len(pairs))
            return found

        def check(found):
            for (a, b), (group, transitive) in zip(pairs, found):
                factors, lie, want_transitive, _ = oracles.structure(a.parts, b.parts)
                expect(group.factors == factors, f"factors of {a}, {b}: {group.factors}")
                expect(group.lie_dimension == lie, f"Lie dimension of {a}, {b}")
                expect(transitive == want_transitive, f"transitivity of {a}, {b}")

        return Op(f"pair sweep {n}", run, check)

    def cli_op(self, args, check_result):
        argv = ["--json", *args]

        def run(tr):
            out = io.StringIO()
            code = tr.call("cli.run", self.cli.run, argv, out)
            text = out.getvalue()
            tr.count("cli.json_bytes", len(text.encode()))
            return code, text

        def check(answer):
            code, text = answer
            expect(code == 0, f"{' '.join(args)} exited {code}")
            envelope = json.loads(text)
            expect(envelope["command"] == args[0], "envelope names another command")
            check_result(envelope["result"])

        return Op("cli " + " ".join(args), run, check)

    def cli_count_op(self, n):
        self.modular_max = max(self.modular_max, n)
        return self.cli_op(["count", str(n)], lambda r: self._check_rows([r]))

    def cli_table_op(self, max_n):
        self.modular_max = max(self.modular_max, max_n)

        def check(result):
            expect([row["n"] for row in result["rows"]] == list(range(1, max_n + 1)), "table rows")
            self._check_rows(result["rows"])

        return self.cli_op(["table", "--max", str(max_n)], check)

    def _check_rows(self, rows):
        for row in rows:
            self.ref.check_counts(row["n"], {k: int(v) for k, v in row.items() if k != "n"})

    def cli_list_op(self, n):
        def check(result):
            want = oracles.partitions(n, 2)
            expect(result["count"] == str(len(want)), f"list {n}: count {result['count']}")
            expect(result["partitions"] == [list(t) for t in want], f"list {n}: wrong partitions")

        return self.cli_op(["list", str(n), "--min-part", "2"], check)

    def cli_census_op(self, n):
        return self.cli_op(["census", str(n)], lambda r: self._check_census(n, r))

    def cli_special_op(self, n):
        def check(result):
            self._check_family(n, result["case"], result["m"], result["members"])
            expect(result["count"] == str(len(result["members"])), f"special {n}: count")

        return self.cli_op(["special", str(n)], check)

    # numerical layers

    def lie_op(self, a, b):
        bc = self.bc
        p1, p2 = self.partition(a), self.partition(b)
        n = p1.n
        factors, lie, transitive, windows = oracles.structure(p1.parts, p2.parts)

        def run(tr):
            group = tr.call("pairs.structure", bc.generated_group, p1, p2)
            found = tr.call("pairs.structure", bc.decompose, p1, p2).windows
            b1 = tr.call("lieverify.block_algebra", bc.block_algebra, p1)
            b2 = tr.call("lieverify.block_algebra", bc.block_algebra, p2)
            c = tr.call("lieverify.closure", bc.closure, b1, b2)
            spans = [(0, n)] + [(w.start, w.start + w.size) for w in found]
            verdicts = [tr.call("lieverify.transitive_on", bc.transitive_on, c, s) for s in spans]
            tr.count("pairs.pairs", 1)
            tr.count("lieverify.closure_dim", c.dimension)
            tr.count("lieverify.closure_iterations", c.iterations)
            tr.count("lieverify.probes", len(spans))
            return group, spans[1:], c.dimension, verdicts

        def check(answer):
            group, found, dimension, verdicts = answer
            expect(group.factors == factors, f"factors of {p1}, {p2}: {group.factors}")
            expect(group.lie_dimension == lie, f"predicted Lie dimension of {p1}, {p2}")
            expect(found == windows, f"windows of {p1}, {p2}: {found}")
            expect(dimension == lie, f"closure of {p1}, {p2} has dimension {dimension}, want {lie}")
            expect(verdicts[0] == transitive, f"sphere transitivity of {p1}, {p2}")
            expect(all(verdicts[1:]), f"a window of {p1}, {p2} tests intransitive")

        return Op(f"closure {p1} {p2}", run, check)

    def verify_op(self, a, b, degree):
        p1, p2 = self.partition(a), self.partition(b)
        windows = oracles.structure(p1.parts, p2.parts)[3]

        def run(tr):
            return tr.call("invverify.verify_pair", self.bc.verify_pair, p1, p2, degree)

        def check(report):
            expect(report.intersection == 0 and report.passed, f"{p1}, {p2}: fixed spaces meet")
            lo, hi = report.window_start, report.window_start + report.window_size
            expect((lo, hi) in windows, f"{p1}, {p2}: [{lo}, {hi}) is not a minimal window")
            carrier = (p1, p2)[report.carrier_side - 1].parts
            a_blk, b_blk = report.swaps[report.carrier_side - 1]
            offsets = oracles.block_offsets(carrier)
            expect(
                lo <= offsets[a_blk - 1] and offsets[b_blk - 1] + carrier[b_blk - 1] <= hi,
                f"{p1}, {p2}: the carrier swap leaves the window",
            )
            for p, swap, dim in zip((p1, p2), report.swaps, report.dims):
                parts = p.parts
                if swap is None:
                    want = oracles.symmetric_dim(parts, degree)
                else:
                    i, j = swap[0] - 1, swap[1] - 1
                    expect(parts[i] == parts[j], f"{p}: swapped blocks differ in size")
                    want = oracles.antisymmetric_dim(parts, i, j, degree)
                expect(dim == want, f"{p}: space dimension {dim}, want {want}")

        return Op(f"verify {p1} {p2} d{degree}", run, check)

    def control_op(self, a, b, degree, second="intertwining"):
        """Trivial-character spaces of two partitions: they share the radial powers."""
        bc = self.bc
        p1, p2 = self.partition(a), self.partition(b)
        rho1 = bc.SignRep((0,) * _repeated_values(a))
        if second == "intertwining":
            rho2 = bc.SignRep((0,) * _repeated_values(b))
            make_second = lambda: bc.intertwining_space(p2, rho2, degree)  # noqa: E731
            want2 = oracles.symmetric_dim(p2.parts, degree)
        else:
            make_second = lambda: bc.invariant_space(p2, degree)  # noqa: E731
            want2 = oracles.invariant_dim(p2.parts, degree)
        want1 = oracles.symmetric_dim(p1.parts, degree)

        def run(tr):
            s1 = tr.call("invverify.space", bc.intertwining_space, p1, rho1, degree)
            s2 = tr.call("invverify.space", make_second)
            shared = tr.call("invverify.intersection", bc.intersection_dim, s1, s2)
            tr.count("invverify.terms", sum(len(poly) for s in (s1, s2) for poly in s.basis))
            return s1.dim, s2.dim, shared

        def check(answer):
            dim1, dim2, shared = answer
            expect((dim1, dim2) == (want1, want2), f"control {p1}, {p2}: dims {dim1}, {dim2}")
            expect(degree // 2 + 1 <= shared <= min(dim1, dim2), f"control {p1}, {p2}: {shared}")

        return Op(f"control {p1} {p2} d{degree} {second}", run, check)


def _repeated_values(parts):
    return sum(1 for m in Counter(parts).values() if m >= 2)


def _interleave(*kinds):
    """Merge lists of operations so that each kind climbs at the same pace."""
    keyed = [((i + 0.5) / len(ops), k, op) for k, ops in enumerate(kinds) for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


class ExactCensus(Session):
    """A cold session of exact queries whose sizes climb smoothly.

    Count queries are two thirds of the batch.  Their sizes are evenly
    spaced, so most of them cost about the same and the median falls in
    a dense band of them; the other kinds grow towards the batch's tail.
    """

    name = "exact-census"
    COUNT_STEPS = 80
    COUNT_RANGE = (40, 3900)

    def __init__(self, bc, cli, seed):
        super().__init__(bc, cli, seed)
        lo, hi = self.COUNT_RANGE
        offset = self.rng.randrange(3)
        sizes = [
            lo + offset + round(i * (hi - lo) / (self.COUNT_STEPS - 1))
            for i in range(self.COUNT_STEPS)
        ]
        self.ops = _interleave(
            [self.count_op(n) for n in sizes],
            [self.enumerate_op(n) for n in range(20, 49, 2)],
            [self.census_op(n) for n in range(21, 46, 2)],
            [self.family_op(n) for n in range(28, 77, 4)],
            [self.sweep_op(n) for n in (18, 19, 20)],
            [
                self.cli_list_op(30),
                self.cli_census_op(30),
                self.cli_special_op(52),
                self.cli_table_op(600),
                self.cli_count_op(4000),
            ],
        )


class LieClosure(Session):
    """Every pair of partitions with parts >= 2 of a band of n, and a few large pairs."""

    name = "lie-closure"
    BAND = (8, 9, 10, 11)
    LARGE = (((2, 14), (4, 12)), ((3, 13), (5, 11)), ((2, 18), (4, 16)))

    def __init__(self, bc, cli, seed):
        super().__init__(bc, cli, seed)
        pairs = [pair for n in self.BAND for pair in combinations(oracles.partitions(n, 2), 2)]
        pairs += self.LARGE
        self.rng.shuffle(pairs)
        self.ops = [self.lie_op(a, b) for a, b in pairs]


class FixedSpace(Session):
    """verify_pair over every pair of each family, plus trivial-character controls."""

    name = "fixed-space"
    FAMILIES = ((16, 6), (18, 6), (20, 6), (22, 6), (24, 6), (16, 8))
    CONTROLS = (
        ((2,) * 6, (4, 4, 4), "intertwining"),
        ((2, 2, 4, 4), (6, 6), "intertwining"),
        ((2,) * 7, (2, 4, 4, 4), "intertwining"),
        ((2,) * 8, (4, 4, 4, 4), "intertwining"),
        ((2, 2, 4, 4, 4), (8, 8), "invariant"),
    )
    CONTROL_DEGREE = 6

    def __init__(self, bc, cli, seed):
        super().__init__(bc, cli, seed)
        checks = [
            self.verify_op(a, b, degree)
            for n, degree in self.FAMILIES
            for a, b in combinations(oracles.mod4_family(n)[2], 2)
        ]
        self.rng.shuffle(checks)
        controls = [self.control_op(a, b, self.CONTROL_DEGREE, k) for a, b, k in self.CONTROLS]
        self.ops = controls + checks


WORKLOADS = {cls.name: cls for cls in (ExactCensus, LieClosure, FixedSpace)}
