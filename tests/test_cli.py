"""CLI contract: envelopes, exit codes, errata, round-tripping."""

import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import borelcensus.cli as cli
from borelcensus import (
    ClassCensus,
    Erratum,
    IndependenceReport,
    InvolutionSpec,
    Partition,
    PartitionCounts,
    SpecialFamily,
    count_p,
    count_q_ge2,
    flags,
    pairs,
    verify_pair,
)
from borelcensus.errors import IndeterminateError


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_module(*argv, timeout=None):
    """Run `python -m borelcensus.cli` in a fresh process on the package's src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "borelcensus.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


# errors whose message must name the offending input
MESSAGES = {
    "list 5 --min-part 0": "min_part must be a positive integer, got 0",
    "verify-lie 2 2 -- 4 --tol 1e-9": "unknown option '--tol'",
    # a negative integer is a positional, refused like 0
    "count -1": "n must be a positive integer, got -1",
    "weyl 2 -2": "parts must be positive integers, got -2",
    "list 4 --distinct --distinct": "option '--distinct' is repeated",
    "nodal 2 2 --delta 1 --delta 0": "option '--delta' is repeated",
    "census 1001": "census needs 1 <= N <= 1000, got 1001",
    "census 200000": "census needs 1 <= N <= 1000, got 200000",
}


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 1  # exactly one JSON object on stdout
    return json.loads(lines[0])


class TestEnvelope:
    def test_count_payload(self):
        env = run_json(["count", "10"])
        assert env["command"] == "count"
        assert env["inputs"] == {"n": 10}
        assert env["version"]
        assert env["result"] == {
            "n": 10,
            "p": "42",
            "q": "10",
            "r": "32",
            "p_ge2": "12",
            "q_ge2": "5",
            "r_ge2": "7",
        }
        assert env["errata"] == []

    def test_count_touches_errata(self):
        env = run_json(["count", "7"])
        assert {(e["column"], e["printed"], e["computed"]) for e in env["errata"]} == {
            ("Q1", 2, 3),
            ("R1", 2, 1),
        }
        env3 = run_json(["count", "3"])
        assert [(e["column"], e["printed"], e["computed"]) for e in env3["errata"]] == [
            ("P", 2, 3)
        ]

    def test_round_trip_is_byte_identical(self):
        for argv in (["count", "10"], ["table", "--max", "8"], ["pair", "4", "4", "--", "2", "2", "2", "2"]):
            code, out, _ = run(argv + ["--json"])
            assert code == 0
            raw = out.strip()
            assert json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")) == raw

    def test_output_file(self, tmp_path):
        target = tmp_path / "envelope.json"
        code, out, _ = run(["solutions", "8", "--output", str(target)])
        assert code == 0
        assert out.strip() == "2"
        env = json.loads(target.read_text())
        assert env["result"]["count"] == "2"

    def test_output_unwritable_exits_1(self, tmp_path):
        code, out, err = run(["count", "10", "--output", str(tmp_path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")


class TestCommands:
    def test_solutions_plain(self):
        code, out, _ = run(["solutions", "8"])
        assert code == 0 and out.strip() == "2"

    def test_list(self):
        env = run_json(["list", "4", "--min-part", "2"])
        assert env["result"]["partitions"] == [[2, 2], [4]]
        assert env["result"]["count"] == "2"

    def test_list_distinct(self):
        env = run_json(["list", "7", "--min-part", "2", "--distinct"])
        assert env["result"]["partitions"] == [[2, 5], [3, 4], [7]]

    def test_equiv(self):
        assert run_json(["equiv", "2", "3", "2", "--", "2", "2", "3"])["result"]["equivalent"]
        assert not run_json(["equiv", "2", "2", "4", "--", "2", "3", "3"])["result"][
            "equivalent"
        ]

    def test_weyl_canonicalizes_input(self):
        env = run_json(["weyl", "3", "2", "2"])
        assert env["inputs"]["partition"] == [2, 2, 3]
        assert env["result"]["order"] == "2"

    def test_orbit(self):
        assert run_json(["orbit", "2", "2", "3"])["result"]["orbit_length"] == "3"

    def test_census(self):
        env = run_json(["census", "6"])
        assert env["result"] == {
            "n": 6,
            "total": "11",
            "trivial_weyl": "4",
            "nontrivial_weyl": "7",
            "total_ge2": "4",
            "trivial_weyl_ge2": "2",
            "nontrivial_weyl_ge2": "2",
        }

    def test_special(self):
        env = run_json(["special", "12"])
        assert env["result"]["case"] == "mod0"
        assert sorted(map(tuple, env["result"]["members"])) == [
            (2, 2, 2, 2, 2, 2),
            (2, 2, 4, 4),
            (6, 6),
        ]

    def test_pair(self):
        env = run_json(["pair", "2", "2", "4", "--", "2", "6"])
        assert env["result"]["factors"] == [[2, "agreement"], [6, "window"]]
        assert env["result"]["lie_dimension"] == 16
        assert env["result"]["common_subpartition"] == 2
        assert env["result"]["transitive"] is False
        assert env["result"]["window_plan"] is None

    def test_verify_lie(self):
        env = run_json(["verify-lie", "4", "4", "--", "2", "2", "2", "2"])
        assert env["result"]["dimensions_match"] is True
        assert env["result"]["transitivity_match"] is True
        assert all(w["transitive"] for w in env["result"]["windows"])
        assert "basis" not in env["result"]
        assert env["result"]["residual_kept_min"] > 1e-9
        assert env["result"]["residual_dropped_max"] < 1e-10

    def test_verify_lie_seed_spanning_so_n_runs_no_round(self):
        result = run_json(["verify-lie", "4", "--", "2", "2"])["result"]
        assert result["closure_dimension"] == 6
        assert result["iterations"] == 0

    @pytest.mark.parametrize("left,right", [("4", "4"), ("2 2", "2 2"), ("3 3", "2 4")])
    def test_pair_transitivity_matches_verify_lie(self, left, right):
        argv = [*left.split(), "--", *right.split()]
        pair = run_json(["pair", *argv])["result"]
        lie = run_json(["verify-lie", *argv])["result"]
        assert pair["transitive"] is lie["transitive_predicted"] is lie["transitive_numeric"]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_verify_lie_single_block_self_pair(self, n):
        # the closure of so(n) with itself is so(n): O(n) is transitive
        result = run_json(["verify-lie", str(n), "--", str(n)])["result"]
        assert result["transitive_numeric"] is result["transitive_predicted"] is True
        assert result["transitivity_match"] is True

    def test_verify_lie_torus_self_pair(self):
        result = run_json(["verify-lie", "2", "2", "--", "2", "2"])["result"]
        assert result["transitive_numeric"] is result["transitive_predicted"] is False

    def test_verify_lie_matrices(self):
        env = run_json(["verify-lie", "--matrices", "2", "2", "--", "4"])
        basis = env["result"]["basis"]
        assert len(basis) == env["result"]["closure_dimension"] == 6
        assert len(basis[0]) == 4 and len(basis[0][0]) == 4

    def test_verify_inv(self):
        env = run_json(["verify-inv", "4", "4", "--", "2", "2", "2", "2", "--degree", "6"])
        assert env["result"]["passed"] is True
        assert env["result"]["intersection"] == 0
        assert env["result"]["sv_kept_min"] > 1e-8
        assert env["result"]["sv_dropped_max"] < 1e-9
        assert min(env["result"]["dims"]) >= 1

    def test_verify_inv_many_parts(self):
        code, out, err = run(["verify-inv", *["2"] * 1000, "--", *["4"] * 500, "--degree", "2"])
        assert code == 0 and not err
        assert "space dimensions 1 and 1" in out and "PASS" in out

    def test_nodal(self):
        env = run_json(["nodal", "2", "2", "2", "--delta", "1"])
        pairs = [(s["block_a"], s["block_b"]) for s in env["result"]["subspaces"]]
        assert pairs == [(1, 2), (1, 3), (2, 3)]
        assert all(s["codimension"] == 2 for s in env["result"]["subspaces"])

    def test_classify(self):
        env = run_json(["classify", "7"])
        assert env["result"]["pairs"] == [["SO(7)", "SO(6)"], ["G2", "SU(3)"]]

    def test_table_rows_and_errata(self):
        env = run_json(["table", "--max", "10"])
        rows = env["result"]["rows"]
        assert rows[0] == {
            "n": 1, "p": "1", "q": "1", "r": "0", "p_ge2": "0", "q_ge2": "0", "r_ge2": "0",
        }
        assert rows[3]["p"] == "5" and rows[3]["q"] == "2" and rows[3]["r"] == "3"
        assert rows[3]["p_ge2"] == "2" and rows[3]["q_ge2"] == "1" and rows[3]["r_ge2"] == "1"
        assert {(e["n"], e["column"]) for e in env["errata"]} == {
            (7, "Q1"), (7, "R1"), (8, "Q1"), (8, "R1"),
        }

    def test_table_plain_markers(self):
        code, out, _ = run(["table", "--max", "10"])
        assert code == 0
        marked = [line for line in out.splitlines() if line.endswith("*") and "printed" not in line]
        assert len(marked) == 2  # rows 7 and 8

    def test_plist(self):
        env = run_json(["plist"])
        assert env["result"]["values"][-1] == [49, "173525"]
        assert [(e["n"], e["printed"], e["computed"]) for e in env["errata"]] == [(3, 2, 3)]


def _names(record_type):
    return {f.name for f in dataclasses.fields(record_type)}


def _result(env):
    return [env["result"]]


# name -> (command, its record-backed payloads, their record type, keys the
# payload adds, fields it leaves out)
RECORD_PAYLOADS = {
    "count": ("count 10", _result, PartitionCounts, set(), set()),
    "census": ("census 6", _result, ClassCensus, set(), set()),
    "table": ("table --max 1", lambda env: env["result"]["rows"], PartitionCounts, set(), set()),
    "special": ("special 12", _result, SpecialFamily, {"count"}, set()),
    "weyl": (
        "weyl 2 2 4 4", lambda env: env["result"]["involutions"], InvolutionSpec, set(), set()
    ),
    "pair": (
        "pair 2 2 2 2 2 2 -- 2 2 4 4",
        lambda env: [env["result"]["window_plan"]],
        InvolutionSpec,
        {"window_start", "window_size", "side"},
        set(),
    ),
    "verify-inv": ("verify-inv 4 4 -- 2 2 2 2", _result, IndependenceReport, set(), {"p1", "p2"}),
    "errata": ("count 7", lambda env: env["errata"], Erratum, set(), set()),
}


@pytest.mark.parametrize("name", RECORD_PAYLOADS)
def test_record_payload_keys_are_the_record_fields(name):
    argv, payloads, record, added, dropped = RECORD_PAYLOADS[name]
    found = payloads(run_json(argv.split()))
    assert found
    for payload in found:
        assert set(payload) == (_names(record) - dropped) | added


def test_readme_command_block_matches_usage():
    usage = [line.strip() for line in cli.USAGE.split("commands:\n")[1].splitlines() if line]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```\n(.*?)```", readme, re.S) if b.startswith("count N"))
    assert block.splitlines() == usage
    assert [line.split()[0] for line in usage] == list(cli._COMMANDS)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "0"],
            ["count", "-1"],
            ["weyl", "2", "-2"],
            ["solutions", "5"],
            ["classify", "1"],
            ["table", "--max", "0"],
            ["plist", "--max", "50"],
            ["pair", "1", "3", "--", "2", "2"],
            ["verify-inv", "2", "2", "--", "2", "2"],
            ["list", "5", "--min-part", "0"],
            ["verify-lie", "2", "2", "--", "3"],
            ["verify-lie", "1", "3", "--", "4"],
            ["verify-lie", "17", "16", "--", "33"],
            ["census", "1001"],
            ["list", "61"],
            ["special", "250"],
            ["count", "100001"],
        ],
    )
    def test_domain_errors_exit_1(self, argv):
        code, _, err = run(argv)
        assert code == 1 and err.strip()
        assert MESSAGES.get(" ".join(argv), "") in err

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "3"],
            ["count"],
            ["count", "x"],
            ["count", "3", "4"],
            ["pair", "2", "2"],
            ["nodal", "2", "2"],
            ["list", "4", "--min-part"],
            ["count", "4", "--bogus"],
            ["count", "--bogus"],
            ["verify-lie", "2", "2", "--", "4", "--tol", "1e-9"],
            ["list", "4", "--distinct", "--distinct"],
            ["nodal", "2", "2", "--delta", "1", "--delta", "0"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        code, _, err = run(argv)
        assert code == 2 and "usage" in err
        assert MESSAGES.get(" ".join(argv), "") in err

    def test_indeterminate_exit_3(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise IndeterminateError("ambiguous rank")

        monkeypatch.setattr(cli, "verify_pair", boom)
        code, _, err = run(["verify-inv", "4", "4", "--", "2", "2", "2", "2"])
        assert code == 3 and "ambiguous" in err

    def test_budgets_state_the_estimate(self):
        code, out, err = run(["list", "61"])
        assert code == 1 and not out
        assert "P(61) = 1121505" in err and "budget" in err
        err = run(["list", "80", "--min-part", "3"])[2]
        assert "at most P(80;1) partitions" in err and "P(75;1) = 1028764" in err
        assert run_json(["list", "61", "--distinct"])["result"]["count"] == "12076"
        err = run(["special", "250"])[2]
        assert "special 250 would enumerate P(62)" in err and "P(61) = 1121505" in err

    @pytest.mark.parametrize(
        "argv", [["census", "200000"], ["list", "200000"], ["special", "800003"]]
    )
    def test_budgets_refuse_huge_n_at_once(self, argv):
        # census checks a fixed bound; for list and special the counts are
        # nondecreasing, so the budget check stops at the first N over it
        proc = run_module(*argv, timeout=10)
        assert proc.returncode == 1 and not proc.stdout
        first_over = "P(61) = 1121505 is the first count over it"
        assert MESSAGES.get(" ".join(argv), first_over) in proc.stderr

    def test_census_budget_admits_its_bound(self):
        result = run_json(["census", str(cli.MAX_CENSUS_N)])["result"]
        assert result["total"] == str(count_p(cli.MAX_CENSUS_N))
        assert result["trivial_weyl_ge2"] == str(count_q_ge2(cli.MAX_CENSUS_N))

    def test_solutions_budget_refuses_huge_n_at_once(self):
        # solutions counts P(M) for M about N/4; M = 1000000 is over MAX_COUNT_N
        proc = run_module("solutions", "4000000", timeout=10)
        assert proc.returncode == 1 and not proc.stdout
        assert "M = 1000000" in proc.stderr and str(cli.MAX_COUNT_N) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_solutions_budget_admits_its_bound(self, monkeypatch):
        # 400003 = 4M + 3 with M = MAX_COUNT_N; a smaller bound keeps the count fast
        monkeypatch.setattr(cli, "MAX_COUNT_N", 1000)
        assert run_json(["solutions", "4003"])["result"]["count"] == str(count_p(1000))
        code, out, err = run(["solutions", "4007"])
        assert code == 1 and not out and "M = 1001" in err

    @pytest.mark.parametrize(
        "command,parts,field",
        [
            ("weyl", ["1"] * 1000, "order"),
            ("orbit", list(map(str, range(1, 1001))), "orbit_length"),
        ],
    )
    def test_parts_budget_admits_its_bound(self, command, parts, field):
        # 1000! has 2568 digits, under Python's 4300-digit limit on int to str
        assert len(parts) == cli.MAX_PARTS
        assert run_json([command, *parts])["result"][field] == str(math.factorial(1000))

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl", *["1"] * 1001],
            ["orbit", *map(str, range(1, 1002))],
            ["nodal", *["1"] * 1001, "--delta", "1"],
        ],
        ids=["weyl", "orbit", "nodal"],
    )
    def test_parts_budget_refuses_one_more(self, argv):
        code, out, err = run(argv)
        assert code == 1 and not out
        assert err == "error: a partition of 1001 parts is over the budget of 1000 parts\n"

    def test_verify_inv_budget_states_both_dims(self):
        left, right = ["2"] * 24, ["4"] * 12
        code, out, err = run(["verify-inv", *left, "--", *right, "--degree", "8"])
        assert code == 1 and not out
        assert "2624 and 376" in err and str(cli.MAX_SPACE_DIMS) in err

    @pytest.mark.parametrize(
        "left,right", [(["2000"], ["2"] * 1000), (["2"] * 1000, ["4"] * 500)], ids=["block", "4s"]
    )
    def test_verify_inv_monomial_budget_refuses_before_building(self, monkeypatch, left, right):
        def boom(*_args, **_kwargs):
            raise AssertionError("verify-inv built fixed spaces for an input over its budget")

        monkeypatch.setattr(cli, "verify_pair", boom)
        start = time.perf_counter()
        code, out, err = run(["verify-inv", *left, "--", *right, "--degree", "4"])
        assert time.perf_counter() - start < 1
        assert code == 1 and not out
        # C(1000 + 2, 2) monomials of degree <= 2 in the 1000 refinement pieces
        assert "501501 monomials" in err and str(cli.MAX_MONOMIALS) in err

    def test_verify_lie_budget_refuses_before_building(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("verify-lie built matrices for an input over its budget")

        monkeypatch.setattr(cli, "block_algebra", boom)
        monkeypatch.setattr(cli, "closure", boom)
        code, out, err = run(["verify-lie", "17", "16", "--", "33"])
        assert code == 1 and not out
        assert f"N <= {cli.MAX_LIE_N}" in err and "N = 33" in err

    def test_internal_invariant_exit_4(self, monkeypatch):
        real = flags.partition_counts
        monkeypatch.setattr(flags, "partition_counts", lambda n: real(n + 1))
        code, out, err = run(["census", "6"])
        assert code == 4 and out == ""
        assert err.startswith("internal: census recount mismatch")
        assert "Traceback" not in err

    def test_help_exits_0(self):
        code, out, _ = run(["help"])
        assert code == 0 and "commands:" in out


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: verify_pair(Partition((4, 4)), Partition((2, 2, 2, 2)), 4), 1),
        # is_transitive_pair decides from the first cut and cross-checks
        # against the common prefix sums, without a decomposition
        (lambda: run(["pair", "4", "4", "--", "2", "2", "2", "2"]), 1),
        # the budget check plans the spaces before verify_pair builds them
        (lambda: run(["verify-inv", "4", "4", "--", "2", "2", "2", "2", "--degree", "4"]), 2),
        (lambda: run(["verify-lie", "4", "4", "--", "2", "2", "2", "2"]), 1),
    ],
    ids=["verify_pair", "pair", "verify-inv", "verify-lie"],
)
def test_decompositions_per_call(monkeypatch, call, expected):
    real = pairs.decompose
    calls = []

    def spy(p1, p2):
        calls.append((p1, p2))
        return real(p1, p2)

    for name, module in list(sys.modules.items()):
        if name.startswith("borelcensus") and getattr(module, "decompose", None) is real:
            monkeypatch.setattr(module, "decompose", spy)
    call()
    assert len(calls) == expected


def _fuzz_int(rng, hi):
    return str(rng.randint(-1, 2) if rng.random() < 0.2 else rng.randint(0, hi))


def _fuzz_parts(rng, n, max_part=None):
    """Parts summing to n, sometimes with a 1 in them."""
    parts, left = [], n
    while left:
        lo = 1 if rng.random() < 0.1 else min(2, left)
        v = rng.randint(lo, max(lo, min(left, max_part or left)))
        if left - v != 1 or rng.random() < 0.1:
            parts.append(str(v))
            left -= v
    return parts


def _fuzz_pair(rng, max_n):
    n = rng.randint(1, max_n)
    right_n = n if rng.random() < 0.9 else rng.randint(1, max_n)
    return [*_fuzz_parts(rng, n), "--", *_fuzz_parts(rng, right_n)]


def _fuzz_many_parts(rng):
    """One block or parts 4 against 500 to 1000 parts 2, at degree 2 to 8.

    At these part counts only degree 2 is inside verify-inv's budgets, so
    every case answers or is refused in well under a second.
    """
    k = rng.randint(250, 500)
    left = rng.choice([[str(4 * k)], ["4"] * k])
    return [*left, "--", *["2"] * (2 * k), "--degree", str(rng.choice((2, 4, 6, 8)))]


# Each entry builds one command's argv with every size under the bound that
# keeps a case fast; the stray tokens can only turn a case into an error.
_FUZZ_GRAMMAR = {
    "count": lambda r: [_fuzz_int(r, 5000)],
    "list": lambda r: [_fuzz_int(r, 30)]
    + r.choice([[], ["--min-part", _fuzz_int(r, 5)]])
    + r.choice([[], ["--distinct"]]),
    "weyl": lambda r: _fuzz_parts(r, r.randint(1, 30)),
    "equiv": lambda r: _fuzz_pair(r, 30),
    "orbit": lambda r: _fuzz_parts(r, r.randint(1, 30)),
    "census": lambda r: [_fuzz_int(r, 30)],
    "special": lambda r: [_fuzz_int(r, 60)],
    "solutions": lambda r: [_fuzz_int(r, 60)],
    "pair": lambda r: _fuzz_pair(r, 40),
    "verify-lie": lambda r: _fuzz_pair(r, 12) + r.choice([[], ["--matrices"]]),
    "verify-inv": lambda r: _fuzz_many_parts(r)
    if r.random() < 0.5
    else _fuzz_pair(r, 16) + r.choice([[], ["--degree", _fuzz_int(r, 6)]]),
    "nodal": lambda r: _fuzz_parts(r, r.randint(1, 20), max_part=3)
    + ["--delta", "".join(r.choice("01") for _ in range(r.randint(0, 3)))],
    "classify": lambda r: [_fuzz_int(r, 60)],
    "table": lambda r: r.choice([[], ["--max", _fuzz_int(r, 200)]]),
    "plist": lambda r: r.choice([[], ["--max", _fuzz_int(r, 60)]]),
}
_STRAY = ["--tol", "1e-9", "--bogus", "--json", "--matrices", "--distinct", "--", "x", "0", "-1"]


def test_seeded_cli_fuzz():
    assert set(_FUZZ_GRAMMAR) == set(cli._COMMANDS)
    rng = random.Random(8128)
    codes = {}
    for _ in range(400):
        command = rng.choice(sorted(_FUZZ_GRAMMAR))
        argv = [command, *_FUZZ_GRAMMAR[command](rng)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            argv.insert(rng.randint(1, len(argv)), rng.choice(_STRAY))
        code, _, err = run(argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        codes.setdefault(command, set()).add(code)
    assert set(codes) == set(_FUZZ_GRAMMAR)
    assert set().union(*codes.values()) >= {0, 1, 2}


def test_installed_entry_point():
    proc = run_module("count", "6", "--json")
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["result"]["p"] == "11"
    assert run_module("count", "0").returncode == 1
