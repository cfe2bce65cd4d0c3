"""Tests of the benchmark itself: its oracles, statistics, spans and runs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own pytest run;
the last tests start the benchmark and take about two minutes, because
an untraced run always makes a window of three rounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import TAIL_LADDER, beyond, nearest_rank, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_textbook_counts():
    exact = oracles.exact_counts(200)
    assert exact["p"][100] == 190569292
    assert exact["q"][100] == 444793
    assert exact["p"][200] == 3972999029388
    assert exact["p_ge2"][10] == 12
    assert exact["q_ge2"][10] == 5  # {10}, {2,8}, {3,7}, {4,6}, {2,3,5}


def test_modular_counts_match_exact():
    exact, modular = oracles.exact_counts(300), oracles.modular_counts(300)
    for key in exact:
        assert [v % oracles.MODULUS for v in exact[key]] == modular[key].tolist()


def test_enumeration_matches_counts():
    exact = oracles.exact_counts(20)
    for n in range(1, 21):
        assert len(oracles.partitions(n)) == exact["p"][n]
        assert len(oracles.partitions(n, 2)) == exact["p_ge2"][n]
        assert oracles.partitions(n) == sorted(oracles.partitions(n))


def test_pentagonal_parity_and_ramanujan():
    exact = oracles.exact_counts(200)
    pentagonal = oracles.generalized_pentagonals(200)
    assert sorted(pentagonal)[:8] == [0, 1, 2, 5, 7, 12, 15, 22]
    for n in range(201):
        assert (exact["q"][n] % 2 == 1) == (n in pentagonal)
        divisor = oracles.ramanujan_divisor(n)
        if divisor:
            assert exact["p"][n] % divisor == 0


def test_structure_and_dimensions():
    factors, lie, transitive, windows = oracles.structure((2, 2, 4), (2, 6))
    assert factors == ((2, "agreement"), (6, "window"))
    assert (lie, transitive, windows) == (16, False, [(2, 8)])
    assert oracles.structure((2, 4), (3, 3))[2] is True
    assert oracles.invariant_dim((4, 4), 4) == 6
    assert oracles.symmetric_dim((4, 4), 4) == 4
    assert oracles.antisymmetric_dim((4, 4), 0, 1, 4) == 2
    case, m, members = oracles.mod4_family(12)
    assert (case, m) == ("mod0", 3)
    assert sorted(members) == [(2, 2, 2, 2, 2, 2), (2, 2, 4, 4), (6, 6)]


def test_tail_rule():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(132) == 90
    for samples in range(40, 3001):
        q = tail_percentile(samples)
        values = list(range(samples))
        assert beyond(values, q) >= 10
        higher = [t / 10 for t in TAIL_LADDER if t / 10 > q]
        if higher:
            assert beyond(values, higher[0]) < 10
    assert nearest_rank(list(range(1, 101)), 90) == 90


def test_self_times():
    ms = 1_000_000
    spans = [
        [0, None, "a", 0, 100 * ms],
        [1, 0, "b", 10 * ms, 30 * ms],
        [2, 0, "c", 20 * ms, 50 * ms],  # overlaps b: covered once
        [3, 0, "c", 90 * ms, 120 * ms],  # runs past a: clipped at a's end
        [4, 1, "d", 12 * ms, 18 * ms],
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx(0.050)
    assert got["b"] == pytest.approx(0.014)
    assert got["c"] == pytest.approx(0.060)
    assert got["d"] == pytest.approx(0.006)


def test_tracer_links_parents():
    tr = Tracer(True)
    tr.call("outer", lambda: tr.call("inner", lambda: 1) + tr.call("inner", lambda: 2))
    assert [(s[1], s[2]) for s in tr.spans] == [(None, "outer"), (0, "inner"), (0, "inner")]
    assert set(self_times(tr.spans)) == {"outer", "inner"}
    off = Tracer(False)
    assert off.call("x", max, 1, 2) == 2 and off.spans == []


def test_windows_keep_each_operations_slowest_round():
    import run

    rounds = [{"ops": [1.0, 5.0]}, {"ops": [2.0, 3.0]}, {"ops": [0.5, 4.0]}, {"ops": [3.0, 1.0]}]
    assert run.WINDOW == 3
    assert run.windows(rounds) == [[2.0, 5.0], [3.0, 4.0]]
    assert run.windows(rounds[:3]) == [[2.0, 5.0]]


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    import borelcensus
    from borelcensus import cli
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        labels = [[op.label for op in cls(borelcensus, cli, seed).ops] for seed in (4, 4, 5)]
        assert labels[0] == labels[1]
        assert sorted(labels[0]) == sorted(labels[2]) or cls.name == "exact-census"
        assert len(labels[0]) >= 40


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
        + ["--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    done = run_bench(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 40
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer():
    done = run_bench("fixed-space", 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("exact-census", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
