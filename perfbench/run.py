#!/usr/bin/env python3
"""Benchmark borelcensus end to end, with a per-layer breakdown when traced.

    python3 perfbench/run.py --workload exact-census --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every round is a fresh worker process
(worker.py) that imports the checkout's src/, builds the inputs from the
seed, runs one fixed batch of operations and checks every answer.  Rounds
run one after another until --seconds is used up, and never fewer than
WINDOW of them; before each of the first WINDOW rounds a few extra
workers stop right after set-up, so that set-up time comes from many
fresh starts spread over the run.  The last line of output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 every
other round records spans and the metrics are the per-layer ones,
including the tracing overhead against the untraced rounds of the same
run.  Raw results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

from stats import beyond, nearest_rank, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact-census", "lie-closure", "fixed-space")
# The host runs stretches of several seconds up to 1.7x faster than its
# usual speed.  End-to-end times take each operation's slowest time over
# WINDOW consecutive rounds, which keeps the usual speed unless every
# round of the window ran fast, and then the median over the run's
# windows.  A fixed WINDOW keeps the figure independent of how many
# rounds fit into a run.  Set-up time is the upper quartile of its
# fresh starts, for the same reason.
WINDOW = 3
SETUP_PROBES = 4  # set-up-only workers before each of the first WINDOW rounds
ONESHOT_RUNS = 5
ONESHOT_ARGS = ("count", "10", "--json")
WORKER_TIMEOUT_S = 150
# Small SVDs and products gain nothing from a second BLAS thread; one
# thread keeps CPU time equal to wall time and removes sporadic stalls.
BLAS_THREADS = "1"

# Per-layer time metric -> span name; self times summed per traced round.
LAYER_TIMES = {
    "partitions.count_s": "partitions.count",
    "partitions.enumerate_s": "partitions.enumerate",
    "flags.census_s": "flags.census",
    "special.family_s": "special.family",
    "pairs.structure_s": "pairs.structure",
    "lieverify.block_algebra_s": "lieverify.block_algebra",
    "lieverify.closure_s": "lieverify.closure",
    "lieverify.transitive_on_s": "lieverify.transitive_on",
    "invverify.verify_pair_s": "invverify.verify_pair",
    "invverify.space_s": "invverify.space",
    "invverify.intersection_s": "invverify.intersection",
    "cli.run_s": "cli.run",
    "bench.glue_s": "op",
}
# Per-layer count metric -> unit; counted per traced round.
LAYER_COUNTS = {
    "partitions.enumerated": "count",
    "special.members": "count",
    "pairs.pairs": "count",
    "lieverify.closure_dim": "count",
    "lieverify.closure_iterations": "count",
    "lieverify.probes": "count",
    "invverify.terms": "count",
    "cli.json_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv, env):
    """Start a worker and wait for it; return (seconds to READY, later lines, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with code {code}")
    return ready, rest.strip().splitlines(), time.perf_counter() - start


def worker(workload, seed, trace, env, probe=False):
    """Run one worker; return (set-up seconds, report or None for a probe, seconds)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--trace", str(trace)]
    ready, lines, duration = spawn(argv + (["--probe"] if probe else []), env)
    if probe:
        return ready, None, duration
    if not lines:
        raise BenchError(f"the {workload} worker printed no report")
    return ready, json.loads(lines[-1]), duration


def oneshot_cli(env):
    """Milliseconds of fresh `python -m borelcensus.cli` runs, and whether they answered."""
    from oracles import exact_counts

    want = str(exact_counts(int(ONESHOT_ARGS[1]))["p"][-1])
    times, ok = [], True
    for _ in range(ONESHOT_RUNS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "borelcensus.cli", *ONESHOT_ARGS],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        times.append((time.perf_counter() - start) * 1000)
        try:
            ok &= done.returncode == 0 and json.loads(done.stdout)["result"]["p"] == want
        except (ValueError, KeyError):
            ok = False
    return median(times), ok


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metric(value, unit):
    return {"value": value, "unit": unit}


def windows(rounds):
    """Per window of WINDOW consecutive rounds, each operation's slowest time."""
    return [
        [max(times) for times in zip(*(r["ops"] for r in rounds[i : i + WINDOW]))]
        for i in range(len(rounds) - WINDOW + 1)
    ]


def end_to_end(rounds, setups):
    ops = windows(rounds)
    tail = tail_percentile(len(ops[0]))
    if tail is None:
        raise BenchError("a workload batch needs at least 40 operations")
    metrics = {
        "setup_s": metric(quantiles(setups, n=4)[2], "s"),
        "wall_s": metric(median([sum(w) for w in ops]), "s"),
        "op_p50_ms": metric(median([median(w) for w in ops]) * 1000, "ms"),
        "op_tail_ms": metric(median([nearest_rank(w, tail) for w in ops]) * 1000, "ms"),
        "peak_rss_mb": metric(median([r["rss_mb"] for r in rounds]), "MB"),
    }
    note = (
        f"op_tail_ms is p{tail:g} of {len(ops[0])} operations ({beyond(ops[0], tail)} beyond it),"
        f" each at its slowest of {WINDOW} rounds; medians over {len(ops)} windows"
    )
    return metrics, note


def per_layer(traced, untraced, oneshot_ms):
    metrics = {}
    for name, span in LAYER_TIMES.items():
        metrics[name] = metric(median([r["layers"].get(span, 0.0) for r in traced]), "s")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = metric(traced[0]["counts"].get(name, 0), unit)
    metrics["cli.oneshot_ms"] = metric(oneshot_ms, "ms")
    metrics["trace.spans"] = metric(len(traced[0]["spans"]), "count")
    overhead = median([sum(r["ops"]) for r in traced]) - median([sum(r["ops"]) for r in untraced])
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def measure(args):
    if not (ROOT / "src" / "borelcensus").is_dir():
        raise BenchError(f"no borelcensus sources under {ROOT / 'src'}")
    env = worker_env()
    deadline = time.perf_counter() + args.seconds
    # A traced run needs one traced and one untraced round; an untraced
    # run needs one window.
    least = 2 if args.trace else WINDOW
    setups, rounds, durations = [], [], []  # rounds: (traced, report)
    while True:
        if not args.trace and len(rounds) < WINDOW:
            for _ in range(SETUP_PROBES):
                setups.append(worker(args.workload, args.seed, 0, env, probe=True)[0])
        traced = int(args.trace and len(rounds) % 2 == 1)
        _, report, duration = worker(args.workload, args.seed, traced, env)
        durations.append(duration)
        rounds.append((traced, report))
        if len(rounds) >= least and time.perf_counter() + median(durations) > deadline:
            break

    reports = [r for _, r in rounds]
    problems = [p for r in reports for p in r["problems"]]
    if len({r["attempted"] for r in reports}) != 1:
        problems.append("rounds attempted different batches")
    untraced = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    if args.trace:
        oneshot_ms, oneshot_ok = oneshot_cli(env)
        if not oneshot_ok:
            problems.append("a one-shot CLI run gave a wrong answer")
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            problems.append("traced rounds recorded different counts")
        metrics = per_layer(traced, untraced, oneshot_ms)
        note = f"{len(traced)} traced and {len(untraced)} untraced rounds"
    else:
        metrics, note = end_to_end(untraced, setups)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    raw = {
        "args": vars(args),
        "env": dict(reports[0]["env"], git_sha=git_sha(), nproc=os.cpu_count()),
        "blas_threads_requested": BLAS_THREADS,
        "setup_samples_s": setups,
        "rounds": [
            {k: v for k, v in r.items() if k not in ("spans", "labels")} for r in reports
        ],
        "labels": reports[0]["labels"],
        "problems": problems,
        "note": note,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1))
    if traced:
        spans = [[i, *s] for i, r in enumerate(traced) for s in r["spans"]]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of {reports[0]['attempted']} operations; {note}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
