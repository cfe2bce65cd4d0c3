"""One round of a workload, in a fresh interpreter.

Imports borelcensus from the checkout's src/, builds the workload's
inputs and prints READY: the parent times set-up up to that line.  With
--probe it stops there.  Otherwise it runs the batch, checks every
answer, and prints one JSON report as its last line.

    python3 perfbench/worker.py --workload lie-closure --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def execute(session, tracer):
    """Run every operation; return (op seconds, labels, failed, problems)."""
    times, labels, failed, problems = [], [], 0, []
    for op in session.ops:
        start = time.perf_counter()
        try:
            answer = tracer.call("op", op.run, tracer)
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            problems.append(f"{session.name}: {op.label}: raised {exc!r}")
            continue
        times.append(time.perf_counter() - start)
        labels.append(op.label)
        try:
            op.check(answer)
        except Exception as exc:  # a wrong answer or one the check cannot read
            problems.append(f"{session.name}: {op.label}: {exc}")
    return times, labels, failed, problems


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import borelcensus as bc
    from borelcensus import cli

    src = (ROOT / "src").resolve()
    if src not in Path(bc.__file__).resolve().parents:
        print(f"borelcensus was imported from {bc.__file__}, not {src}", file=sys.stderr)
        return 2

    from spans import Tracer, self_times
    from workloads import WORKLOADS

    session = WORKLOADS[args.workload](bc, cli, args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = Tracer(bool(args.trace))
    session.prepare()
    times, labels, failed, problems = execute(session, tracer)
    report = {
        "ops": times,
        "labels": labels,
        "attempted": len(session.ops),
        "failed": failed,
        "problems": problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if args.trace:
        report["layers"] = self_times(tracer.spans)
        report["counts"] = dict(tracer.counts)
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
