"""Command-line front end over every module, with JSON and plain output.

Every invocation builds one envelope {command, inputs, result, errata,
version}; --json prints it as a single JSON object (big counts as decimal
strings), --output writes it to a file, and plain mode renders a human
summary.  A result or erratum built from a record carries the record's own
field names.  Exit codes: 0 success, 1 domain error, an input over its
budget or an unwritable --output file, 2 usage error, 3 indeterminate
numerical result, 4 a failed internal consistency check.

Input budgets: `count N` takes N <= MAX_COUNT_N, and `solutions N` the
same bound on the base M it counts P(M) for; `census N` and `table --max
N` take 1 <= N <= MAX_CENSUS_N.  `special N` enumerates P(M) base
partitions, and `list N` P(N), P(N;1), Q(N) or Q(N;1) by --distinct and
by whether --min-part is at least 2 (an upper bound for --min-part above
2); each refuses an input whose count exceeds MAX_ENUMERATED.
`verify-inv` refuses a pair whose two fixed spaces have more than
MAX_SPACE_DIMS dimensions together, or whose refinement pieces have more
than MAX_MONOMIALS monomials of degree <= D/2, and `verify-lie` a pair of
partitions of N > MAX_LIE_N, before it builds any matrix.  Every PARTS argument takes at most MAX_PARTS parts:
the Weyl group order of 1559 equal parts, like the orbit length of 1559
distinct ones, has more digits than Python prints, and `nodal`'s output
grows with the square of the part count.
"""

from __future__ import annotations

import json
import sys
from math import comb

from . import __version__
from .errors import DomainError, InternalInvariantError, NumericalError
from .flags import (
    SignRep,
    borel_classification,
    class_census,
    equivalent,
    nodal_subspaces,
    orbit_length,
    weyl,
)
from .invverify import _cuts, pair_space_dims, verify_pair
from .lieverify import closure, block_algebra, transitive_on
from .pairs import (
    Agreement,
    decompose,
    has_common_subpartition,
    is_transitive_pair,
)
from .partitions import (
    Partition,
    count_p,
    count_p_ge2,
    count_q,
    count_q_ge2,
    enumerate_partitions,
    partition_counts,
)
from .published import PUBLISHED_P_LIST, p_list_errata, table_errata
from .special import applicable_case, family, solutions_count

USAGE = """usage: borelcensus [--json] [--output FILE] COMMAND [ARGS]

commands:
  count N                             the six partition counts of N
  list N [--min-part K] [--distinct]  enumerate partitions of N
  weyl PARTS..                        Weyl descriptor of a partition
  equiv PARTS.. -- PARTS..            flag equivalence of two partitions
  orbit PARTS..                       orbit length of a partition
  census N                            flag-class census of N
  special N                           the double-partition family at N
  solutions N                         number of solution series at N
  pair PARTS.. -- PARTS..             decomposition and generated group
  verify-lie PARTS.. -- PARTS.. [--matrices]   numerical structure check
  verify-inv PARTS.. -- PARTS.. [--degree D]   fixed-space independence check
  nodal PARTS.. --delta BITS          fixed subspaces of the signed swaps
  classify N                          groups transitive on the sphere of R^N
  table [--max N]                     census table with errata markers
  plist [--max N]                     the published P list, checked
"""


MAX_COUNT_N = 10**5
MAX_ENUMERATED = 10**6  # partitions that list and special may enumerate
# N that census and table --max take.  On a 2-core x86 host `census 1000`
# and `table --max 1000` each take 0.3-0.4 s as a process, start included;
# the census's O(N^2) recount is about 0.1 s of it.
MAX_CENSUS_N = 1000
# dim U + dim W that verify-inv may build.  Twenty-two parts 2 against eleven
# parts 4 at degree 8 (dims 2046 + 297) takes 5.6-5.8 s and 0.24 GB as a
# process on a 2-core x86 host, nearly all in the dense float SVD that reports
# the margins, one per weight over all of that weight's rows.
MAX_SPACE_DIMS = 2400
# monomials of degree <= D/2 in the R refinement pieces, C(R + D/2, D/2), that
# verify-inv may expand into: a cap on the terms of every basis polynomial and
# on the columns of every float matrix.  The worst shape is one block against
# R parts 2, whose block expands to every monomial.  On a 2-core x86 host
# `44 -- 2^22 --degree 8` (C = 14950) takes 6.5-6.9 s and 385 MB as a process,
# nearly all in the float SVD; over the budget, `46 -- 2^23` (C = 17550) takes
# 10.7 s and 506 MB and `104 -- 2^52 --degree 6` (C = 26235) 6.8 s and 545 MB
# in verify_pair alone.  Many pieces cost little, since a term costs its
# weight: `342 -- 2^171 --degree 4` (C = 14878) takes 0.5 s.
MAX_MONOMIALS = 15000
# N that verify-lie may close.  On one core of a 2-core x86 host (one BLAS
# thread) the slowest pair measured at N = 32 was sixteen parts 2 against
# 3 29, 0.81-0.84 s as a process; at N = 40 the closure of twenty parts 2
# against 3 37 took 3.5 s.  A seed that spans so(N) runs no round
# (16 16 -- 32 closes in 0.02 s), but two large inputs whose first round
# falls short of so(N) bracket every unordered pair of them, about N^8/4
# flops on packed rows of N(N-1)/2 floats.  The closure
# preallocates N(N-1)/2 x N(N-1)/2 floats, 0.2 GB at N = 100, and a bracket
# round unpacks the generators G to |G| x N^2 floats, up to 0.4 GB there.
MAX_LIE_N = 32
# parts in one PARTS argument.  1000! has 2568 digits, under Python's
# 4300-digit limit on int to str (1559! is over it); 1000 equal parts under
# `nodal --delta 1` took about 3 s and printed 25 MB on a 2-core x86 host.
MAX_PARTS = 1000


class UsageError(Exception):
    pass


def _check_enumeration_budget(request, n, count, label, bound=False):
    """Refuse when count(n) exceeds the budget, without computing count past it.

    P, P(;1), Q and Q(;1) are nondecreasing for N >= 2 (adding 1 to the
    largest part is an injection), so count(n) is over the budget exactly
    when n reaches the first N whose count is.  label formats a count's
    name, e.g. "P({})"; bound says the count only bounds what is listed.
    """
    first = 2
    while count(first) <= MAX_ENUMERATED:
        first += 1
    if n >= first:
        raise DomainError(
            f"{request} would enumerate {'at most ' if bound else ''}{label.format(n)} "
            f"partitions, over the budget of {MAX_ENUMERATED}: "
            f"{label.format(first)} = {count(first)} is the first count over it"
        )


def _check_once(tokens, name):
    if tokens.count(name) > 1:
        raise UsageError(f"option {name!r} is repeated")


def _pop_flag(tokens, name):
    _check_once(tokens, name)
    if name in tokens:
        tokens.remove(name)
        return True
    return False


def _pop_value(tokens, name, cast, default):
    _check_once(tokens, name)
    if name not in tokens:
        return default
    i = tokens.index(name)
    if i + 1 >= len(tokens):
        raise UsageError(f"{name} needs a value")
    raw = tokens[i + 1]
    del tokens[i : i + 2]
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"bad value for {name}: {raw!r}") from None


def _reject_leftover_flags(tokens):
    """Refuse a leftover option; neither "--" nor a negative integer is one."""
    for t in tokens:
        if t.startswith("-") and t != "--" and not t[1:].isdigit():
            raise UsageError(f"unknown option {t!r}")


def _int(tok, what="argument"):
    try:
        return int(tok)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {tok!r}") from None


def _one_int(tokens):
    _reject_leftover_flags(tokens)
    if len(tokens) != 1:
        raise UsageError("expected exactly one N")
    return _int(tokens[0], "N")


def _partition(tokens):
    _reject_leftover_flags(tokens)
    if not tokens:
        raise UsageError("expected partition parts")
    if len(tokens) > MAX_PARTS:
        raise DomainError(
            f"a partition of {len(tokens)} parts is over the budget of {MAX_PARTS} parts"
        )
    return Partition(tuple(_int(t, "part") for t in tokens))


def _two_partitions(tokens):
    if "--" not in tokens:
        raise UsageError("expected two partitions separated by --")
    i = tokens.index("--")
    return _partition(tokens[:i]), _partition(tokens[i + 1 :])


def _errata_for_n(n):
    out = [e for e in table_errata() if e.n == n]
    if n in PUBLISHED_P_LIST:
        out.extend(e for e in p_list_errata() if e.n == n)
    return out


def _decimal(record):
    """The record's fields by name, every count but n as a decimal string."""
    return {k: v if k == "n" else str(v) for k, v in vars(record).items()}


def _cmd_count(tokens):
    n = _one_int(tokens)
    if n > MAX_COUNT_N:
        raise DomainError(f"count takes N <= {MAX_COUNT_N}, got {n}")
    c = partition_counts(n)
    plain = [
        f"P({n}) = {c.p}",
        f"Q({n}) = {c.q}",
        f"R({n}) = {c.r}",
        f"P({n};1) = {c.p_ge2}",
        f"Q({n};1) = {c.q_ge2}",
        f"R({n};1) = {c.r_ge2}",
    ]
    return {"n": n}, _decimal(c), _errata_for_n(n), plain


def _cmd_list(tokens):
    min_part = _pop_value(tokens, "--min-part", int, 1)
    distinct = _pop_flag(tokens, "--distinct")
    n = _one_int(tokens)
    ge2 = min_part >= 2
    count = (count_q_ge2 if ge2 else count_q) if distinct else (count_p_ge2 if ge2 else count_p)
    label = f"{'Q' if distinct else 'P'}({{}}{';1' if ge2 else ''})"
    # the parts >= 2 count only bounds the partitions with larger parts
    _check_enumeration_budget(f"list {n}", n, count, label, bound=min_part > 2)
    parts = enumerate_partitions(n, min_part, distinct)
    result = {
        "n": n,
        "min_part": min_part,
        "distinct": distinct,
        "count": str(len(parts)),
        "partitions": [list(p.parts) for p in parts],
    }
    plain = [" ".join(str(v) for v in p.parts) for p in parts]
    return {"n": n, "min_part": min_part, "distinct": distinct}, result, [], plain


def _cmd_weyl(tokens):
    p = _partition(tokens)
    w = weyl(p)
    result = {
        "partition": list(p.parts),
        "factors": [[v, m] for v, m in w.factors],
        "order": str(w.order),
        "nontrivial": w.nontrivial,
        "involutions": [vars(i) for i in w.involutions],
    }
    plain = [
        f"partition {p}",
        "factors " + " ".join(f"S({m})@{v}" for v, m in w.factors),
        f"order {w.order}",
        f"nontrivial {w.nontrivial}",
    ]
    return {"partition": list(p.parts)}, result, [], plain


def _cmd_equiv(tokens):
    p1, p2 = _two_partitions(tokens)
    eq = equivalent(p1, p2)
    inputs = {"left": list(p1.parts), "right": list(p2.parts)}
    result = dict(inputs, equivalent=eq)
    return inputs, result, [], ["equivalent" if eq else "not equivalent"]


def _cmd_orbit(tokens):
    p = _partition(tokens)
    length = orbit_length(p)
    return (
        {"partition": list(p.parts)},
        {"partition": list(p.parts), "orbit_length": str(length)},
        [],
        [str(length)],
    )


def _cmd_census(tokens):
    n = _one_int(tokens)
    if not 1 <= n <= MAX_CENSUS_N:
        raise DomainError(f"census needs 1 <= N <= {MAX_CENSUS_N}, got {n}")
    c = class_census(n)
    plain = [
        f"flag classes of {n}: {c.total} total, {c.trivial_weyl} trivial Weyl, "
        f"{c.nontrivial_weyl} nontrivial",
        f"with parts >= 2: {c.total_ge2} total, {c.trivial_weyl_ge2} trivial Weyl, "
        f"{c.nontrivial_weyl_ge2} nontrivial",
    ]
    return {"n": n}, _decimal(c), _errata_for_n(n), plain


def _cmd_special(tokens):
    n = _one_int(tokens)
    m = applicable_case(n)[1]
    _check_enumeration_budget(f"special {n}", m, count_p, "P({})")
    fam = family(n)
    result = {
        **vars(fam),
        "count": str(len(fam.members)),
        "members": [list(p.parts) for p in fam.members],
    }
    plain = [f"case {fam.case}, base M = {fam.m}, {len(fam.members)} members:"]
    plain += ["  " + str(p) for p in fam.members]
    return {"n": n}, result, [], plain


def _cmd_solutions(tokens):
    n = _one_int(tokens)
    m = applicable_case(n)[1]
    if m > MAX_COUNT_N:
        raise DomainError(
            f"solutions {n} would count P(M) for M = {m}, over the budget of M <= {MAX_COUNT_N}"
        )
    s = solutions_count(n)
    return {"n": n}, {"n": n, "count": str(s)}, [], [str(s)]


def _segment_payload(seg):
    if isinstance(seg, Agreement):
        return {"type": "agreement", "start": seg.start, "part": seg.part}
    return {
        "type": "window",
        "start": seg.start,
        "size": seg.size,
        "h_parts": list(seg.h_parts),
        "k_parts": list(seg.k_parts),
    }


def _cmd_pair(tokens):
    p1, p2 = _two_partitions(tokens)
    dec = decompose(p1, p2)
    transitive = is_transitive_pair(p1, p2)
    common = has_common_subpartition(p1, p2)
    plan = dec.window_plan
    inputs = {"left": list(p1.parts), "right": list(p2.parts)}
    result = {
        "left": inputs["left"],
        "right": inputs["right"],
        "segments": [_segment_payload(s) for s in dec.segments],
        "factors": [[size, origin] for size, origin in dec.factors],
        "lie_dimension": dec.lie_dimension,
        "transitive": transitive,
        "common_subpartition": common,
        "window_plan": None
        if plan is None
        else {
            "window_start": plan.window.start,
            "window_size": plan.window.size,
            "side": plan.side,
            **vars(plan.swap),
        },
    }
    plain = [f"{p1} vs {p2}"]
    for seg in dec.segments:
        if isinstance(seg, Agreement):
            plain.append(f"  agreement at {seg.start}: part {seg.part}")
        else:
            plain.append(
                f"  window at {seg.start} size {seg.size}: "
                f"{list(seg.h_parts)} vs {list(seg.k_parts)}"
            )
    plain.append(
        "generated group factors "
        + " x ".join(f"O({size})[{origin}]" for size, origin in dec.factors)
    )
    plain.append(f"transitive on sphere: {transitive}")
    if plan is not None:
        plain.append(
            f"window swap: side {plan.side} blocks {plan.swap.block_a},{plan.swap.block_b} "
            f"(size {plan.swap.block_size})"
        )
    return inputs, result, [], plain


def _cmd_verify_lie(tokens):
    with_matrices = _pop_flag(tokens, "--matrices")
    p1, p2 = _two_partitions(tokens)
    dec = decompose(p1, p2)
    if p1.n > MAX_LIE_N:
        raise DomainError(f"verify-lie takes N <= {MAX_LIE_N}, got N = {p1.n}")
    c = closure(block_algebra(p1), block_algebra(p2))
    full = transitive_on(c, (0, p1.n))
    predicted = is_transitive_pair(p1, p2)
    windows = [
        {
            "start": w.start,
            "size": w.size,
            "transitive": transitive_on(c, (w.start, w.start + w.size)),
        }
        for w in dec.windows
    ]
    inputs = {"left": list(p1.parts), "right": list(p2.parts)}
    result = {
        "closure_dimension": c.dimension,
        "predicted_lie_dimension": dec.lie_dimension,
        "dimensions_match": c.dimension == dec.lie_dimension,
        "transitive_numeric": full,
        "transitive_predicted": predicted,
        "transitivity_match": full == predicted,
        "iterations": c.iterations,
        "residual_kept_min": c.residual_kept_min,
        "residual_dropped_max": c.residual_dropped_max,
        "windows": windows,
    }
    if with_matrices:
        result["basis"] = c.basis.tolist()
    plain = [
        f"closure dimension {c.dimension} (predicted {dec.lie_dimension}, "
        f"match={result['dimensions_match']})",
        f"transitive on full sphere: numeric {full}, predicted {predicted}",
    ]
    plain += [
        f"window [{w['start']}, {w['start'] + w['size']}): transitive {w['transitive']}"
        for w in windows
    ]
    return inputs, result, [], plain


def _cmd_verify_inv(tokens):
    degree = _pop_value(tokens, "--degree", int, 6)
    p1, p2 = _two_partitions(tokens)
    dims = pair_space_dims(p1, p2, degree)
    if sum(dims) > MAX_SPACE_DIMS:
        raise DomainError(
            f"verify-inv would build fixed spaces of dimensions {dims[0]} and {dims[1]}, "
            f"over the budget of {MAX_SPACE_DIMS} in total"
        )
    pieces = len(_cuts(p1, p2))
    monomials = comb(pieces + degree // 2, degree // 2)
    if monomials > MAX_MONOMIALS:
        raise DomainError(
            f"verify-inv would expand into {monomials} monomials of {pieces} refinement "
            f"pieces, over the budget of {MAX_MONOMIALS}"
        )
    report = verify_pair(p1, p2, degree)
    inputs = {"left": list(p1.parts), "right": list(p2.parts), "degree": degree}
    result = {k: v for k, v in vars(report).items() if k not in ("p1", "p2")}
    plain = [
        f"window [{report.window_start}, {report.window_start + report.window_size}) "
        f"carried by side {report.carrier_side}",
        f"space dimensions {report.dims[0]} and {report.dims[1]}",
        f"intersection dimension {report.intersection}: "
        + ("PASS" if report.passed else "FAIL (counterexample)"),
    ]
    return inputs, result, [], plain


def _cmd_nodal(tokens):
    bits = _pop_value(tokens, "--delta", str, None)
    if bits is None:
        raise UsageError("nodal needs --delta BITS")
    if not bits or any(b not in "01" for b in bits):
        raise UsageError(f"--delta must be a nonempty string of 0/1, got {bits!r}")
    p = _partition(tokens)
    rho = SignRep(tuple(int(b) for b in bits))
    specs = nodal_subspaces(p, rho)
    inputs = {"partition": list(p.parts), "deltas": [int(b) for b in bits]}
    result = {
        "partition": inputs["partition"],
        "deltas": inputs["deltas"],
        "subspaces": [
            {"block_a": s.block_a, "block_b": s.block_b, "codimension": s.block_size}
            for s in specs
        ],
    }
    plain = [
        f"swap blocks {s.block_a},{s.block_b}: fixed subspace of codimension {s.block_size}"
        for s in specs
    ] or ["no signed swaps (all deltas are 0)"]
    return inputs, result, [], plain


def _cmd_classify(tokens):
    n = _one_int(tokens)
    entries = borel_classification(n)
    result = {"n": n, "pairs": [[g, h] for g, h in entries]}
    plain = [f"({g}, {h})" for g, h in entries]
    return {"n": n}, result, [], plain


def _cmd_table(tokens):
    max_n = _pop_value(tokens, "--max", int, 10)
    _reject_leftover_flags(tokens)
    if tokens:
        raise UsageError("table takes no positional arguments")
    if not 1 <= max_n <= MAX_CENSUS_N:
        raise DomainError(f"table needs 1 <= max <= {MAX_CENSUS_N}, got {max_n}")
    rows = [partition_counts(n) for n in range(1, max_n + 1)]
    errata = table_errata(max_n)
    flagged = {e.n for e in errata}
    result = {"max": max_n, "rows": [_decimal(c) for c in rows]}
    header = f"{'N':>4} {'P':>10} {'Q':>8} {'R':>10} {'P(;1)':>8} {'Q(;1)':>8} {'R(;1)':>8}"
    plain = [header]
    for c in rows:
        mark = "  *" if c.n in flagged else ""
        plain.append(
            f"{c.n:>4} {c.p:>10} {c.q:>8} {c.r:>10} {c.p_ge2:>8} {c.q_ge2:>8} "
            f"{c.r_ge2:>8}{mark}"
        )
    plain += ["* " + e.describe() for e in errata]
    return {"max": max_n}, result, errata, plain


def _cmd_plist(tokens):
    max_n = _pop_value(tokens, "--max", int, 49)
    _reject_leftover_flags(tokens)
    if tokens:
        raise UsageError("plist takes no positional arguments")
    if not 1 <= max_n <= 49:
        raise DomainError(f"plist covers 1 <= max <= 49, got {max_n}")
    values = [[n, str(partition_counts(n).p)] for n in range(1, max_n + 1)]
    errata = p_list_errata(max_n)
    result = {"max": max_n, "values": values}
    plain = [f"P({n}) = {v}" for n, v in values]
    plain += ["* " + e.describe() for e in errata]
    return {"max": max_n}, result, errata, plain


_COMMANDS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "weyl": _cmd_weyl,
    "equiv": _cmd_equiv,
    "orbit": _cmd_orbit,
    "census": _cmd_census,
    "special": _cmd_special,
    "solutions": _cmd_solutions,
    "pair": _cmd_pair,
    "verify-lie": _cmd_verify_lie,
    "verify-inv": _cmd_verify_inv,
    "nodal": _cmd_nodal,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "plist": _cmd_plist,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        tokens = list(argv)
        json_mode = _pop_flag(tokens, "--json")
        output = _pop_value(tokens, "--output", str, None)
        if not tokens:
            raise UsageError("missing subcommand")
        command = tokens.pop(0)
        if command in ("help", "-h", "--help"):
            print(USAGE, file=out)
            return 0
        handler = _COMMANDS.get(command)
        if handler is None:
            raise UsageError(f"unknown subcommand {command!r}")
        inputs, result, errata, plain = handler(tokens)
        envelope = {
            "command": command,
            "inputs": inputs,
            "result": result,
            "errata": [vars(e) for e in errata],
            "version": __version__,
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        if output:
            try:
                with open(output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: cannot write {output}: {exc.strerror or exc}", file=err)
                return 1
        if json_mode:
            print(text, file=out)
        else:
            for line in plain:
                print(line, file=out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        print(USAGE, file=err)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except NumericalError as exc:
        print(f"numerical: {exc}", file=err)
        return 3
    except InternalInvariantError as exc:
        print(f"internal: {exc}", file=err)
        return 4


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
