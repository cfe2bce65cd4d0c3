"""Reference computations the benchmark checks the program against.

Nothing here imports borelcensus or shares its methods: counts come from
generating-function dynamic programming (Q through Euler's odd-parts
identity), pair structure from common prefix sums, and fixed-space
dimensions from enumerating exponent vectors directly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# A prime below 2**50: a cumulative sum of 8192 residues still fits in int64.
MODULUS = 2**50 - 27
MODULAR_LIMIT = 8191


def partitions(n, min_part=1):
    """Partitions of n with parts >= min_part: ascending tuples, lexicographic."""
    out = []

    def rec(rem, lo, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for k in range(lo, rem + 1):
            if rem - k == 0 or rem - k >= k:
                prefix.append(k)
                rec(rem - k, k, prefix)
                prefix.pop()

    rec(n, min_part, [])
    return out


def exact_counts(nmax):
    """P, Q, P(;1) and Q(;1) for 0..nmax as exact integers.

    P counts partitions into any parts and P(;1) into parts >= 2; Q counts
    partitions into odd parts, which Euler's identity equates with distinct
    parts; Q(;1) counts distinct parts >= 2.
    """
    p = [1] + [0] * nmax
    p2, odd, d2 = p[:], p[:], p[:]
    for k in range(1, nmax + 1):
        for m in range(k, nmax + 1):
            p[m] += p[m - k]
            if k >= 2:
                p2[m] += p2[m - k]
            if k % 2:
                odd[m] += odd[m - k]
        if k >= 2:
            for m in range(nmax, k - 1, -1):
                d2[m] += d2[m - k]
    return {"p": p, "q": odd, "p_ge2": p2, "q_ge2": d2}


def _unbounded(dp, k):
    # Multiply by 1/(1 - x^k): a running sum along each residue class mod k.
    m = dp.size
    padded = np.concatenate([dp, np.zeros(-m % k, dtype=np.int64)]).reshape(-1, k)
    return (np.cumsum(padded, axis=0) % MODULUS).ravel()[:m]


def modular_counts(nmax):
    """The same four sequences as exact_counts, modulo MODULUS, as int64 arrays."""
    if nmax > MODULAR_LIMIT:
        raise ValueError(f"modular tables stop at {MODULAR_LIMIT}, asked for {nmax}")
    one = np.zeros(nmax + 1, dtype=np.int64)
    one[0] = 1
    p, p2, odd, d2 = one, one.copy(), one.copy(), one.copy()
    for k in range(1, nmax + 1):
        p = _unbounded(p, k)
        if k % 2:
            odd = _unbounded(odd, k)
        if k >= 2:
            p2 = _unbounded(p2, k)
            d2[k:] = (d2[k:] + d2[:-k]) % MODULUS
    return {"p": p, "q": odd, "p_ge2": p2, "q_ge2": d2}


def generalized_pentagonals(nmax):
    """k(3k-1)/2 for k = 0, 1, -1, 2, -2, ... up to nmax."""
    out, k = {0}, 1
    while k * (3 * k - 1) // 2 <= nmax:
        out.add(k * (3 * k - 1) // 2)
        out.add(k * (3 * k + 1) // 2)
        k += 1
    return {g for g in out if g <= nmax}


def ramanujan_divisor(n):
    """The modulus Ramanujan's congruences force to divide P(n), or None."""
    for mod, res in ((5, 4), (7, 5), (11, 6)):
        if n % mod == res:
            return mod
    return None


def mod4_family(n):
    """(case, M, members) of the doubling construction, members as sorted tuples."""
    rem = n % 4
    if n < 4 or (rem == 1 and n < 9):
        return None
    extra = {0: 0, 2: 2, 3: 3, 1: 5}[rem]
    case = {0: "mod0", 2: "mod2", 3: "mod3", 1: "mod5"}[rem]
    m = (n - extra) // 4
    members = []
    for base in partitions(m):
        doubled = [v for part in base for v in (2 * part, 2 * part)]
        if extra:
            doubled.append(extra)
        members.append(tuple(sorted(doubled)))
    return case, m, members


def profile(parts):
    return tuple(sorted(Counter(parts).items()))


def prefix_sums(parts):
    out, acc = [], 0
    for v in parts:
        acc += v
        out.append(acc)
    return out


def structure(a, b):
    """Generated-group structure of two partitions from their common prefix sums.

    Returns (factors, lie_dimension, transitive, windows): consecutive
    common cuts bound the factors; a factor is a window where the two
    sides' parts differ there, an agreement where they match; windows are
    half-open coordinate ranges.
    """
    n = sum(a)
    cuts = sorted(set(prefix_sums(a)) & set(prefix_sums(b)) | {0})
    factors, windows = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        if _slice(a, lo, hi) == _slice(b, lo, hi):
            factors.append((hi - lo, "agreement"))
        else:
            factors.append((hi - lo, "window"))
            windows.append((lo, hi))
    lie = sum(s * (s - 1) // 2 for s, _ in factors)
    return tuple(factors), lie, cuts == [0, n] and tuple(a) != tuple(b), windows


def _slice(parts, lo, hi):
    out, pos = [], 0
    for v in parts:
        if lo <= pos < hi:
            out.append(v)
        pos += v
    return out


def block_offsets(parts):
    return [0] + prefix_sums(parts)[:-1]


def exponent_vectors(r, budget):
    """All exponent vectors over r variables with entry sum <= budget."""
    out = []

    def rec(prefix, left):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], budget)
    return out


def invariant_dim(parts, degree):
    """Block-norm monomials of degree <= degree: all exponent vectors."""
    return len(exponent_vectors(len(parts), degree // 2))


def symmetric_dim(parts, degree):
    """Exponent vectors up to permuting the blocks of equal size.

    Counts one representative per orbit: exponents non-increasing along
    each run of equal parts.
    """
    count = 0
    for alpha in exponent_vectors(len(parts), degree // 2):
        if all(
            alpha[i] >= alpha[i + 1]
            for i in range(len(parts) - 1)
            if parts[i] == parts[i + 1]
        ):
            count += 1
    return count


def antisymmetric_dim(parts, block_a, block_b, degree):
    """Exponent vectors with a larger exponent on block_a than on block_b (0-based)."""
    return sum(
        1
        for alpha in exponent_vectors(len(parts), degree // 2)
        if alpha[block_a] > alpha[block_b]
    )
