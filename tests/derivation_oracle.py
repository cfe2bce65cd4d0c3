"""A slow test oracle for the invariant-space dimensions.

It counts the invariants by derivations, independently of the block-norm
construction in borelcensus.invverify, and shares only the degree and
parts checks, the exponent enumerator and the rank threshold with it.
"""

import numpy as np

from borelcensus.invverify import _alphas, _check_degree, _check_parts
from borelcensus.lieverify import _rank
from borelcensus.partitions import Partition


def invariant_dim_by_derivations(p: Partition, d: int) -> int:
    """Slow oracle: dimension of the joint kernel of all in-block rotations.

    Assembles the infinitesimal rotation operators x_a d/dx_b - x_b d/dx_a
    for every coordinate pair inside a block, acting on all monomials of
    degree <= d, and counts the nullspace.  Independent of the block-norm
    construction; intended for desk-scale cross-checks only.
    """
    _check_parts(p)
    _check_degree(d)
    mons = tuple(_alphas(p.n, d))
    index = {e: i for i, e in enumerate(mons)}

    pairs_in_blocks = []
    offset = 0
    for size in p.parts:
        for a in range(offset, offset + size):
            for b in range(a + 1, offset + size):
                pairs_in_blocks.append((a, b))
        offset += size

    ops = np.zeros((len(pairs_in_blocks) * len(mons), len(mons)))
    for k, (a, b) in enumerate(pairs_in_blocks):
        base = k * len(mons)
        for col, e in enumerate(mons):
            if e[b] > 0:
                target = list(e)
                target[b] -= 1
                target[a] += 1
                ops[base + index[tuple(target)], col] += e[b]
            if e[a] > 0:
                target = list(e)
                target[a] -= 1
                target[b] += 1
                ops[base + index[tuple(target)], col] -= e[a]
    return len(mons) - _rank(ops)[0]
