"""Numerical oracle for generated-group structure and sphere transitivity.

Block skew algebras so(N_1) + ... + so(N_r) are realized as matrices,
closed under commutators, and the closure's dimension and tangent ranks
are compared against the exact predictions of the pairs module.  A
connected group is transitive on the sphere of a subspace exactly when its
tangent space at a point spans the sphere's tangent space, so transitivity
reduces to a rank test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndeterminateError, NumericalError, ProbeDisagreementError
from .flags import InvolutionSpec, _check_swap
from .partitions import Partition

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_RANK_TOL",
    "LieClosure",
    "block_algebra",
    "closure",
    "transitive_on",
    "involution_normalizes",
    "swap_matrix",
]

DEFAULT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-8
_PROBE_SEED = 62831853  # fixed so every run draws the same test vector
_BATCH_FLOATS = 1 << 16  # brackets formed per matmul, in floats; bounds peak memory


@dataclass(frozen=True)
class LieClosure:
    """A closed algebra and the margins of the residuals that decided it.

    residual_kept_min is the smallest residual a direction joined the basis
    with (a seed element's residual is its norm); residual_dropped_max is
    the largest residual dropped as lying in the span, 0.0 if none was.
    """

    basis: np.ndarray  # shape (dimension, n, n), skew and orthonormal
    dimension: int
    iterations: int
    residual_kept_min: float
    residual_dropped_max: float


def block_algebra(p: Partition) -> np.ndarray:
    """Basis of the block algebra, (E_ab - E_ba)/sqrt(2) inside each block, shape (k, n, n)."""
    if p.min_part < 2:
        raise DomainError("block algebras need every part >= 2")
    n = p.n
    mats = []
    for offset, size in zip((0, *p.prefix_sums()), p.parts):
        for a in range(offset, offset + size):
            for b in range(a + 1, offset + size):
                x = np.zeros((n, n))
                x[a, b] = 1.0 / np.sqrt(2.0)
                x[b, a] = -1.0 / np.sqrt(2.0)
                mats.append(x)
    return np.array(mats)


def _check_skew(elements):
    worst = np.max(np.abs(elements + np.transpose(elements, (0, 2, 1))))
    if not worst <= DEFAULT_TOL:  # a NaN entry fails too
        raise DomainError(f"input matrices are not skew-symmetric (residual {worst:.2e})")


def _check_orthonormal(flat):
    """Refuse rows whose Gram matrix is off the identity by more than DEFAULT_TOL/10.

    A seed off from orthonormal by d leaves d^2 after two projection
    passes, so this keeps the seed's error below the ambiguity band.
    """
    worst = np.max(np.abs(flat @ flat.T - np.eye(len(flat))))
    if not worst <= DEFAULT_TOL / 10.0:
        raise DomainError(f"input matrices are not orthonormal (Gram deviation {worst:.2e})")


def _check_band(values, tol, what):
    """Refuse to decide when a value sits inside the ambiguity band [tol/10, tol]."""
    in_band = (values >= tol / 10.0) & (values <= tol)
    if np.any(in_band):
        raise IndeterminateError(
            f"{what} {values[in_band][0]:.3e} falls inside the ambiguity band "
            f"[{tol / 10.0:.1e}, {tol:.1e}]"
        )


def _rank(mat):
    """Numerical rank of mat, its smallest kept and its largest dropped singular value.

    Singular values above DEFAULT_RANK_TOL count, those below a tenth of it
    do not, and one in between raises IndeterminateError.
    """
    if mat.size == 0:
        return 0, 0.0, 0.0
    sv = np.linalg.svd(mat, compute_uv=False)
    _check_band(sv, DEFAULT_RANK_TOL, "singular value")
    kept = sv[sv > DEFAULT_RANK_TOL]
    dropped = sv[sv < DEFAULT_RANK_TOL / 10.0]
    return len(kept), (float(kept.min()) if kept.size else 0.0), (
        float(dropped.max()) if dropped.size else 0.0
    )


def _project_out(rows, basis):
    """Project rows twice out of span(basis); drop rows left below DEFAULT_TOL/10.

    Returns the kept rows, their norms and the largest norm dropped (0.0
    if none).  A projection never lengthens a row, so a dropped row could
    never have been accepted later.
    """
    dropped = 0.0
    for _ in range(2):
        if len(basis):
            rows = rows - (rows @ basis.T) @ basis
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        keep = norms >= DEFAULT_TOL / 10.0
        dropped = max(dropped, float(np.max(norms, where=~keep, initial=0.0)))
        rows, norms = rows[keep], norms[keep]
    return rows, norms, dropped


def _accept(basis, m, batch):
    """Append the new directions of batch to basis[:m].

    Returns the new count, the smallest accepted residual (inf if none)
    and the largest dropped one.  Pivoted Gram-Schmidt: after projecting
    the batch out of the basis, the row with the largest residual joins
    it while that residual exceeds DEFAULT_TOL, and all rows are
    projected out of it, which leaves the accepted row to be dropped.
    """
    rows, norms, dropped = _project_out(batch, basis[:m])
    kept = np.inf
    while len(rows):
        i = int(np.argmax(norms))
        _check_band(norms[i : i + 1], DEFAULT_TOL, "closure residual")
        if m == basis.shape[0]:
            raise NumericalError(
                f"bracket closure exceeds so(n), dimension {m}: residual {norms[i]:.3e} "
                "would be accepted"
            )
        basis[m] = rows[i] / norms[i]
        kept = min(kept, float(norms[i]))
        rows, norms, d = _project_out(rows, basis[m : m + 1])
        dropped = max(dropped, d)
        m += 1
    return m, kept, dropped


def closure(b1: np.ndarray, b2: np.ndarray) -> LieClosure:
    """Close the union of two skew bases, each a (k, n, n) array, under commutators.

    Both inputs must be real (k, n, n) arrays of one n, nonempty, skew and
    orthonormal under the Frobenius product; anything else is a
    DomainError.  The larger input seeds the basis as given and the other
    joins it through pivoted Gram-Schmidt; together they are G.  Each
    round brackets only the previous round's new elements against G,
    since left-normed brackets of G span the generated algebra, and
    accepts the new directions; the first round forms each unordered pair
    of G once.  Rounds stop once the basis spans so(n).
    A residual inside [DEFAULT_TOL/10, DEFAULT_TOL] raises
    IndeterminateError.
    """
    for which, b in (("first", b1), ("second", b2)):
        square = isinstance(b, np.ndarray) and b.ndim == 3 and b.shape[1] == b.shape[2]
        if not square or b.dtype.kind not in "iuf":
            raise DomainError(
                f"the {which} basis must be a real (k, n, n) array, got {type(b).__name__} "
                f"of shape {getattr(b, 'shape', None)}"
            )
    n = b1.shape[1]
    if b2.shape[1] != n:
        raise DomainError(f"bases live in different dimensions: {n} vs {b2.shape[1]}")
    for which, b in (("first", b1), ("second", b2)):
        if not len(b):
            raise DomainError(f"the {which} basis is empty; closure needs at least one element")
        _check_skew(b)
        _check_orthonormal(b.reshape(-1, n * n))
    big, small = (b2, b1) if len(b2) > len(b1) else (b1, b2)
    full = n * (n - 1) // 2
    basis = np.zeros((full, n * n))
    m = len(big)  # at most full, since big is orthonormal
    basis[:m] = big.reshape(m, n * n)
    # a seed element joins with its norm as its residual
    kept = float(np.sqrt(np.einsum("ij,ij->i", basis[:m], basis[:m]).min()))
    m, k, dropped = _accept(basis, m, small.reshape(-1, n * n))
    kept = min(kept, k)
    g = basis[:m].reshape(m, n, n)
    lo, rounds = 0, 0
    while lo < m < full:
        rounds += 1
        hi = m
        step = max(1, _BATCH_FLOATS // ((hi - lo) * n * n))
        for start in range(0, len(g), step):
            # [X, Y] = -[Y, X]: the first round, whose frontier is G, pairs
            # element i only with generators j <= i; later frontiers lie past G
            frontier = basis[max(lo, start) : hi].reshape(-1, 1, n, n)
            xy = frontier @ g[start : start + step]
            # for skew x and y, yx is the transpose of xy
            brackets = xy - np.swapaxes(xy, -1, -2)
            m, k, d = _accept(basis, m, brackets.reshape(-1, n * n))
            kept, dropped = min(kept, k), max(dropped, d)
            if m == full:
                break
        lo = hi
    return LieClosure(
        basis=basis[:m].reshape(m, n, n).copy(),
        dimension=m,
        iterations=rounds,
        residual_kept_min=kept,
        residual_dropped_max=dropped,
    )


def transitive_on(c: LieClosure, window) -> bool:
    """Whether the closed algebra's group is transitive on the window's sphere.

    window is a half-open coordinate range (lo, hi); every basis element
    must preserve the window subspace.  The tangent rank is probed at the
    window's first standard basis vector and at a seeded random unit
    vector; the two verdicts must agree.  A one-coordinate window is never
    transitive: its sphere is two points, which a connected group fixes.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        lo = hi = None
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (lo, hi)):
        raise DomainError(f"window must be a pair of integers (lo, hi), got {window!r}")
    lo, hi = int(lo), int(hi)
    elements = c.basis
    n = elements.shape[1]
    if not (0 <= lo < hi <= n):
        raise DomainError(f"window {window} does not fit in dimension {n}")
    outside = np.r_[0:lo, hi:n].astype(int)
    if outside.size:
        spill = max(
            np.max(np.abs(elements[:, outside, :][:, :, lo:hi])),
            np.max(np.abs(elements[:, lo:hi, :][:, :, outside])),
        )
        if spill > DEFAULT_TOL:
            raise DomainError(f"window {window} is not invariant (spill {spill:.2e})")

    dim = hi - lo
    if dim == 1:
        return False
    x1 = np.zeros(n)
    x1[lo] = 1.0
    rng = np.random.default_rng(_PROBE_SEED)
    v = rng.standard_normal(dim)
    x2 = np.zeros(n)
    x2[lo:hi] = v / np.linalg.norm(v)

    # elements @ x holds one row of velocities per basis element
    verdicts = [_rank((elements @ x)[:, lo:hi])[0] == dim - 1 for x in (x1, x2)]
    if verdicts[0] != verdicts[1]:
        raise ProbeDisagreementError(
            f"tangent-rank probes disagree on window {window}: {verdicts}"
        )
    return verdicts[0]


def swap_matrix(p: Partition, inv: InvolutionSpec) -> np.ndarray:
    """Permutation matrix exchanging the two blocks coordinate-by-coordinate."""
    _check_swap(p, inv)
    starts = (0, *p.prefix_sums())
    oa, ob = starts[inv.block_a - 1], starts[inv.block_b - 1]
    t = np.eye(p.n)
    for i in range(inv.block_size):
        t[oa + i, oa + i] = t[ob + i, ob + i] = 0.0
        t[oa + i, ob + i] = t[ob + i, oa + i] = 1.0
    return t


def involution_normalizes(p: Partition, inv: InvolutionSpec) -> bool:
    """Check T X T^-1 stays in the block algebra's span for every basis X.

    A residual inside [DEFAULT_TOL/10, DEFAULT_TOL] raises IndeterminateError.
    """
    t = swap_matrix(p, inv)
    if np.max(np.abs(t @ t - np.eye(p.n))) > 0:
        raise NumericalError("swap matrix is not an involution")  # pragma: no cover
    basis = block_algebra(p)
    flat = basis.reshape(len(basis), -1)
    y = (t @ basis @ t).reshape(len(basis), -1)
    resid = y - (y @ flat.T) @ flat
    norms = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    _check_band(norms, DEFAULT_TOL, "normalizer residual")
    return bool(np.all(norms < DEFAULT_TOL))
