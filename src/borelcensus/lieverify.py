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
    # the pairs a < b inside one block, in block order, then a, then b
    block = np.repeat(np.arange(len(p.parts)), p.parts)
    i = np.arange(p.n)
    a, b = np.nonzero((block[:, None] == block) & (i[:, None] < i))
    k = np.arange(len(a))
    mats = np.zeros((len(a), p.n, p.n))
    mats[k, a, b] = 1.0 / np.sqrt(2.0)
    mats[k, b, a] = -1.0 / np.sqrt(2.0)
    return mats


def _check_stack(b, what):
    """Refuse anything but a real (k, n, n) array."""
    square = isinstance(b, np.ndarray) and b.ndim == 3 and b.shape[1] == b.shape[2]
    if not square or b.dtype.kind not in "iuf":
        raise DomainError(
            f"{what} must be a real (k, n, n) array, got {type(b).__name__} "
            f"of shape {getattr(b, 'shape', None)}"
        )


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


def _pack(x, n, upper, lower):
    """The rows sqrt(2) X[upper, lower] of the (k, n, n) matrices X in x."""
    return np.sqrt(2.0) * np.take(x.reshape(len(x), -1), upper * n + lower, axis=1)


def _unpack(rows, n, upper, lower):
    """Skew matrices with rows at their (upper, lower) entries, shape (k, n, n)."""
    x = np.zeros((len(rows), n, n))
    x[:, upper, lower] = rows
    x[:, lower, upper] = -rows
    return x


def _project_out(rows, basis):
    """Project rows twice out of span(basis); drop rows left below DEFAULT_TOL/10.

    basis holds orthonormal rows, and each pass is the
    one pair of matrix products rows - (rows basis^T) basis, a single row
    included: a separate rank-1 update gave the same bits and no gain.
    Returns the kept rows, their norms and the largest norm dropped (0.0
    if none).  A projection never lengthens a row, so a dropped row could
    never have been accepted later.
    """
    dropped = 0.0
    for _ in range(2):
        rows = rows - (rows @ basis.T) @ basis
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        keep = norms >= DEFAULT_TOL / 10.0
        if not keep.all():
            dropped = max(dropped, float(norms[~keep].max()))
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
        if norms[i] <= DEFAULT_TOL:  # rows below DEFAULT_TOL/10 are gone already
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

    The kernel works in packed coordinates: a skew X is the row of
    sqrt(2) X[a, c] over a < c, n(n-1)/2 floats.  That map keeps the
    Frobenius product, so residuals and margins mean what they would on
    full matrices.  A slice of brackets is one matrix product: f frontier
    elements stacked as an (f n, n) matrix times s elements of G side by
    side as an (n, s n) one gives every product XY.  Since YX = (XY)^T
    for skew X and Y, the packed row of [X, Y] is sqrt(2) (XY[a, c] -
    XY[c, a]) over a < c.  The basis is unpacked to (m, n, n) matrices,
    exactly skew, at the end.
    """
    _check_stack(b1, "the first basis")
    _check_stack(b2, "the second basis")
    n = b1.shape[1]
    if b2.shape[1] != n:
        raise DomainError(f"bases live in different dimensions: {n} vs {b2.shape[1]}")
    for which, b in (("first", b1), ("second", b2)):
        if not len(b):
            raise DomainError(f"the {which} basis is empty; closure needs at least one element")
        _check_skew(b)
        _check_orthonormal(b.reshape(-1, n * n))
    big, small = (b2, b1) if len(b2) > len(b1) else (b1, b2)
    upper, lower = np.triu_indices(n, 1)
    full = n * (n - 1) // 2
    basis = np.zeros((full, full))
    m = len(big)  # at most full, since big is orthonormal
    basis[:m] = _pack(big, n, upper, lower)
    # a seed element joins with its norm as its residual
    kept = float(np.sqrt(np.einsum("ij,ij->i", basis[:m], basis[:m]).min()))
    m, k, dropped = _accept(basis, m, _pack(small, n, upper, lower))
    kept = min(kept, k)
    lo, rounds = 0, 0
    while lo < m < full:
        rounds += 1
        hi = m
        step = max(1, _BATCH_FLOATS // ((hi - lo) * n * n))
        # packed rows unpack to sqrt(2) X, so the products come out packed-scaled
        frontier = _unpack(basis[lo:hi], n, upper, lower)
        if not lo:
            # the first frontier is G; side by side, [G_0 | G_1 | ...], shape (n, |G| n)
            size_g = hi
            g = frontier.transpose(1, 0, 2).reshape(n, -1) / np.sqrt(2.0)
        for start in range(0, size_g, step):
            # [X, Y] = -[Y, X]: the first round, whose frontier is G, pairs
            # element i only with generators j <= i; later frontiers lie past G
            f = frontier[max(lo, start) - lo :]
            xy = f.reshape(-1, n) @ g[:, start * n : (start + step) * n]
            # row i of xy is X_i [Y_j | Y_j+1 | ...], so entry (a, c) of X_i Y_j
            # sits at a w + j n + c, w the slice's width
            w = xy.shape[1]
            at = np.arange(0, w, n)[:, None]
            xy = xy.reshape(len(f), -1)
            brackets = np.take(xy, (upper * w + lower + at).ravel(), axis=1)
            brackets -= np.take(xy, (lower * w + upper + at).ravel(), axis=1)
            m, k, d = _accept(basis, m, brackets.reshape(-1, full))
            kept, dropped = min(kept, k), max(dropped, d)
            if m == full:
                break
        lo = hi
    return LieClosure(
        basis=_unpack(basis[:m] / np.sqrt(2.0), n, upper, lower),
        dimension=m,
        iterations=rounds,
        residual_kept_min=kept,
        residual_dropped_max=dropped,
    )


def transitive_on(c: LieClosure, window) -> bool:
    """Whether the closed algebra's group is transitive on the window's sphere.

    window is a half-open coordinate range (lo, hi); every basis element
    must preserve the window subspace.  The group of a closed algebra is
    connected, so any one point of the sphere decides: the tangent rank is
    full exactly where the orbit is open, and an open orbit of a compact
    group is also closed, so it is the whole (connected) sphere.  The rank
    is probed at the window's first standard basis vector and, as a
    cross-check, at the fixed unit vector along (1, 2, ..., hi - lo); the
    two verdicts of a basis that is not closed may differ, which raises
    ProbeDisagreementError.  A one-coordinate window is never
    transitive: its sphere is two points, which a connected group fixes.
    The closure's basis must be a real (k, n, n) array, else DomainError;
    with k = 0, the zero algebra, no sphere is transitive.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        lo = hi = None
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (lo, hi)):
        raise DomainError(f"window must be a pair of integers (lo, hi), got {window!r}")
    lo, hi = int(lo), int(hi)
    elements = c.basis
    _check_stack(elements, "the closure's basis")
    n = elements.shape[1]
    if not (0 <= lo < hi <= n):
        raise DomainError(f"window {window} does not fit in dimension {n}")
    # the window is invariant when no element couples a coordinate inside
    # it with one outside
    inside = (lo <= np.arange(n)) & (np.arange(n) < hi)
    spill = float(np.max(np.abs(elements[:, inside[:, None] != inside]), initial=0.0))
    if spill > DEFAULT_TOL:
        raise DomainError(f"window {window} is not invariant (spill {spill:.2e})")

    dim = hi - lo
    if dim == 1:
        return False
    v = np.arange(1.0, dim + 1)
    # one row of velocities per basis element, at the window's first
    # coordinate vector and at v; the zero algebra has none, rank 0 < dim - 1
    block = elements[:, lo:hi, lo:hi]
    probes = (block[:, :, 0], block @ (v / np.linalg.norm(v)))
    verdicts = [_rank(x)[0] == dim - 1 for x in probes]
    if verdicts[0] != verdicts[1]:
        raise ProbeDisagreementError(
            f"tangent-rank probes disagree on window {window}: {verdicts}"
        )
    return verdicts[0]


def _swap_permutation(p, inv):
    """Coordinate index permutation exchanging the two blocks, an involution."""
    _check_swap(p, inv)
    starts = (0, *p.prefix_sums())
    oa, ob, size = starts[inv.block_a - 1], starts[inv.block_b - 1], inv.block_size
    perm = list(range(p.n))
    perm[oa : oa + size], perm[ob : ob + size] = perm[ob : ob + size], perm[oa : oa + size]
    return perm


def swap_matrix(p: Partition, inv: InvolutionSpec) -> np.ndarray:
    """Permutation matrix exchanging the two blocks coordinate-by-coordinate."""
    return np.eye(p.n)[_swap_permutation(p, inv)]


def involution_normalizes(p: Partition, inv: InvolutionSpec) -> bool:
    """Check T X T^-1 stays in the block algebra's span for every basis X.

    Each T X T^-1 is projected out of the span as closure projects its
    brackets.  A residual inside [DEFAULT_TOL/10, DEFAULT_TOL] raises
    IndeterminateError.
    """
    perm = _swap_permutation(p, inv)
    basis = block_algebra(p)
    y = basis[:, perm][:, :, perm]
    _, norms, _ = _project_out(y.reshape(len(y), -1), basis.reshape(len(basis), -1))
    _check_band(norms, DEFAULT_TOL, "normalizer residual")
    return not len(norms)
