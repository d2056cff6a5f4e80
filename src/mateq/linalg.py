"""Dense decomposition kernels used throughout the package.

All kernels work on real ``float64`` matrices and fix deterministic sign
conventions (nonnegative R diagonal in QR, first nonzero component of each
singular/eigen vector nonnegative) so that repeated runs produce bitwise
identical factors; :func:`qr_economy`, :func:`svd` and :func:`eig_sym` also
reject non-finite input.  The heavy lifting is delegated to LAPACK; these
wrappers only add the contracts.

:func:`orthonormalize_block`, the one block Gram-Schmidt step of every Krylov
basis, factors its block by Cholesky QR (:func:`_cholesky_qr`, a pass block
CG shares): a Gram matrix, its Cholesky factor and one product with the
factor's inverse, a fraction of a Householder QR's cost on blocks a few
dozen columns wide.  Two passes and two projections make the block
orthonormal; a third pass runs only when the second projection removed
more than a negligible lean or the second pass's factor is far from the
identity.  A Householder QR stands in only where the Cholesky
factorization fails.

One helper, :func:`_cholesky_factors`, factors every small SPD matrix with
LAPACK's ``potrf`` and ``trtri`` through scipy: on matrices a few rows wide
numpy's wrappers cost several times the arithmetic, and OpenBLAS runs them
on the calling thread alone.  Every product with n rows stays on numpy's
BLAS, so the inverse factor is applied by ``np.matmul``, not by scipy's
triangular solve: n-row products that mix in scipy's BLAS make two OpenBLAS
thread pools contend for the cores.
"""

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import DimensionMismatchError, NonConvergenceError

__all__ = ["qr_economy", "orthonormalize_block", "svd", "eig_sym", "check_symmetric"]


def _all_finite(M):
    """Whether ``M`` is all finite, without an entry-sized mask.

    A non-finite entry makes the sum non-finite; only when finite entries
    overflow it (with a numpy warning) do min and max decide, which NaN
    reaches too.  One reduction costs less than ``isfinite(M).all()``.
    """
    return math.isfinite(M.sum()) or (math.isfinite(M.min()) and math.isfinite(M.max()))


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not _all_finite(M):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _pow2_scaled(M):
    """``(M * 2**-e, e)`` with ``2**e`` the power of two nearest above ``max|M|``.

    The scaling is exact, so norms and products of the scaled array neither
    underflow nor overflow where ``M``'s would; a zero ``M`` comes back with
    ``e = 0``.
    """
    top = np.abs(M).max(initial=0.0)
    exp = int(np.frexp(top)[1]) if top > 0.0 else 0
    return np.ldexp(M, -exp), exp


def check_symmetric(M, name="matrix"):
    """Raise ``ValueError`` if ``||M - M.T||_F`` exceeds ``1e-12 * ||M||_F``.

    Both norms are taken of ``M`` scaled exactly by a power of two
    (:func:`_pow2_scaled`), so they neither underflow nor overflow at extreme
    scales; a zero matrix is symmetric.
    """
    Ms, exp = _pow2_scaled(M)
    nrm = np.linalg.norm(Ms)
    asym = np.linalg.norm(Ms - Ms.T)
    if asym > 1e-12 * nrm:
        raise ValueError(
            f"{name} is not symmetric: ||{name} - {name}.T|| = {np.ldexp(asym, exp):.3e}, "
            f"||{name}|| = {np.ldexp(nrm, exp):.3e}"
        )


def _fix_vector_signs(U, *companions):
    """Flip column signs in place so the first nonzero component of each column is >= 0.

    "Nonzero" means above ``1e-12`` times the column's largest magnitude.
    ``companions`` receive the same flips on their rows (for V* in an SVD).
    Returns the arrays it was given.  The only temporaries of ``U``'s shape
    are two boolean masks: no magnitude array and no copy of the columns.
    """
    if U.shape[0] > 0:
        tol = 1e-12 * np.maximum(U.max(axis=0), -U.min(axis=0))  # max |U| per column
        big = U > tol
        big |= U < -tol
        first = np.argmax(big, axis=0)
        sign = np.where(U[first, np.arange(U.shape[1])] < 0, -1.0, 1.0)
        U *= sign  # multiplying by +-1 is exact
        for c in companions:
            c *= sign[:, None]
    return (U, *companions) if companions else U


def _qr_reduced_signed(M):
    """Reduced QR with nonnegative R diagonal; no shape restriction."""
    Q, R = np.linalg.qr(M, mode="reduced")
    d = np.sign(np.diagonal(R)).copy()
    d[d == 0] = 1.0
    Q *= d
    R *= d[:, None]
    return Q, R


def qr_economy(M):
    """Economy-size QR decomposition of a tall matrix.

    Parameters
    ----------
    M : (n, k) array_like, n >= k

    Returns
    -------
    Q : (n, k) ndarray with orthonormal columns
    R : (k, k) ndarray, upper triangular with nonnegative diagonal
    """
    M = _as_matrix(M, "M")
    n, k = M.shape
    if n < k:
        raise DimensionMismatchError(f"economy QR needs n >= k, got {M.shape}")
    return _qr_reduced_signed(M)


def _cholesky_factors(M):
    """``(L, inv(L))`` for the lower Cholesky factor L of a small SPD matrix ``M``.

    Reads ``M``'s lower triangle.  Returns ``None`` where the factorization
    fails (LAPACK ``info > 0``: ``M`` is not numerically positive definite);
    callers decide what that means.
    """
    if not len(M):  # trtri rejects an empty matrix and says so on stdout
        return M, M
    lo, info = dpotrf(M, lower=1)
    if info > 0:
        return None
    return lo, dtrtri(lo, lower=1)[0]


def _cholesky_qr(W, gram, out):
    """One Cholesky-QR pass: ``out`` becomes ``W @ inv(R)``; returns R.

    R is the transposed Cholesky factor of ``gram``, the caller's Gram matrix
    of ``W``.  Where the factorization fails, a Householder QR of ``W`` takes
    its place.
    """
    factors = _cholesky_factors(gram)
    if factors is None:
        Q, R = _qr_reduced_signed(W)
        out[...] = Q
        return R
    lo, lo_inv = factors
    np.matmul(W, lo_inv.T, out=out)
    return lo.T


def orthonormalize_block(U, W):
    """Orthonormalize the column block ``W`` against the orthonormal ``U``, in place.

    Returns ``(P, R)``: ``W`` then holds ``Q`` with ``[U, Q]`` orthonormal,
    ``W_in = U @ P + Q @ R`` and R upper triangular, diagonal >= 0.  Block
    CGS2 with Cholesky QR (Carson, Lund, Rozloznik & Thomas, LAA 2022):
    project ``W`` against ``U``, factor it by a shifted then a plain
    Cholesky-QR pass, project once more to remove the lean ``G = U.T @ Q``
    that the first projection's roundoff leaves when ``W`` nearly lies in
    ``span(U)``, and end with one more plain pass only where that can change
    more than roundoff.  After the second projection ``W`` holds
    ``Q - U G``, whose Gram matrix is ``I - G.T G`` to roundoff when ``Q`` is
    orthonormal, so the last pass is skipped when ``||G||_F <= 1e-8`` and the
    second pass's factor ``R2`` has ``||R2 - I||_F <= 1e-4``.  ``||G||``
    alone does not suffice: after the shifted pass on an ill-conditioned
    block ``Q`` itself can be far from orthonormal, and ``R2`` far from I
    says so.  The shift adds
    ``11 (n s + s (s + 1)) u tr(W.T W)`` to the first Gram matrix's diagonal
    (u the unit roundoff; Fukaya et al., SISC 2020), so that pass factors
    blocks with condition numbers up to about ``1 / u``.  R is the product of
    the passes' triangular factors.  A Householder QR stands in for a pass
    whose Cholesky factorization fails, which happens only beyond condition
    numbers of about ``1 / u``, near a happy breakdown, or on a rank-deficient
    block.  Besides ``P`` and s x s matrices, the step allocates one scratch
    block like ``W``; products and passes alternate between the two.  An
    empty ``W`` (s = 0) gives a k x 0 ``P`` and a 0 x 0 ``R``.
    """
    n, s = W.shape
    buf = np.empty_like(W)
    P = U.T @ W
    W -= np.matmul(U, P, out=buf)
    u = np.finfo(float).eps / 2
    gram = W.T @ W
    gram.flat[:: s + 1] += 11 * (n * s + s * (s + 1)) * u * np.trace(gram)
    R = _cholesky_qr(W, gram, buf)
    R2 = _cholesky_qr(buf, buf.T @ buf, W)
    R = R2 @ R
    G = U.T @ W
    W -= np.matmul(U, G, out=buf)
    P += G @ R  # W_in = U P + Q R still holds
    if np.linalg.norm(G) > 1e-8 or np.linalg.norm(R2 - np.eye(s)) > 1e-4:
        R = _cholesky_qr(W, W.T @ W, buf) @ R
        W[...] = buf
    return P, R


def svd(M):
    """Singular value decomposition M = U @ diag(s) @ Vt.

    Singular values are nonincreasing; the first nonzero component of every
    left singular vector is nonnegative (Vt is flipped accordingly).
    """
    M = _as_matrix(M, "M")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"SVD did not converge: {exc}") from exc
    U, Vt = _fix_vector_signs(U, Vt)
    return U, s, Vt


def eig_sym(M):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized internally; asymmetry beyond ``1e-12`` relative
    is rejected.  Returns ``(W, lam)`` with ``M ~= W @ diag(lam) @ W.T``.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"eig_sym needs a square matrix, got {M.shape}")
    check_symmetric(M, "M")
    try:
        lam, W = np.linalg.eigh(0.5 * (M + M.T))  # the symmetrized copy dies here
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(-lam, kind="stable")  # stable: ties keep eigh's order
    W = W[:, order]
    return _fix_vector_signs(W), lam[order]

