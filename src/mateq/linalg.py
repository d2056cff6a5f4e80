"""Dense decomposition kernels used throughout the package.

All kernels work on real ``float64`` matrices, reject non-finite input, and
fix deterministic sign conventions (nonnegative R diagonal in QR, first
nonzero component of each singular/eigen vector nonnegative) so that repeated
runs produce bitwise identical factors.  The heavy lifting is delegated to
LAPACK through numpy/scipy; these wrappers only add the contracts.

The hot path, :func:`orthonormalize_block` included, stays on numpy's BLAS:
mixing in scipy's makes two OpenBLAS thread pools contend for the cores.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NonConvergenceError

__all__ = ["qr_economy", "orthonormalize_block", "svd", "eig_sym", "real_schur",
           "check_symmetric"]


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def check_symmetric(M, name="matrix"):
    """Raise ``ValueError`` if ``||M - M.T||_F`` exceeds ``1e-12 * ||M||_F``."""
    nrm = np.linalg.norm(M)
    asym = np.linalg.norm(M - M.T)
    if asym > 1e-12 * max(nrm, 1e-300):
        raise ValueError(
            f"{name} is not symmetric: ||{name} - {name}.T|| = {asym:.3e}, ||{name}|| = {nrm:.3e}"
        )


def _fix_vector_signs(U, *companions):
    """Flip column signs so the first nonzero component of each column is >= 0.

    "Nonzero" means above ``1e-12`` times the column's largest magnitude.
    ``companions`` receive the same flips on their rows (for V* in an SVD).
    """
    U = np.array(U, copy=True)
    out = [np.array(c, copy=True) for c in companions]
    if U.shape[0] == 0:
        return (U, *out) if out else U
    mag = np.abs(U)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = U[first, np.arange(U.shape[1])] < 0
    U[:, flip] = -U[:, flip]
    for c in out:
        c[flip, :] = -c[flip, :]
    return (U, *out) if out else U


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


def orthonormalize_block(U, W):
    """Orthonormalize the column block ``W`` against the orthonormal ``U``, in place.

    Returns ``(P, R)``: ``W`` then holds ``Q`` with ``[U, Q]`` orthonormal,
    ``W_in = U @ P + Q @ R`` and R upper triangular, diagonal >= 0.  The QR
    factor of the projected ``W`` leans on ``U`` by ``G = U.T @ Q``, far above
    roundoff when ``W`` nearly lies in ``span(U)``; one more projection leaves
    ``||G||**2``, and only a lean above ``1e-7`` is factored again
    (Carson, Lund, Rozloznik & Thomas, LAA 2022).  ``U @ P`` goes into one
    scratch block, not a fresh temporary.
    """
    buf = np.empty_like(W)
    P = U.T @ W
    W -= np.matmul(U, P, out=buf)
    Q, R = _qr_reduced_signed(W)
    G = U.T @ Q
    Q -= np.matmul(U, G, out=buf)
    P += G @ R  # W_in = U P + Q R still holds
    if np.linalg.norm(G) > 1e-7:
        Q, Rg = _qr_reduced_signed(Q)
        R = Rg @ R
    W[...] = Q
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
    Msym = 0.5 * (M + M.T)
    try:
        lam, W = np.linalg.eigh(Msym)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(-lam, kind="stable")  # stable: ties keep eigh's order
    lam = lam[order]
    W = _fix_vector_signs(W[:, order])
    return W, lam


def real_schur(M):
    """Real Schur form M = Q @ T @ Q.T with quasi-triangular T."""
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"real_schur needs a square matrix, got {M.shape}")
    try:
        T, Q = scipy.linalg.schur(M, output="real")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare QR-iteration failure
        raise NonConvergenceError(f"Schur QR iteration did not converge: {exc}") from exc
    return Q, T
