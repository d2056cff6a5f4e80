"""Residual norms: cheap boundary formulas and full-size cross-checks.

The cheap formulas evaluate the residual of a Galerkin solution from the
boundary blocks of the Arnoldi relation alone.  Writing the residual in the
orthonormal bases splits it into two blocks with orthogonal ranges and
co-ranges, so the Frobenius norm is the root of the sum of squares and the
spectral norm is the max of the two block norms; in the symmetric (Lyapunov)
case the two blocks coincide up to transposition, giving the sqrt(2) factor.

The ``true_residual_*`` helpers measure the residual of a factored approximate
solution at full problem size without ever forming an n x n matrix: the
residual is a short sum of outer products, so the R factor of a QR of the
stacked factors (``[A XL, XL, C]``, and ``[XR, B* XR, D]`` on the right)
reduces the norm to a small core (the norm does not depend on R's row signs,
so Q is never formed).  R comes from a row-blocked TSQR: the stacked factor
is built one row slice at a time, from the operator's rows in that slice,
and the slices' R factors are merged pairwise up a binary tree.  A slice
holds about ``_SLICE_COLUMNS`` columns' worth of n entries (at least
``_SLICE_ASPECT`` times the width in rows), so besides its inputs the check
holds a few n-columns and a few width-squared blocks per tree level, never
the ``2 r + s`` stacked full-length columns.  Operator applications here
are diagnostic and not charged to any counter.  ``explicit_residual_*``
form the dense residual outright and are meant for small-n verification
only.  Each R, like every norm's argument here, is scaled by an exact power
of two first, so no square under- or overflows.
"""

import numpy as np

from .linalg import _pow2_scaled

__all__ = [
    "residual_norm_sylv",
    "residual_norm_lyap",
    "true_residual_sylv",
    "true_residual_lyap",
    "explicit_residual_sylv",
    "explicit_residual_lyap",
]

# A row slice of a stacked factor holds about _SLICE_COLUMNS n-columns, and is
# at least _SLICE_ASPECT times as tall as the factor is wide, so that merging
# two R factors (a QR of 2 width x width) costs at most about half of what
# factoring the slices does.
_SLICE_COLUMNS = 4
_SLICE_ASPECT = 4


def _norm(M, norm):
    """``||M||``, taken of ``M`` scaled by a power of two so no square under- or overflows."""
    Ms, exp = _pow2_scaled(M)
    if norm == "frobenius":
        value = np.linalg.norm(Ms)
    elif norm == "spectral":
        value = np.linalg.norm(Ms, 2) if min(M.shape, default=0) else 0.0
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return float(np.ldexp(value, exp))


def residual_norm_sylv(H_boundary, G_boundary, Y, norm="frobenius"):
    """Residual norm of a projected Sylvester solve from the boundary blocks.

    ``Y`` is the projected solution (k*s_a) x (l*s_b); ``H_boundary`` is
    s_a x s_a, ``G_boundary`` is s_b x s_b.
    """
    sa = H_boundary.shape[0]
    sb = G_boundary.shape[0]
    low = H_boundary @ Y[-sa:, :]
    right = Y[:, -sb:] @ G_boundary.T
    if norm == "frobenius":
        return float(np.hypot(_norm(low, norm), _norm(right, norm)))
    return max(_norm(low, norm), _norm(right, norm))


def residual_norm_lyap(H_boundary, Y, norm="frobenius"):
    """Residual norm of a projected Lyapunov solve from the boundary block."""
    s = H_boundary.shape[0]
    low = H_boundary @ Y[-s:, :]
    if norm == "frobenius":
        return float(np.sqrt(2.0) * _norm(low, norm))
    return _norm(low, norm)


def _row_slices(n, width, min_height=1):
    """Slices of an n x ``width`` block's rows, about ``_SLICE_COLUMNS`` n-columns each."""
    height = max(-(-_SLICE_COLUMNS * n // max(width, 1)), min_height, 1)
    for start in range(0, n, height):
        yield slice(start, start + height)


def _stacked_r(n, width, rows_of):
    """R factor of the n x ``width`` matrix whose row slices ``rows_of(rows)`` returns.

    TSQR over a binary reduction tree (Demmel, Grigori, Hoemmen & Langou,
    SISC 2012): each slice's R is merged with the pending R of the same
    level, as in a binary counter, so one slice and at most log2(slices) + 1
    small R factors exist at a time and every row passes through that many
    QRs.  ``R.T @ R`` is the whole matrix's Gram matrix.  A flat chain (one
    more QR of the running R per slice) costs the same but was several times
    less accurate on the benchmark's Lyapunov residuals.
    """
    pending = []  # (R, level) with strictly decreasing levels
    for rows in _row_slices(n, width, _SLICE_ASPECT * width):
        R, level = np.linalg.qr(rows_of(rows), mode="r"), 0
        while pending and pending[-1][1] == level:
            R = np.linalg.qr(np.vstack([pending.pop()[0], R]), mode="r")
            level += 1
        pending.append((R, level))
    R = pending.pop()[0] if pending else np.zeros((0, width))
    while pending:
        R = np.linalg.qr(np.vstack([pending.pop()[0], R]), mode="r")
    return R


def true_residual_sylv(A, B, C, D, XL, XR, norm="frobenius"):
    """||A X + X B + C D*|| for X = XL XR* via row-blocked stacked-factor QR."""
    Bt = B.transpose()
    width = 2 * XL.shape[1] + C.shape[1]
    RL, el = _pow2_scaled(_stacked_r(
        A.n, width, lambda rows: np.hstack([A.apply_rows(XL, rows), XL[rows], C[rows]])))
    RR, er = _pow2_scaled(_stacked_r(
        A.n, width, lambda rows: np.hstack([XR[rows], Bt.apply_rows(XR, rows), D[rows]])))
    return float(np.ldexp(_norm(RL @ RR.T, norm), el + er))


def true_residual_lyap(A, C, XL, S, norm="frobenius"):
    """||A X + X A* + C C*|| for X = XL S XL* via row-blocked stacked-factor QR."""
    r = XL.shape[1]
    s = C.shape[1]
    R, e = _pow2_scaled(_stacked_r(
        A.n, 2 * r + s, lambda rows: np.hstack([A.apply_rows(XL, rows), XL[rows], C[rows]])))
    K = np.zeros((2 * r + s, 2 * r + s))
    K[:r, r : 2 * r] = S
    K[r : 2 * r, :r] = S
    K[2 * r :, 2 * r :] = np.eye(s)
    return float(np.ldexp(_norm(R @ K @ R.T, norm), 2 * e))


def explicit_residual_sylv(A, B, C, D, X, norm="frobenius"):
    """Dense residual of an explicitly formed X (small-n verification)."""
    R = A.apply(X) + B.transpose().apply(X.T).T + C @ D.T
    return _norm(R, norm)


def explicit_residual_lyap(A, C, X, norm="frobenius"):
    R = A.apply(X) + A.apply(X.T).T + C @ C.T
    return _norm(R, norm)
