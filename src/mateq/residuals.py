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
stacked factors reduces the norm to a small core (the norm does not depend
on R's row signs, so Q is never formed).  Operator applications here are
diagnostic and not charged to any counter.  ``explicit_residual_*`` form the
dense residual outright and are meant for small-n verification only.
"""

import numpy as np

__all__ = [
    "residual_norm_sylv",
    "residual_norm_lyap",
    "true_residual_sylv",
    "true_residual_lyap",
    "explicit_residual_sylv",
    "explicit_residual_lyap",
]


def _norm(M, norm):
    if norm == "frobenius":
        return float(np.linalg.norm(M))
    if norm == "spectral":
        if min(M.shape, default=0) == 0:
            return 0.0
        return float(np.linalg.norm(M, 2))
    raise ValueError(f"unknown norm {norm!r}")


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
        return float(np.hypot(np.linalg.norm(low), np.linalg.norm(right)))
    return max(_norm(low, norm), _norm(right, norm))


def residual_norm_lyap(H_boundary, Y, norm="frobenius"):
    """Residual norm of a projected Lyapunov solve from the boundary block."""
    s = H_boundary.shape[0]
    low = H_boundary @ Y[-s:, :]
    if norm == "frobenius":
        return float(np.sqrt(2.0) * np.linalg.norm(low))
    return _norm(low, norm)


def true_residual_sylv(A, B, C, D, XL, XR, norm="frobenius"):
    """||A X + X B + C D*|| for X = XL XR* via stacked-factor QR."""
    Bt = B.transpose()
    WL = np.hstack([A.apply(XL) if XL.shape[1] else XL, XL, C])
    WR = np.hstack([XR, Bt.apply(XR) if XR.shape[1] else XR, D])
    RL = np.linalg.qr(WL, mode="r")
    RR = np.linalg.qr(WR, mode="r")
    return _norm(RL @ RR.T, norm)


def true_residual_lyap(A, C, XL, S, norm="frobenius"):
    """||A X + X A* + C C*|| for X = XL S XL* via stacked-factor QR."""
    r = XL.shape[1]
    s = C.shape[1]
    W = np.hstack([A.apply(XL) if r else XL, XL, C])
    R = np.linalg.qr(W, mode="r")
    K = np.zeros((2 * r + s, 2 * r + s))
    K[:r, r : 2 * r] = S
    K[r : 2 * r, :r] = S
    K[2 * r :, 2 * r :] = np.eye(s)
    return _norm(R @ K @ R.T, norm)


def explicit_residual_sylv(A, B, C, D, X, norm="frobenius"):
    """Dense residual of an explicitly formed X (small-n verification)."""
    R = A.apply(X) + B.transpose().apply(X.T).T + C @ D.T
    return _norm(R, norm)


def explicit_residual_lyap(A, C, X, norm="frobenius"):
    R = A.apply(X) + A.apply(X.T).T + C @ C.T
    return _norm(R, norm)
