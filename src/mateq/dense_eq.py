"""Direct solvers for the small projected matrix equations.

``solve_sylvester_dense`` runs the Bartels-Stewart method (real Schur forms
plus back substitution, via LAPACK's ``trsyl``).  ``solve_lyapunov_ldlt``
takes one of two routes, chosen by its coefficient: an exactly symmetric H
(``H == H.T`` entry for entry: the block Lanczos matrix of ``sksm_two_pass``,
and the ``0.5 (H + H.T)`` that ``restarted_lyap`` and ``eksm_lyap`` pass for
an operator flagged symmetric) is solved in closed form from one symmetric
eigendecomposition; any other H goes through Bartels-Stewart.  Both routes
pass the same post-solve checks.  ``kron_oracle`` is the independent
brute-force reference: it assembles the Kronecker-lifted linear system and
solves it densely.  It takes an entirely different code path so it can check
the other two in tests.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, SingularOperatorError
from .linalg import _as_matrix, check_symmetric

__all__ = ["solve_sylvester_dense", "solve_lyapunov_ldlt", "kron_oracle"]


def solve_sylvester_dense(H, G, F):
    """Solve H @ Y + Y @ G.T + F = 0 for Y.

    ``H`` is k x k, ``G`` is l x l, ``F`` is k x l (Y comes out k x l).
    Raises :class:`SingularOperatorError` when the spectra of H and -G*
    collide, detected through the residual of the computed solution.
    """
    H = _as_matrix(H, "H")
    G = _as_matrix(G, "G")
    F = _as_matrix(F, "F")
    k, l = H.shape[0], G.shape[0]
    if H.shape != (k, k) or G.shape != (l, l) or F.shape != (k, l):
        raise DimensionMismatchError(
            f"incompatible shapes H{H.shape}, G{G.shape}, F{F.shape}"
        )
    if F.size == 0:
        return np.zeros((k, l))
    try:
        Y = scipy.linalg.solve_sylvester(H, G.T, -F)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularOperatorError(f"Bartels-Stewart solve failed: {exc}") from exc
    _check_solution(H, G, F, Y, "Bartels-Stewart")
    return Y


def _check_solution(H, G, F, Y, method):
    """Raise :class:`SingularOperatorError` unless Y solves H Y + Y G* + F = 0.

    Catches non-finite entries, a 1/eps-scale solution (the solve divided by
    a (near-)zero eigenvalue sum of H and G) and a large solve residual.
    """
    if not np.isfinite(Y).all():
        raise SingularOperatorError(f"{method} produced non-finite entries")
    coeff = np.linalg.norm(H) + np.linalg.norm(G)
    nY = np.linalg.norm(Y)
    nF = np.linalg.norm(F)
    if nY * 1e-13 * coeff > nF:
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: ||Y|| = {nY:.3e} for ||F|| = {nF:.3e}"
        )
    resid = np.linalg.norm(H @ Y + Y @ G.T + F)
    if resid > 1e-8 * max(coeff * nY + nF, 1e-300):
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: solve residual {resid:.3e}"
        )


def solve_lyapunov_ldlt(H, Ctil, S):
    """Solve H @ Y + Y @ H.T + Ctil @ S @ Ctil.T = 0 for symmetric Y.

    ``S`` is a small symmetric middle factor (possibly indefinite).  When H
    is exactly symmetric, one eigendecomposition H = Q diag(lam) Q* gives Y
    in closed form: with G = Q* Ctil, Y = -Q ((G S G*) / (lam_i + lam_j)) Q*.
    Otherwise the right-hand side is formed densely and handed to
    Bartels-Stewart with the second coefficient equal to H.  Either way the
    result is symmetrized to remove roundoff drift, and a spectrum of H that
    meets its own negative raises :class:`SingularOperatorError` unless the
    right-hand side is consistent with it.
    """
    H = _as_matrix(H, "H")
    Ctil = _as_matrix(Ctil, "Ctil")
    S = _as_matrix(S, "S")
    k = H.shape[0]
    p = Ctil.shape[1]
    if H.shape != (k, k) or Ctil.shape[0] != k or S.shape != (p, p):
        raise DimensionMismatchError(
            f"incompatible shapes H{H.shape}, Ctil{Ctil.shape}, S{S.shape}"
        )
    check_symmetric(S, "S")
    S = 0.5 * (S + S.T)
    W = Ctil @ S @ Ctil.T
    W = 0.5 * (W + W.T)
    if not np.array_equal(H, H.T):
        Y = solve_sylvester_dense(H, H, W)
        return 0.5 * (Y + Y.T)
    # eigenvector signs and order cancel in Y, so linalg.eig_sym's
    # conventions would buy nothing here
    lam, Q = np.linalg.eigh(H)
    G = Q.T @ Ctil
    M = G @ S @ G.T
    denom = -(lam[:, None] + lam[None, :])
    # an exactly zero eigenvalue sum gets the zero entry, as trsyl's perturbed
    # pivot does; the residual check rejects it unless that entry of M is zero
    Z = np.divide(M, denom, out=np.zeros_like(M), where=denom != 0)
    Y = Q @ Z @ Q.T
    Y = 0.5 * (Y + Y.T)
    _check_solution(H, H, W, Y, "symmetric eigensolve")
    return Y


def kron_oracle(A, B, RHS):
    """Brute-force reference solve of A @ X + X @ B + RHS = 0.

    Assembles ``kron(I, A) + kron(B.T, I)`` and solves the stacked linear
    system directly.  Guarded to coefficient dimensions <= 64; intended as
    the ground truth for small-instance tests only.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    RHS = _as_matrix(RHS, "RHS")
    k, l = A.shape[0], B.shape[0]
    if A.shape != (k, k) or B.shape != (l, l) or RHS.shape != (k, l):
        raise DimensionMismatchError(
            f"incompatible shapes A{A.shape}, B{B.shape}, RHS{RHS.shape}"
        )
    if max(k, l) > 64:
        raise ValueError(f"kron_oracle is for test-scale problems (<= 64), got {max(k, l)}")
    K = np.kron(np.eye(l), A) + np.kron(B.T, np.eye(k))
    try:
        x = np.linalg.solve(K, -RHS.reshape(k * l, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"Kronecker system singular: {exc}") from exc
    return x.reshape((k, l), order="F")
