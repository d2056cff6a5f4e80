"""Direct solvers for the small projected matrix equations.

``solve_sylvester_dense`` runs the Bartels-Stewart method (real Schur forms
plus back substitution, via LAPACK's ``trsyl``).  ``kron_oracle`` is the
independent brute-force reference: it assembles the Kronecker-lifted linear
system and solves it densely.  The two take entirely different code paths so
they can check each other in tests.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, SingularOperatorError
from .linalg import _as_matrix

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
    if not np.isfinite(Y).all():
        raise SingularOperatorError("Bartels-Stewart produced non-finite entries")
    coeff = np.linalg.norm(H) + np.linalg.norm(G)
    nY = np.linalg.norm(Y)
    nF = np.linalg.norm(F)
    # a 1/eps-scale solution means trsyl perturbed a (near-)zero eigenvalue sum
    if nY * 1e-13 * coeff > nF:
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: ||Y|| = {nY:.3e} for ||F|| = {nF:.3e}"
        )
    resid = np.linalg.norm(H @ Y + Y @ G.T + F)
    if resid > 1e-8 * max(coeff * nY + nF, 1e-300):
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: solve residual {resid:.3e}"
        )
    return Y


def solve_lyapunov_ldlt(H, Ctil, S):
    """Solve H @ Y + Y @ H.T + Ctil @ S @ Ctil.T = 0 for symmetric Y.

    ``S`` is a small symmetric middle factor (possibly indefinite); the
    right-hand side is formed densely and handed to Bartels-Stewart with the
    second coefficient equal to H.  The result is symmetrized to remove
    roundoff drift.
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
    nS = np.linalg.norm(S)
    if np.linalg.norm(S - S.T) > 1e-12 * max(nS, 1e-300):
        raise ValueError("middle factor S must be symmetric")
    W = Ctil @ (0.5 * (S + S.T)) @ Ctil.T
    W = 0.5 * (W + W.T)
    Y = solve_sylvester_dense(H, H, W)
    return 0.5 * (Y + Y.T)


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
