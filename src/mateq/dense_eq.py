"""Direct solvers for the small projected matrix equations.

``solve_sylvester_dense`` runs the Bartels-Stewart method (real Schur forms
plus back substitution, via LAPACK's ``trsyl``).  A projected Lyapunov
equation is solved by :class:`ProjectedLyapunov`, which takes one of two
routes, chosen by its coefficient: an exactly symmetric H (``H == H.T``
entry for entry: the block Lanczos matrix of ``sksm_two_pass``, and the
``0.5 (H + H.T)`` that ``restarted_lyap`` and ``eksm_lyap`` pass for an
operator flagged symmetric) is solved in closed form from one symmetric
eigendecomposition; any other H goes through Bartels-Stewart.  On the eigh
route the object returns the last block row of the solution, all that the
cheap residual reads, without forming the rest, and forms and checks the
whole solution only when asked; the Krylov drivers ask once, when a cycle
(or pass) stops.  ``solve_lyapunov_ldlt`` returns that whole solution in
one call.  ``kron_oracle`` is the independent brute-force reference: it
assembles the Kronecker-lifted linear system and solves it densely.  It
takes an entirely different code path so it can check the other two in
tests.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, SingularOperatorError
from .linalg import _all_finite, _as_matrix, check_symmetric

__all__ = ["solve_sylvester_dense", "ProjectedLyapunov", "solve_lyapunov_ldlt", "kron_oracle"]


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


def _check_size(Y, nF, coeff, method):
    """Raise :class:`SingularOperatorError` on a non-finite or 1/eps-scale solution.

    ``nF`` is the right-hand side's Frobenius norm and ``coeff`` the sum of
    the coefficients' norms; a solution that large means the solve divided
    by a (near-)zero eigenvalue sum of its coefficients.  Returns ``||Y||_F``.
    """
    if not _all_finite(Y):
        raise SingularOperatorError(f"{method} produced non-finite entries")
    nY = np.linalg.norm(Y)
    if nY * 1e-13 * coeff > nF:
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: ||Y|| = {nY:.3e} for ||F|| = {nF:.3e}"
        )
    return nY


def _check_solution(H, G, F, Y, method):
    """Raise :class:`SingularOperatorError` unless Y solves H Y + Y G* + F = 0.

    Catches non-finite entries, a 1/eps-scale solution (:func:`_check_size`)
    and a large solve residual.
    """
    coeff = np.linalg.norm(H) + np.linalg.norm(G)
    nF = np.linalg.norm(F)
    nY = _check_size(Y, nF, coeff, method)
    lhs = H @ Y  # accumulated in place: one k x l temporary fewer
    lhs += Y @ G.T
    lhs += F
    resid = np.linalg.norm(lhs)
    if resid > 1e-8 * max(coeff * nY + nF, 1e-300):
        raise SingularOperatorError(
            f"Sylvester operator numerically singular: solve residual {resid:.3e}"
        )


class ProjectedLyapunov:
    """Solution of the projected equation H Y + Y H* + (E_1 R0) S (E_1 R0)* = 0.

    ``R0`` is the head of the right-hand-side factor ``Ctil = E_1 R0``: its
    q <= k rows are Ctil's leading rows and the rest of Ctil is zero, as for
    the first block of a Krylov basis.  ``S`` is a small symmetric middle
    factor (possibly indefinite).

    When H is exactly symmetric (``H == H.T`` entry for entry) the object
    holds one eigendecomposition H = Q diag(lam) Q* and the solution in that
    eigenbasis, ``Z = (G S G*) / -(lam_i + lam_j)`` with ``G = Q[:q]* R0``,
    so that Y = Q Z Q*.  The cheap residual reads only Y's last block row,
    which :meth:`last_rows` returns in O(s k^2) without forming Y.  The checks
    that need no Y run at construction: non-finite entries, an exactly zero
    eigenvalue sum whose entry of ``G S G*`` is not negligible (that entry of
    Z is set to zero, as trsyl's perturbed pivot does), and the 1/eps-scale
    test, with ``||Z|| = ||Y||`` and ``||G S G*|| = ||Ctil S Ctil*||`` by
    orthogonal invariance.  :meth:`solution` forms Y and runs the full
    residual check (:func:`_check_solution`).  Any other H is solved by Bartels-Stewart
    (:func:`solve_sylvester_dense`) at construction, and the object holds
    that Y.  Either way a spectrum of H that meets its own negative raises
    :class:`SingularOperatorError` unless the right-hand side is consistent
    with it.
    """

    def __init__(self, H, R0, S):
        H = _as_matrix(H, "H")
        R0 = _as_matrix(R0, "R0")
        S = _as_matrix(S, "S")
        k = H.shape[0]
        q, p = R0.shape
        if H.shape != (k, k) or q > k or S.shape != (p, p):
            raise DimensionMismatchError(
                f"incompatible shapes H{H.shape}, R0{R0.shape}, S{S.shape}"
            )
        check_symmetric(S, "S")
        self._H, self._R0, self._S = H, R0, 0.5 * (S + S.T)
        self._Y = None
        if not np.array_equal(H, H.T):
            Y = solve_sylvester_dense(H, H, self._rhs())
            self._Y = 0.5 * (Y + Y.T)
            return
        # eigenvector signs and order cancel in Y, so linalg.eig_sym's
        # conventions would buy nothing here
        lam, self._Q = np.linalg.eigh(H)
        G = self._Q[:q].T @ R0
        M = G @ self._S @ G.T
        nM = np.linalg.norm(M)
        den = np.add.outer(-lam, -lam)  # -(lam_i + lam_j), bit for bit
        zero = den == 0
        unsolved = np.linalg.norm(M[zero])
        den[zero] = np.inf  # Z gets the zero entry there
        self._Z = np.divide(M, den, out=M)
        coeff = 2 * np.linalg.norm(H)
        nZ = _check_size(self._Z, nM, coeff, "symmetric eigensolve")
        if unsolved > 1e-8 * max(coeff * nZ + nM, 1e-300):
            raise SingularOperatorError(
                f"Sylvester operator numerically singular: solve residual {unsolved:.3e}"
            )

    def _rhs(self):
        """The dense k x k right-hand side ``Ctil S Ctil*``, symmetrized."""
        k, q = self._H.shape[0], self._R0.shape[0]
        W = np.zeros((k, k))
        head = self._R0 @ self._S @ self._R0.T
        W[:q, :q] = 0.5 * (head + head.T)
        return W

    def last_rows(self, s):
        """Y's last ``s`` rows, ``(Q[-s:] Z) Q*`` on the eigh route."""
        if self._Y is not None:
            return self._Y[-s:]
        return (self._Q[-s:] @ self._Z) @ self._Q.T

    def solution(self):
        """The full symmetric Y.

        On the eigh route the first call forms Y, releases the eigenbasis and
        runs the full check; from then on the object holds Y, as on the
        Bartels-Stewart route.
        """
        if self._Y is None:
            Y = self._Q @ self._Z @ self._Q.T
            self._Q = self._Z = None
            Y = 0.5 * (Y + Y.T)
            _check_solution(self._H, self._H, self._rhs(), Y, "symmetric eigensolve")
            self._Y = Y
        return self._Y


def solve_lyapunov_ldlt(H, Ctil, S):
    """Solve H @ Y + Y @ H.T + Ctil @ S @ Ctil.T = 0 for symmetric Y.

    The full solution of :class:`ProjectedLyapunov` with all of ``Ctil`` as
    its head: the eigh closed form, checked, for an exactly symmetric H and
    Bartels-Stewart otherwise.
    """
    H = _as_matrix(H, "H")
    Ctil = _as_matrix(Ctil, "Ctil")
    if Ctil.shape[0] != H.shape[0]:
        raise DimensionMismatchError(f"incompatible shapes H{H.shape}, Ctil{Ctil.shape}")
    return ProjectedLyapunov(H, Ctil, S).solution()


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
