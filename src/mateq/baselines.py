"""Comparison solvers: inexact extended Krylov methods and two-pass Lanczos.

The extended Krylov solvers (:func:`eksm_lyap`, :func:`eksm_sylv`) interleave
images under the operator and under its inverse, with the inverse applied
inexactly by a block iterative solver (:func:`block_cg` for SPD operators,
:func:`block_gmres` otherwise).  Each pair of new blocks, the first
included, is orthonormalized in place by the package's one block
Gram-Schmidt step, :func:`linalg.orthonormalize_block`, and the projected
matrix is assembled from cached operator images, so every operator
application is counted.  The outer residual norm is accumulated from the
cached images over row slices, so their n x dim out-of-space part is never
formed whole.  For an operator flagged symmetric the projected Lyapunov
equation is solved with the exactly symmetric ``0.5 (T + T*)``, which takes
the eigh route, as in ``restarted_lyap``.  Block CG's inner solves cost
about what their products cost: each step factors its two s x s Gram
matrices with LAPACK's ``potrf`` and inverts the factors with ``trtri``,
applies the inverses by products, and re-orthonormalizes the direction block
by one pass of the Gram-Schmidt kernel's Cholesky QR on a gemm Gram matrix.

The inner solves are relaxed as the outer residual falls (Simoncini & Szyld,
SISC 25, 2003; Kürschner & Freitag, BIT 60, 2020, for extended Krylov on
Lyapunov equations): the pair grown after outer residual ``r`` solves to
relative residual ``min(0.1, max(inner.tol, 0.1 * tol_res / r))``, and the
first pair takes ``r = ||C D*||``.  ``InnerSolverConfig.tol`` is the floor.
Relaxing never falsifies the outer residual: ``T = U* (A U)`` and the
residual ``||(A U - U T) Y||`` are formed from images that SpMM applied
exactly, and C spans the first block, so the reported residual is exact for
whatever space the inexact inverses span.  A loose inverse costs only the
quality of that space, that is, more outer steps.

:func:`sksm_two_pass` is the short-recurrence polynomial method for symmetric
coefficients: pass one runs a block Lanczos three-term recurrence keeping
three live blocks and monitors the cheap residual; pass two regenerates the
basis to assemble the solution factor, roughly doubling the operator calls
but never storing the basis.  Pass one's block tridiagonal H is a plain
array that each step grows by one block row and column.  Pass one is a
single long cycle of the restarted drivers' shape, and it solves its
projected equation only at the steps :func:`restarted._solve_due` picks.
Each such solve (:class:`dense_eq.ProjectedLyapunov`) yields only the last
block row of the solution, the part the cheap residual reads; the full
projected solution is formed and checked once, when pass one stops.
"""

import time
from dataclasses import dataclass

import numpy as np

from .arnoldi import _check_full_rank, arnoldi_extend, arnoldi_init
from .compression import (SymLowRankFactor, TruncationRule, _balanced, _eig_by_magnitude,
                          _svd_by_magnitude)
from .dense_eq import ProjectedLyapunov, solve_lyapunov_ldlt, solve_sylvester_dense
from .errors import (
    IndefiniteOperatorError,
    MemoryBudgetError,
    NonConvergenceError,
    RankDeficientBlockError,
)
from .linalg import _cholesky_factors, _cholesky_qr, orthonormalize_block, qr_economy
from .restarted import _as_blocks, _as_count, _new_report, _solve_due
from .residuals import _row_slices, residual_norm_lyap, true_residual_lyap, true_residual_sylv
from .sparse import OpCounter, estimate_norm2, spmm

__all__ = ["InnerSolverConfig", "block_cg", "block_gmres", "eksm_lyap", "eksm_sylv",
           "sksm_two_pass"]


# c and tau_max of the relaxed inner tolerance min(tau_max, max(inner.tol,
# c * tol_res / r)) (Simoncini & Szyld, SISC 25, 2003; see the module
# docstring).  On the 15625-dof convection-diffusion Sylvester pair with block
# GMRES, c = 1 ended at a true relative residual of 1.0e-6 and c = 0.1 at the
# 6.3e-7 of a fixed 1e-8, both in 15 outer steps.
_C_RELAX = 0.1
_TAU_MAX = 0.1
# iteration cap of either inner solver, and block GMRES's restart length
_INNER_MAX_ITER = 2000
_GMRES_RESTART = 50


def _relaxed_tol(floor, tol_res, r):
    """Inner tolerance for the pair grown after outer residual ``r``.

    ``r = 0`` comes only from a zero right-hand side, whose inner solves
    return zero without iterating.
    """
    return min(_TAU_MAX, max(floor, _C_RELAX * tol_res / r)) if r > 0 else _TAU_MAX


@dataclass
class InnerSolverConfig:
    """Settings for the inner linear solves of the extended Krylov methods.

    ``tol`` is the floor of the relaxed inner tolerance that the extended
    Krylov solvers apply (see the module docstring), so it may not exceed the
    rule's cap of 0.1.  Each inner solve stops at its relaxed tolerance or
    raises after ``_INNER_MAX_ITER`` iterations.
    """

    kind: str = "block-cg"
    tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("block-cg", "block-gmres"):
            raise ValueError(f"kind must be 'block-cg' or 'block-gmres', got {self.kind!r}")
        if not 0 < self.tol <= _TAU_MAX:
            raise ValueError(f"inner tolerance must lie in (0, {_TAU_MAX:g}]")

    def solve(self, A, RHS, counter, tol):
        """``A X = RHS`` solved to relative residual ``tol`` by this config's kind."""
        if self.kind == "block-cg":
            return block_cg(A, RHS, tol, counter)
        return block_gmres(A, RHS, tol, counter)


def block_cg(A, RHS, tol, counter):
    """Coupled block conjugate gradients for SPD A (O'Leary, LAA 29, 1980).

    Each step factors the search directions' Gram matrix ``P* A P = L L*``
    and inverts L (:func:`linalg._cholesky_factors`), then applies
    ``L^-* L^-1`` to both step matrices by products: on blocks a few columns
    wide, a general solve or inverse costs more than the arithmetic.  A
    failed factorization raises :class:`IndefiniteOperatorError`, whether
    ``A`` is indefinite or maps a direction to zero.  Each new direction
    block D is re-orthonormalized (Dubrulle, ETNA 12, 2001), which keeps the
    small Gram systems well conditioned for clustered right-hand sides, by
    one pass of :func:`linalg._cholesky_qr`: the step matrices are exact for
    any full-rank D, so one pass is enough.  Its Gram matrix is a gemm
    against a copy of D, because numpy sends ``D.T @ D`` on one buffer to
    OpenBLAS's syrk, two to three times slower on blocks this narrow.  The
    first block goes through :func:`linalg.qr_economy`, which also rejects a
    non-finite right-hand side.  Every n-row array is its own contiguous
    buffer: updates on column views of a shared buffer are strided and
    several times slower.  Stops at ``||A X - RHS||_F <= tol * ||RHS||_F``.
    """
    RHS = np.asarray(RHS, dtype=np.float64)
    rhs_norm = np.linalg.norm(RHS)
    if rhs_norm == 0:
        return np.zeros_like(RHS)
    X = np.zeros(RHS.shape)  # C order: a mixed-layout X += P @ alpha is slow
    R = RHS.copy()
    P, _ = qr_economy(R)
    for _ in range(_INNER_MAX_ITER):
        W = spmm(A, P, counter)
        M = P.T @ W
        factors = _cholesky_factors(0.5 * (M + M.T))
        if factors is None:
            raise IndefiniteOperatorError(
                "block CG: search-direction Gram matrix is not positive definite"
            )
        _, lo_inv = factors
        M_inv = lo_inv.T @ lo_inv
        alpha = M_inv @ (P.T @ R)
        X += P @ alpha
        R -= W @ alpha
        if np.linalg.norm(R) <= tol * rhs_norm:
            return X
        beta = -M_inv @ (W.T @ R)
        D = R + P @ beta
        P = np.empty_like(D)
        _cholesky_qr(D, D.T @ D.copy(), P)
    raise NonConvergenceError(f"block CG did not reach {tol:g} in {_INNER_MAX_ITER} iterations")


def block_gmres(A, RHS, tol, counter):
    """Restarted block GMRES for a nonsingular operator.

    Each cycle builds a block Arnoldi basis of at most ``_GMRES_RESTART``
    steps and minimizes the residual over it through a small least-squares
    solve on the session's stored ``Hbar``.  Stops at
    ``||A X - RHS||_F <= tol * ||RHS||_F``.
    """
    RHS = np.asarray(RHS, dtype=np.float64)
    _, s = RHS.shape
    rhs_norm = np.linalg.norm(RHS)
    if rhs_norm == 0:
        return np.zeros_like(RHS)
    X = np.zeros(RHS.shape)  # C order: a mixed-layout X += P @ alpha is slow
    R = RHS.copy()
    total = 0
    while total < _INNER_MAX_ITER:
        # column scaling keeps the start block full rank when some right-hand
        # sides converge earlier than others (block deflation is unsupported)
        scale = np.linalg.norm(R, axis=0)
        scale[scale == 0] = 1.0
        try:
            dec = arnoldi_init(A, R / scale, counter,
                               max_steps=min(_GMRES_RESTART, _INNER_MAX_ITER - total))
        except RankDeficientBlockError as exc:
            raise NonConvergenceError(
                f"block GMRES restart block is rank deficient at residual "
                f"{np.linalg.norm(R) / rhs_norm:.3e} (deflation unsupported): {exc}"
            ) from exc
        E1R = np.zeros(((dec.max_steps + 1) * s, s))
        E1R[:s, :] = dec.r0 * scale
        Y = None
        for _ in range(dec.max_steps):
            arnoldi_extend(dec)
            total += 1
            Hbar = dec.Hbar
            rhs = E1R[: Hbar.shape[0]]
            Y, _, _, _ = np.linalg.lstsq(Hbar, rhs, rcond=None)
            res = np.linalg.norm(Hbar @ Y - rhs)
            if res <= tol * rhs_norm or dec.breakdown:
                break
        X += dec.basis @ Y
        R = RHS - spmm(A, X, counter)
        if np.linalg.norm(R) <= tol * rhs_norm:
            return X
    raise NonConvergenceError(
        f"block GMRES did not reach {tol:g} in {_INNER_MAX_ITER} iterations"
    )


class _ExtendedBasis:
    """Interleaved direct/inverse Krylov basis with cached operator images.

    Blocks come in pairs: the image part (from applying the operator) and the
    inverse part (from the inner solve), in preallocated Fortran-ordered
    ``U`` and ``AU`` of ``capacity = min(max_dim, n)`` columns: no more than
    n columns can be orthonormal.  Every pair, the first included, goes
    through :meth:`_grow`: the pair is written into the next free slot,
    orthonormalized there against the basis by
    :func:`linalg.orthonormalize_block`, and its two images are taken.  The
    projection ``T = U* (A U)`` gains the pair's rows and columns in a
    preallocated ``capacity x capacity`` array, from the cached images, so
    its assembly costs no operator applications beyond the one image per new
    block.  ``rhs`` is ``U* C``, read off the first pair's R factor: nonzero
    only in its leading 2s rows.  :meth:`residual_norm` reads the cached
    images a row slice at a time.
    """

    def __init__(self, A, C, inner, counter, max_dim, tol):
        self.A = A
        self.inner = inner
        self.counter = counter
        n, s = C.shape
        self.s = s
        self.capacity = min(max_dim, n)
        # neither inner solver deflates: a rank-deficient C would make block CG
        # report an SPD operator as indefinite, so it is rejected as arnoldi_init does
        _check_full_rank(qr_economy(C)[1])
        if inner.kind == "block-cg" and not A.symmetric:
            raise ValueError("block CG needs an operator flagged symmetric (positive definite)")
        self._U = np.empty((n, self.capacity), order="F")
        self._AU = np.empty((n, self.capacity), order="F")
        self._T = np.zeros((self.capacity, self.capacity))
        self._rhs = np.zeros((self.capacity, s))
        self.dim = 0
        R = self._grow(C, C, tol)
        self._rhs[: 2 * s] = R[:, :s]

    @property
    def full(self):
        """Whether the next pair would outgrow the capacity."""
        return self.dim + 2 * self.s > self.capacity

    def _grow(self, image, source, tol):
        """Append the pair ``[image, inner solve of source to tol]``; returns its R factor."""
        d, s = self.dim, self.s
        if self.full:
            raise MemoryBudgetError(
                f"extended basis needs {d + 2 * s} columns > min(max_dim, n) = "
                f"{self.capacity}; cannot reach the tolerance"
            )
        W = self._U[:, d : d + 2 * s]
        W[:, :s] = image
        W[:, s:] = self.inner.solve(self.A, source, self.counter, tol)
        _, R = orthonormalize_block(self._U[:, :d], W)
        for k in (d, d + s):
            self._AU[:, k : k + s] = spmm(self.A, self._U[:, k : k + s], self.counter)
        self.dim = e = d + 2 * s
        self.U, self.AU = self._U[:, :e], self._AU[:, :e]
        self._T[:e, d:e] = self.U.T @ self.AU[:, d:]
        self._T[d:e, :d] = W.T @ self._AU[:, :d]
        self.T, self.rhs = self._T[:e, :e], self._rhs[:e]
        return R

    def residual_norm(self, Y):
        """``||F Y||_F`` with F the out-of-space part ``A U - U T`` of the cached images.

        Accumulated over row slices (:func:`residuals._row_slices`), so
        that neither ``U T`` nor F is ever formed whole.
        """
        total = 0.0
        for rows in _row_slices(*self.U.shape):
            F = self.U[rows] @ self.T
            np.subtract(self.AU[rows], F, out=F)
            total += np.linalg.norm(F @ Y) ** 2
        return float(np.sqrt(total))

    def extend(self, tol):
        """Append the newest direct block's cached image and the newest inverse block's inverse.

        The inverse is an inner solve to relative residual ``tol``.
        """
        d, s = self.dim, self.s
        self._grow(self._AU[:, d - 2 * s : d - s], self._U[:, d - s : d], tol)


def _solution_rule(tol_res, r, *norms):
    """Frobenius truncation rule for the returned solution factors, last cheap residual ``r``.

    On an orthonormal basis ``||A dX + dX B||_F <= (||A|| + ||B||) ||dX||_F``,
    ``||dX||_F`` the dropped values' norm: cut within the slack ``tol_res - r``
    the run has left, or at ``tol_res`` when there is none.
    """
    slack = tol_res - r if r < tol_res else tol_res
    total = sum(norms)
    return TruncationRule(slack / total if total > 0 else slack, "frobenius")


def eksm_lyap(A, C, inner, tol_res, max_dim):
    """Extended Krylov solver for A X + X A* + C C* = 0 with inexact inverses.

    Stops unconverged when the next pair would outgrow ``max_dim`` or n, the
    basis's capacity; raises :class:`MemoryBudgetError` only when the first
    pair does not fit, and, before any inner solve,
    :class:`RankDeficientBlockError` for a rank-deficient C and
    ``ValueError`` for block CG on an operator not flagged symmetric.
    """
    C, _ = _as_blocks(A, A, C, C)
    max_dim = _as_count("max_dim", max_dim)
    t0 = time.perf_counter()
    counter = OpCounter()
    s = C.shape[1]
    norm_a = estimate_norm2(A)
    report = _new_report(f"eksm-{inner.kind.split('-')[1]}", C, C, norm_a, norm_a,
                         tol_res, memmax=max_dim)
    tols = report.inner_tolerances = [_relaxed_tol(inner.tol, tol_res, report.rhs_norm)]
    basis = _ExtendedBasis(A, C, inner, counter, max_dim, tols[0])
    while True:
        # symmetric to roundoff for symmetric A; made exact, it takes the eigh route
        T = 0.5 * (basis.T + basis.T.T) if A.symmetric else basis.T
        Y = solve_lyapunov_ldlt(T, basis.rhs, np.eye(s))
        r = float(np.sqrt(2.0) * basis.residual_norm(Y))
        report.residual_history.append(r)
        if r <= tol_res or basis.full:
            break
        tols.append(_relaxed_tol(inner.tol, tol_res, r))
        basis.extend(tols[-1])
    rule = _solution_rule(tol_res, r, norm_a, norm_a)
    W, lam, report.solution_loss = _eig_by_magnitude(Y, rule)
    report.iterations = len(report.residual_history) - 1  # extensions after the first residual
    report.basis_dim = report.peak_live_columns = basis.dim
    U = basis.U
    basis = None  # release the images AU before the solution factor allocates
    fac = SymLowRankFactor(U @ W, np.diag(lam))
    U = None  # and the basis before the true residual allocates
    report.finish(fac.rank, true_residual_lyap(A, C, fac.C, fac.S, "frobenius"),
                  {"A": counter}, t0)
    return fac, report


def eksm_sylv(A, B, C, D, inner, tol_res, max_dim):
    """Two-sided extended Krylov solver for A X + X B + C D* = 0.

    Grows one extended basis for (A, C) and one for (B*, D) in lockstep, with
    independent counters for the two operators; ``inner`` serves the inner
    solves of both.  It stops at ``max_dim`` or n and raises as
    :func:`eksm_lyap` does, for either operator and a rank-deficient C or D.
    D and B are checked once the basis for (A, C) has taken its first inner
    solve.
    """
    C, D = _as_blocks(A, B, C, D)
    max_dim = _as_count("max_dim", max_dim)
    t0 = time.perf_counter()
    cnt_a, cnt_b = OpCounter(), OpCounter()
    norm_a, norm_b = estimate_norm2(A), estimate_norm2(B)
    report = _new_report(f"eksm-{inner.kind.split('-')[1]}", C, D, norm_a, norm_b,
                         tol_res, memmax=max_dim)
    Bt = B.transpose()
    tols = report.inner_tolerances = [_relaxed_tol(inner.tol, tol_res, report.rhs_norm)]
    ba = _ExtendedBasis(A, C, inner, cnt_a, max_dim, tols[0])
    bb = _ExtendedBasis(Bt, D, inner, cnt_b, max_dim, tols[0])
    while True:
        F = ba.rhs @ bb.rhs.T
        Y = solve_sylvester_dense(ba.T, bb.T, F)
        r = float(np.hypot(ba.residual_norm(Y), bb.residual_norm(Y.T)))
        report.residual_history.append(r)
        if r <= tol_res or ba.full:  # bb is as full as ba
            break
        tols.append(_relaxed_tol(inner.tol, tol_res, r))
        ba.extend(tols[-1])
        bb.extend(tols[-1])
    rule = _solution_rule(tol_res, r, norm_a, norm_b)
    U, sig, V, report.solution_loss = _svd_by_magnitude(Y, rule)
    report.iterations = len(report.residual_history) - 1  # extensions after the first residual
    report.basis_dim = ba.dim
    report.peak_live_columns = ba.dim + bb.dim
    UA, UB = ba.U, bb.U
    ba = bb = None  # release both images AU before the factors allocate
    XL = UA @ U
    UA = None  # and each basis once its factor is formed
    XR = UB @ V
    UB = None
    fac = _balanced(XL, sig, XR)
    report.finish(fac.rank, true_residual_sylv(A, B, C, D, fac.C, fac.D, "frobenius"),
                  {"A": cnt_a, "B": cnt_b}, t0)
    return fac, report


def sksm_two_pass(A, C, tol_res, max_m):
    """Two-pass block Lanczos solver for A X + X A* + C C* = 0, A symmetric.

    Pass one keeps only three basis blocks live while growing the projected
    block tridiagonal matrix.  It checks the cheap residual, from the last
    block row of the projected solution, at the steps
    :func:`restarted._solve_due` picks; the other steps hold None in
    ``residual_history``.  The whole projected solution is formed
    once, when pass one stops, always at a measured step.  Pass two
    regenerates the basis to accumulate the solution factor.  A loss of
    orthogonality shows as a ``residual_gap`` far above 1 in the report.
    """
    if not A.symmetric:
        raise ValueError("two-pass Lanczos requires a symmetric operator")
    max_m = _as_count("max_m", max_m)
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    C, _ = _as_blocks(A, A, C, C)
    t0 = time.perf_counter()
    counter = OpCounter()
    n, s = C.shape
    norm_a = estimate_norm2(A)
    report = _new_report("sksm-two-pass", C, C, norm_a, norm_a, tol_res)

    def lanczos_step(U_prev, U_cur, beta_prev):
        W = spmm(A, U_cur, counter)
        if U_prev is not None:
            W = W - U_prev @ beta_prev.T
        alpha = U_cur.T @ W
        alpha = 0.5 * (alpha + alpha.T)
        W = W - U_cur @ alpha
        Qn, beta = qr_economy(W)
        return Qn, alpha, beta

    U1, R0 = qr_economy(C)
    H = np.zeros((0, 0))
    U_prev, U_cur = None, U1
    beta_prev = None
    for j in range(max_m):
        Qn, alpha, beta = lanczos_step(U_prev, U_cur, beta_prev)
        proj = None  # free the last step's k x k arrays before the next solve
        grown = np.zeros((H.shape[0] + s,) * 2)  # one more block row and column
        grown[:-s, :-s] = H
        H = grown
        H[-s:, -s:] = alpha
        if beta_prev is not None:
            H[-s:, -2 * s : -s] = beta_prev
            H[-2 * s : -s, -s:] = beta_prev.T
        U_prev, U_cur, beta_prev = U_cur, Qn, beta
        if not _solve_due(report, j, max_m, s, n, ((beta, norm_a),)):
            continue
        proj = ProjectedLyapunov(H, R0, np.eye(s))
        r = residual_norm_lyap(beta, proj.last_rows(s), "frobenius")
        report.residual_history.append(r)
        if r <= tol_res:
            break
    Y = proj.solution()
    proj = H = grown = None
    report.iterations = m = len(report.residual_history)

    rule = _solution_rule(tol_res, r, norm_a, norm_a)
    WY, lam, report.solution_loss = _eig_by_magnitude(Y, rule)
    XL = np.zeros((n, WY.shape[1]))
    U_prev, U_cur = None, U1
    beta_prev = None
    for j in range(m):
        XL += U_cur @ WY[j * s : (j + 1) * s, :]
        if j < m - 1:
            Qn, _, beta = lanczos_step(U_prev, U_cur, beta_prev)
            U_prev, U_cur, beta_prev = U_cur, Qn, beta
    fac = SymLowRankFactor(XL, np.diag(lam))
    report.peak_live_columns = 3 * s
    report.basis_dim = m * s
    report.finish(fac.rank, true_residual_lyap(A, C, fac.C, fac.S, "frobenius"),
                  {"A": counter}, t0)
    return fac, report
