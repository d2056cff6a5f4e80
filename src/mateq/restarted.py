"""Restarted block Krylov solvers with low-rank compression.

Both drivers run cycles of the block Arnoldi projection method under a hard
budget on simultaneously stored basis columns.  Each cycle solves a small
projected equation at every inner step and checks a cheap residual norm; on
restart, the residual of the accumulated solution is itself a low-rank
product assembled from the boundary blocks of the Arnoldi relation, so it is
compressed and used as the next cycle's right-hand side.  The accumulated
solution factors are compressed after every cycle as well.

Both compressions run in coefficient space (:class:`BasisFactor`).  The
residual factor ``[U_{m+1} H_{m+1,m}, V_m Y]`` is a small coefficient matrix
on the orthonormal basis ``[V_m, U_{m+1}]``, so it needs no tall QR; only
after a happy breakdown is the remainder block orthogonalized.  The running
solution is kept with orthonormal factors (``XL`` and a diagonal middle for
Lyapunov, ``QL diag(sig) QR*`` for Sylvester, square-root balanced only on
return), so each update orthogonalizes just the new columns ``V_m W``; the
compressed residual factors are orthonormal too and start the next cycle
without a QR.  ``restarted_lyap`` on an operator flagged symmetric solves
with the exactly symmetric ``0.5 (H + H.T)`` (the eigh route).

Memory at a cycle's end is released in reading order: the restart residual
is compressed first, while only the Arnoldi bases and the running solution
are held; then the new solution columns ``V_m W`` are formed, Fortran-ordered
so that compression orthonormalizes them in place, and each basis is dropped
as soon as they are; only then is the solution compressed.  The restart
block is dropped once it is copied into the next basis.  The two
compressions do independent arithmetic, so the order changes no factor.

The per-cycle iteration budget divides the column budget by the width of the
current residual factor, so the basis depth adapts automatically as the
residual rank evolves.  The attainable accuracy degrades by at most
``(restarts + 1) * (||A|| + ||B|| + 1) * tol_comp`` beyond the residual
tolerance, which is what :func:`eval_residual_bound` evaluates and what the
default compression-tolerance rule keeps below ``tol_res``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .arnoldi import arnoldi_extend, arnoldi_init
from .compression import (
    BasisFactor,
    SymLowRankFactor,
    TruncationRule,
    _balanced,
    _eig_by_magnitude,
    _keep_count,
    compress,
    compress_sym,
    psd_project,
)
from .dense_eq import solve_lyapunov_ldlt, solve_sylvester_dense
from .errors import MemoryBudgetError
from .linalg import svd
from .residuals import (
    _norm,
    explicit_residual_lyap,
    explicit_residual_sylv,
    residual_norm_lyap,
    residual_norm_sylv,
    true_residual_lyap,
    true_residual_sylv,
)
from .sparse import OpCounter, estimate_norm2

__all__ = [
    "SolverConfig",
    "SolveReport",
    "restarted_sylv",
    "restarted_lyap",
    "eval_residual_bound",
    "eval_error_bound_normal",
]

_NORM_EST_ITERS = 20
_NORM_EST_SEED = 42
_NORM_EST_METHOD = f"power-iteration({_NORM_EST_ITERS} iters, seed {_NORM_EST_SEED})"
_VERIFY_MAX_N = 2000


@dataclass
class SolverConfig:
    """Budget and tolerance settings shared by the restarted solvers.

    ``tol_comp`` governs the compression of the accumulated solution factors
    (and the factorization of the projected solution); ``tol_comp=None``
    selects the rule ``tol_res / ((k_max + 1) * (||A|| + ||B|| + 1))`` with
    power-iteration norm estimates, which keeps the accumulated,
    norm-amplified compression error below the residual tolerance.

    ``tol_comp_res`` governs the compression of the residual factors between
    cycles.  Residual truncation errors enter the attainable accuracy
    un-amplified (coefficient one per cycle, versus ``||A|| + ||B|| + 1`` for
    the solution side), so this side tolerates a much coarser cut; keeping it
    coarse is what stabilizes the residual rank and thereby the per-cycle
    iteration budget.  ``None`` means: follow ``tol_comp`` when that is set
    explicitly, otherwise ``1e-3 * tol_res`` (a thousand restarts' worth of
    discarded residual mass still stays below ``tol_res``).
    """

    memmax: int
    k_max: int = 100
    tol_res: float = 1e-6
    tol_comp: float | None = None
    tol_comp_res: float | None = None
    norm: str = "frobenius"

    def validate(self, s):
        if self.memmax < 4 * s:
            raise MemoryBudgetError(
                f"memmax = {self.memmax} is below 4*s = {4 * s}; no iteration possible"
            )
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if not self.tol_res > 0:
            raise ValueError("tol_res must be positive")
        for name in ("tol_comp", "tol_comp_res"):
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ValueError(f"{name} must be positive")
        if self.norm not in ("frobenius", "spectral"):
            raise ValueError(f"norm must be 'frobenius' or 'spectral', got {self.norm!r}")

    def resolved_tolerances(self, norm_a, norm_b):
        """Return (solution-side, residual-side) compression tolerances."""
        sol = self.tol_comp
        if sol is None:
            sol = _default_tol_comp(self.tol_res, self.k_max, norm_a, norm_b)
        res = self.tol_comp_res
        if res is None:
            res = self.tol_comp if self.tol_comp is not None else max(sol, 1e-3 * self.tol_res)
        return sol, res


@dataclass
class SolveReport:
    """Everything a solve run measured, in plot-ready form.

    ``residual_history`` holds the cheap residual norm of every inner
    iteration (absolute, same scale as ``tol_res``); ``cycle_starts`` marks
    the 0-based history index where each cycle begins.  Ranks are recorded
    after the per-cycle compressions.  ``peak_live_columns`` is the largest
    number of basis columns held simultaneously across all Krylov sessions.
    ``within_residual_bound`` says whether the true residual stays within
    ``residual_bound`` (None for solvers that state no bound).  ``converged``
    says that the last cheap residual is at most ``tol_res``; a restarted run
    whose residual compresses to rank 0 before that stops unconverged.
    """

    solver: str
    n: int
    s: int
    norm: str
    tol_res: float
    tol_comp: float | None
    memmax: int | None
    k_max: int | None
    tol_comp_res: float | None = None
    converged: bool = False
    iterations: int = 0
    restarts: int = 0
    residual_history: list = field(default_factory=list)
    cycle_starts: list = field(default_factory=list)
    residual_ranks: list = field(default_factory=list)
    solution_ranks: list = field(default_factory=list)
    cycle_budgets: list = field(default_factory=list)
    cycle_inner_iterations: list = field(default_factory=list)
    min_eigenvalues: list | None = None
    rhs_norm: float = 0.0
    final_residual: float = float("nan")
    final_relative_residual: float = float("nan")
    true_residual: float = float("nan")
    true_relative_residual: float = float("nan")
    solution_rank: int = 0
    counters: dict = field(default_factory=dict)
    efficiency: float = float("nan")
    norm_estimate_a: float = float("nan")
    norm_estimate_b: float | None = None
    norm_estimate_method: str = _NORM_EST_METHOD
    residual_bound: float | None = None
    within_residual_bound: bool | None = None
    peak_live_columns: int = 0
    basis_dim: int | None = None
    wall_time_s: float = 0.0
    explicit_history: list | None = None
    cycle_explicit_residuals: list | None = None

    def to_dict(self):
        return dict(self.__dict__)

    def finish(self, converged, solution_rank, true_residual, counters, t0):
        """Fill in the end-of-solve fields that every solver reports.

        ``counters`` maps operator names to their :class:`OpCounter`;
        ``efficiency`` is A's matvecs per A-call and ``t0`` is the
        ``time.perf_counter()`` value at the start of the solve.
        """
        self.converged = converged
        self.final_residual = self.residual_history[-1] if self.residual_history else 0.0
        self.final_relative_residual = self._relative(self.final_residual)
        self.solution_rank = solution_rank
        self.true_residual = true_residual
        self.true_relative_residual = self._relative(true_residual)
        if self.residual_bound is not None:
            self.within_residual_bound = bool(true_residual <= self.residual_bound)
        self.counters = {name: cnt.as_dict() for name, cnt in counters.items()}
        cnt_a = counters["A"]
        self.efficiency = cnt_a.matvecs / cnt_a.a_calls if cnt_a.a_calls else float("nan")
        self.wall_time_s = time.perf_counter() - t0

    def _relative(self, value):
        return value / self.rhs_norm if self.rhs_norm else float("nan")


def _as_block(V):
    """Coerce a right-hand-side factor to an (n, s) float array."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError(f"right-hand-side factor must be n x s, got shape {V.shape}")
    return V


def eval_residual_bound(tol_res, k_bar, tol_comp, norm_a, norm_b):
    """Attainable residual level after k_bar restarts with compression."""
    if min(tol_res, k_bar, tol_comp, norm_a, norm_b) < 0:
        raise ValueError("all bound inputs must be nonnegative")
    return tol_res + (k_bar + 1) * (norm_a + norm_b + 1) * tol_comp


def eval_error_bound_normal(tol_res, k_bar, tol_comp, re_lambda_a1, re_lambda_b1):
    """Solution-error bound for normal coefficients with a positive gap."""
    gap = re_lambda_a1 + re_lambda_b1
    if not gap > 0:
        raise ValueError(f"spectral gap must be positive, got {gap}")
    return (tol_res + (k_bar + 1) * tol_comp) / gap + (k_bar + 1) * tol_comp


def _default_tol_comp(tol_res, k_max, norm_a, norm_b):
    return tol_res / ((k_max + 1) * (norm_a + norm_b + 1))


def _product_norm(C, D, norm):
    """||C @ D.T|| without forming the product."""
    Rc = np.linalg.qr(C, mode="r")  # the norm does not see R's row signs
    Rd = np.linalg.qr(D, mode="r")
    return _norm(Rc @ Rd.T, norm)


def _open_cycle(report, sk, mk):
    """Start the next cycle: residual rank ``sk``, step budget ``mk``."""
    if mk < 1:
        raise MemoryBudgetError(
            f"cycle {len(report.cycle_starts)}: residual rank {sk} needs more than "
            f"memmax = {report.memmax} columns"
        )
    report.cycle_budgets.append(mk)
    report.cycle_starts.append(len(report.residual_history))


def _close_cycle(report):
    """Record how many inner iterations the cycle just ended took."""
    report.cycle_inner_iterations.append(
        len(report.residual_history) - report.cycle_starts[-1]
    )


def _close_run(report, peak):
    """Totals over all cycles, and the attainable-residual bound they imply."""
    report.iterations = len(report.residual_history)
    report.restarts = max(len(report.cycle_starts) - 1, 0)
    report.peak_live_columns = peak
    report.residual_bound = eval_residual_bound(
        report.tol_res, report.restarts, max(report.tol_comp, report.tol_comp_res),
        report.norm_estimate_a, report.norm_estimate_b,
    )


def _new_report(solver, C, D, config, norm_a, norm_b, verify):
    """Report for one restarted solve of right-hand side C D*, with its resolved tolerances."""
    tol_sol, tol_res_fac = config.resolved_tolerances(norm_a, norm_b)
    report = SolveReport(
        solver=solver, n=C.shape[0], s=C.shape[1], norm=config.norm, tol_res=config.tol_res,
        tol_comp=tol_sol, tol_comp_res=tol_res_fac, memmax=config.memmax,
        k_max=config.k_max, norm_estimate_a=norm_a, norm_estimate_b=norm_b,
        rhs_norm=_product_norm(C, D, config.norm),
    )
    if verify:
        report.explicit_history = []
        report.cycle_explicit_residuals = []
    return report


def _factor_pair(Y, rule):
    """Truncated SVD split Y ~= YL @ YR.T with square-root balancing."""
    U, sig, Vt = svd(Y)
    keep = _keep_count(sig, rule)
    root = np.sqrt(sig[:keep])
    return U[:, :keep] * root, Vt[:keep].T * root


def _in_basis(basis, W):
    """``basis @ W``, Fortran-ordered so that compression orthonormalizes it in place."""
    return np.matmul(basis, W, out=np.empty((basis.shape[0], W.shape[1]), order="F"))


def _residual_factor(dec, W, boundary_first):
    """``[U_{m+1} H_{m+1,m}, V_m W]`` (or its two blocks swapped) in the Arnoldi basis.

    Before a breakdown both blocks lie in ``[V_m, U_{m+1}]``, so the factor is
    pure coefficients; after one, the unnormalized remainder block stands in
    for ``U_{m+1} H_{m+1,m}`` as the factor's extra columns.
    """
    ms, s = dec.m * dec.s, dec.s
    K = np.zeros((ms + s, 2 * s))
    bnd, old = (slice(0, s), slice(s, 2 * s)) if boundary_first else (slice(s, 2 * s), slice(0, s))
    K[:ms, old] = W
    if dec.breakdown:
        K[ms:, bnd] = np.eye(s)
        return BasisFactor(dec.basis, dec.boundary_image(), K)
    K[ms:, bnd] = dec.boundary
    return BasisFactor(dec.extended_basis, np.zeros((dec.n, 0)), K)


def restarted_sylv(A, B, C, D, config, verify=False):
    """Memory-budgeted restarted solver for A X + X B + C D* = 0.

    Returns the compressed solution factors and a :class:`SolveReport`.
    Non-convergence within ``k_max`` restarts is reported through the
    ``converged`` flag, not an exception.  With ``verify=True`` (small n
    only) the dense residual is formed at every inner iteration and at every
    cycle boundary and stored alongside the cheap values.
    """
    C = _as_block(C)
    D = _as_block(D)
    n, s = C.shape
    if A.n != n or B.n != n or D.shape != (n, s):
        raise ValueError("coefficient/right-hand-side dimensions disagree")
    config.validate(s)
    if verify and n > _VERIFY_MAX_N:
        raise ValueError(f"verify mode forms dense residuals; n is limited to {_VERIFY_MAX_N}")
    t0 = time.perf_counter()
    Bt = B.transpose()
    cnt_a, cnt_b = OpCounter(), OpCounter()
    norm_a = estimate_norm2(A, _NORM_EST_ITERS, _NORM_EST_SEED)
    norm_b = estimate_norm2(B, _NORM_EST_ITERS, _NORM_EST_SEED)
    report = _new_report("restarted-sylv", C, D, config, norm_a, norm_b, verify)
    rule_sol = TruncationRule(report.tol_comp, config.norm)
    rule_res = TruncationRule(report.tol_comp_res, config.norm)

    # running solution QL diag(sig) QR* with orthonormal QL, QR
    QL = np.zeros((n, 0))
    QR = np.zeros((n, 0))
    sig = np.zeros(0)
    Ck, Dk = C, D
    R0k = None  # restart blocks Ck diag(sqrt(sig_res)) come back with orthonormal Ck
    converged = False
    peak = 0

    for _ in range(config.k_max + 1):
        sk = Ck.shape[1]
        if sk == 0:  # residual compressed away: nothing left to restart with
            break
        mk = config.memmax // (2 * sk) - 2
        _open_cycle(report, sk, mk)
        dec_a = arnoldi_init(A, Ck, cnt_a, max_steps=mk, r0=R0k)
        dec_b = arnoldi_init(Bt, Dk, cnt_b, max_steps=mk, r0=R0k)
        Ck = Dk = None  # copied into the bases
        rhs_core = dec_a.r0 @ dec_b.r0.T
        flagconv = False
        Y = None
        for _ in range(mk):
            arnoldi_extend(dec_a)
            arnoldi_extend(dec_b)
            peak = max(peak, dec_a.materialized_columns + dec_b.materialized_columns)
            ka, kb = dec_a.m * sk, dec_b.m * sk
            F = np.zeros((ka, kb))
            F[:sk, :sk] = rhs_core
            Y = solve_sylvester_dense(dec_a.H, dec_b.H, F)
            r = residual_norm_sylv(dec_a.boundary, dec_b.boundary, Y, config.norm)
            report.residual_history.append(r)
            if verify:
                Xacc = (QL * sig) @ QR.T + dec_a.basis @ Y @ dec_b.basis.T
                report.explicit_history.append(
                    explicit_residual_sylv(A, B, C, D, Xacc, config.norm)
                )
            if r <= config.tol_res:
                flagconv = True
                break
            if dec_a.breakdown and dec_b.breakdown:
                break
        _close_cycle(report)
        if not flagconv:
            Ck, sig_res, Dk = compress(
                (_residual_factor(dec_a, Y[:, -sk:], boundary_first=True),
                 _residual_factor(dec_b, Y[-sk:, :].T, boundary_first=False)),
                rule_res,
            )
        YL, YR = _factor_pair(Y, rule_sol)
        # release each basis once its new solution columns are formed: the
        # solution update does not read them
        left = BasisFactor(QL, _in_basis(dec_a.basis, YL),
                           np.diag(np.r_[sig, np.ones(YL.shape[1])]))
        dec_a = None
        right = BasisFactor(QR, _in_basis(dec_b.basis, YR), np.eye(sig.size + YR.shape[1]))
        dec_b = None
        QL, sig, QR = compress((left, right), rule_sol)
        left = right = None  # the previous factors and the new columns go with them
        report.solution_ranks.append(sig.size)
        if verify:
            report.cycle_explicit_residuals.append(
                explicit_residual_sylv(A, B, C, D, (QL * sig) @ QR.T, config.norm)
            )
        if flagconv:
            converged = True
            break
        R0k = np.diag(np.sqrt(sig_res))
        report.residual_ranks.append(Ck.shape[1])

    sol = _balanced(QL, sig, QR)  # in place: no second copy of the factors
    _close_run(report, peak)
    report.finish(converged, sol.rank,
                  true_residual_sylv(A, B, C, D, sol.C, sol.D, config.norm),
                  {"A": cnt_a, "B": cnt_b}, t0)
    return sol, report


def restarted_lyap(A, C, config, verify=False, project_spsd=False):
    """Memory-budgeted restarted solver for A X + X A* + C C* = 0.

    Uses a single approximation space per cycle.  After the first restart the
    residual becomes indefinite, so residual factors carry a small symmetric
    middle matrix (factored form C S C*) through compression and into the
    projected equations; the accumulated solution is kept in the same form
    with its running middle factor.  ``project_spsd=True`` discards the
    negative eigenvalue part of the final solution.
    """
    C = _as_block(C)
    n, s = C.shape
    if A.n != n:
        raise ValueError("coefficient/right-hand-side dimensions disagree")
    config.validate(s)
    if verify and n > _VERIFY_MAX_N:
        raise ValueError(f"verify mode forms dense residuals; n is limited to {_VERIFY_MAX_N}")
    t0 = time.perf_counter()
    cnt_a = OpCounter()
    norm_a = estimate_norm2(A, _NORM_EST_ITERS, _NORM_EST_SEED)
    report = _new_report("restarted-lyap", C, C, config, norm_a, norm_a, verify)
    rule_sol = TruncationRule(report.tol_comp, config.norm)
    rule_res = TruncationRule(report.tol_comp_res, config.norm)
    report.min_eigenvalues = []

    XL = np.zeros((n, 0))
    SX = np.zeros((0, 0))
    res = SymLowRankFactor(C, np.eye(s))  # the residual C S C* that the next cycle starts from
    R0k = None  # restart blocks come back orthonormal: R = I
    converged = False
    peak = 0

    for _ in range(config.k_max + 1):
        sk = res.rank
        if sk == 0:  # residual compressed away: nothing left to restart with
            break
        mk = config.memmax // sk - 1
        _open_cycle(report, sk, mk)
        dec = arnoldi_init(A, res.C, cnt_a, max_steps=mk, r0=R0k)
        Dmid = res.S
        res = None  # its factor is copied into the basis
        flagconv = False
        Y = None
        for _ in range(mk):
            arnoldi_extend(dec)
            peak = max(peak, dec.materialized_columns)
            kk = dec.m * sk
            Ctil = np.zeros((kk, sk))
            Ctil[:sk, :] = dec.r0
            # symmetric to roundoff for symmetric A; made exact, it takes the eigh route
            H = 0.5 * (dec.H + dec.H.T) if A.symmetric else dec.H
            Y = solve_lyapunov_ldlt(H, Ctil, Dmid)
            r = residual_norm_lyap(dec.boundary, Y, config.norm)
            report.residual_history.append(r)
            if verify:
                Xacc = XL @ SX @ XL.T + dec.basis @ Y @ dec.basis.T
                report.explicit_history.append(
                    explicit_residual_lyap(A, C, Xacc, config.norm)
                )
            if r <= config.tol_res:
                flagconv = True
                break
            if dec.breakdown:
                break
        _close_cycle(report)
        if not flagconv:
            swap = np.zeros((2 * sk, 2 * sk))
            swap[:sk, sk:] = np.eye(sk)
            swap[sk:, :sk] = np.eye(sk)
            res = compress_sym(
                (_residual_factor(dec, Y[:, -sk:], boundary_first=True), swap), rule_res
            )
        WY, lam = _eig_by_magnitude(Y, rule_sol)
        update = BasisFactor(XL, _in_basis(dec.basis, WY), np.eye(XL.shape[1] + lam.size))
        dec = None  # release the basis: the solution update does not read it
        sol = compress_sym((update, np.diag(np.r_[np.diagonal(SX), lam])), rule_sol)
        update = None  # the previous factor and the new columns go with it
        XL, SX = sol.C, sol.S
        report.solution_ranks.append(XL.shape[1])
        report.min_eigenvalues.append(
            float(np.diagonal(SX).min()) if SX.size else 0.0
        )
        if verify:
            report.cycle_explicit_residuals.append(
                explicit_residual_lyap(A, C, XL @ SX @ XL.T, config.norm)
            )
        if flagconv:
            converged = True
            break
        R0k = np.eye(res.rank)
        report.residual_ranks.append(res.rank)

    final = SymLowRankFactor(XL, SX)
    if project_spsd:
        final = psd_project(final)
        XL, SX = final.C, final.S
    _close_run(report, peak)
    report.finish(converged, XL.shape[1], true_residual_lyap(A, C, XL, SX, config.norm),
                  {"A": cnt_a}, t0)
    return final, report
