"""Restarted block Krylov solvers with low-rank compression.

Both drivers run cycles of the block Arnoldi projection method under a hard
budget on simultaneously stored basis columns.  Each cycle solves a small
projected equation and checks a cheap residual norm at the inner steps that
:func:`_solve_due` picks, among them the cycle's last step, whose solution
alone feeds what follows.  Every cycle ends on one path, the converged one
too: the residual of the accumulated solution, itself a low-rank product
assembled from the boundary blocks of the Arnoldi relation, is compressed to
be the next cycle's right-hand side (the last cycle's is dropped), then the
solution factors are compressed, and only then is the stop test taken.

Each compression returns the exact norm of what it cut.  A restart
residual's cut is never added back, so the true residual is at most the last
cheap residual ``r`` plus ``residual_loss``, the sum of the cuts of every
cycle that restarted, plus ``(||A|| + ||B||)`` times ``solution_loss``, the
sum of the solution cuts (the telescoping identity).  The inner test and the
end-of-cycle test are therefore both ``r + residual_loss <= tol_res``, and
the report carries the bound as ``certified_residual``.  By default the
residual cut spends a share ``_LOSS_SHARE`` of ``tol_res``: each cycle cuts
at ``1 / _LOSS_SPLIT`` of what is left of it (:func:`_residual_rule`), which
keeps the residual rank, and with it the restart count, low.

Both compressions run in coefficient space (:class:`BasisFactor`).  The
residual factor ``[U_{m+1} H_{m+1,m}, V_m Y]`` is a small coefficient matrix
on the orthonormal basis ``[V_m, U_{m+1}]``, so it needs no tall QR; only
after a happy breakdown is the remainder block orthogonalized.  Both drivers
keep factors orthonormal, with eigenvalues or singular values held apart as a
vector from cycle 0 on (``XL diag(lx) XL*``, ``Ck diag(lk) Ck*``, ``QL
diag(sig) QR*``) until they return.  So each update's new columns ``V_m W``
are orthonormal, and the compressed restart residual starts the next
cycle's bases without a QR (``r0 = I``), its values in the projected
right-hand side.  ``restarted_lyap`` on an operator flagged symmetric solves
with the exactly symmetric ``0.5 (H + H.T)`` (the eigh route).  Its inner
steps take from :class:`dense_eq.ProjectedLyapunov` only the last block row
of the projected solution, which is all the cheap residual reads; the whole
solution is formed and checked once per cycle, when the cycle stops, for
the restart residual and the solution update.  Each step's projected solve
is dropped before the next one is built.

Memory at every cycle's end is released in reading order.  The restart
residual's coefficient step (:func:`compression._truncated_svd`) runs
first; before a happy breakdown it does no n-row work.  Then each side in
turn forms its new solution columns ``V_m W``, Fortran-ordered so that
compression orthonormalizes them in place, and its restart block, and drops
its Arnoldi basis: the second side's restart block never coexists with the
first side's basis.  Only then is the solution compressed.  The restart
block is dropped once it is copied into the next basis.  The steps do
independent arithmetic, so the order changes no factor.  ``B.T`` is applied
through a zero-copy view of ``B``'s arrays (:meth:`SparseOperator.transpose`).

The per-cycle iteration budget divides the column budget by the width of the
current residual factor, so the basis depth adapts automatically as the
residual rank evolves.  The attainable accuracy degrades by at most
``(restarts + 1) * (||A|| + ||B|| + 1) * tol_comp`` beyond the residual
tolerance, ``tol_comp`` the larger of the two sides' largest cuts, which is
what :func:`eval_residual_bound` evaluates.
"""

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .arnoldi import arnoldi_extend, arnoldi_init
from .compression import (
    BasisFactor,
    SymLowRankFactor,
    TruncationRule,
    _balanced,
    _combine,
    _dropped_norm,
    _eig_by_magnitude,
    _svd_by_magnitude,
    _truncated_svd,
    compress,
    compress_sym,
)
# solve_lyapunov_ldlt is not called here; bench/spans.py traces it under this module's name
from .dense_eq import ProjectedLyapunov, solve_lyapunov_ldlt, solve_sylvester_dense  # noqa: F401
from .errors import DimensionMismatchError, MemoryBudgetError
from .residuals import (
    _norm,
    explicit_residual_lyap,
    explicit_residual_sylv,
    residual_norm_lyap,
    residual_norm_sylv,
    true_residual_lyap,
    true_residual_sylv,
)
from .sparse import NORM_EST_METHOD, OpCounter, estimate_norm2

__all__ = [
    "SolverConfig",
    "SolveReport",
    "restarted_sylv",
    "restarted_lyap",
    "eval_residual_bound",
    "eval_error_bound_normal",
]

_VERIFY_MAX_N = 2000
# _solve_due's extrapolation margin (a multiple of tol_res) and its bound on skips in a row
_SOLVE_MARGIN = 30.0
_MAX_SKIPS = 7
# the default residual cut spends this share of tol_res over a run, each
# cycle at most 1 / _LOSS_SPLIT of what is left (_residual_rule)
_LOSS_SHARE = 0.1
_LOSS_SPLIT = 4.0


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
    iteration budget.  The drivers add up what each cut drops
    (``residual_loss``) and stop only when the cheap residual plus that loss
    is at most ``tol_res``.  ``None`` means: follow ``tol_comp`` when that is
    set explicitly; otherwise cut each cycle at ``max(floor, (0.1 tol_res -
    residual_loss) / 4)``, spending at most a tenth of ``tol_res`` over the
    run, with ``floor = max(sol, 1e-3 * tol_res)`` and ``sol`` the
    solution-side tolerance (at ``tol_res = 1e-6`` and the default
    ``k_max``: a first cut of 2.5e-8 and a floor of 3.3e-9 for ``||A|| =
    ||B|| = 1``, 1e-9 for norms of 1e4).  An explicit value cuts at that
    value every cycle.

    A setting out of range raises ``ValueError`` when the config is built.
    """

    memmax: int
    k_max: int = 100
    tol_res: float = 1e-6
    tol_comp: float | None = None
    tol_comp_res: float | None = None
    norm: str = "frobenius"

    def __post_init__(self):
        self.memmax = _as_count("memmax", self.memmax)
        self.k_max = _as_count("k_max", self.k_max)
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
        """Return (solution-side, residual-side) compression tolerances.

        Under the default residual rule the residual side is its floor
        (:func:`_residual_rule` cuts each cycle at or above it).
        """
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
    iteration (absolute, same scale as ``tol_res``), or None for a step that
    did not solve its projected equation (:func:`_solve_due`);
    ``cycle_starts`` marks the 0-based history
    index where each cycle begins.  Ranks are recorded after the per-cycle
    compressions.  ``peak_live_columns`` is the largest
    number of basis columns held simultaneously across all Krylov sessions.
    ``tol_comp_res`` is the largest restart-residual cut the run made.
    ``within_residual_bound`` says whether the true residual stays within
    ``residual_bound`` (None for solvers that state no bound).
    ``residual_loss`` sums the norms that the restart-residual cuts dropped
    (0 for the baselines, which do not restart), and ``solution_loss`` those
    of every solution cut.  ``converged`` says that the last cheap residual
    plus ``residual_loss`` is at most ``tol_res``; :meth:`finish` decides it
    from ``residual_history`` for every solver.  ``certified_residual`` is
    ``final_residual + residual_loss + (norm_estimate_a + norm_estimate_b)
    * solution_loss``, which bounds the true residual wherever the cheap
    residual is exact (the restarted drivers; not the extended Krylov
    solvers, whose inner solves are inexact).  A run that stops before
    convergence (``k_max``, ``max_m``, a residual of rank 0, a spent budget)
    returns its solution so far.  ``residual_gap`` is ``true_residual /
    final_residual``, nan when the cheap residual is 0.
    ``inner_tolerances`` holds, for the extended Krylov solvers, the relaxed
    tolerance of each inner solve pair they ran, the first pair included
    (None for the other solvers).
    """

    solver: str
    n: int
    s: int
    norm: str
    tol_res: float
    tol_comp: float | None = None
    memmax: int | None = None
    k_max: int | None = None
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
    inner_tolerances: list | None = None
    rhs_norm: float = 0.0
    final_residual: float = float("nan")
    final_relative_residual: float = float("nan")
    true_residual: float = float("nan")
    true_relative_residual: float = float("nan")
    residual_gap: float = float("nan")
    residual_loss: float = 0.0
    solution_loss: float = 0.0
    certified_residual: float = float("nan")
    solution_rank: int = 0
    counters: dict = field(default_factory=dict)
    efficiency: float = float("nan")
    norm_estimate_a: float = float("nan")
    norm_estimate_b: float | None = None
    norm_estimate_method: str = NORM_EST_METHOD
    residual_bound: float | None = None
    within_residual_bound: bool | None = None
    peak_live_columns: int = 0
    basis_dim: int | None = None
    wall_time_s: float = 0.0
    explicit_history: list | None = None
    cycle_explicit_residuals: list | None = None

    def to_dict(self):
        return dict(self.__dict__)

    def finish(self, solution_rank, true_residual, counters, t0):
        """Fill in the end-of-solve fields that every solver reports.

        ``converged``, ``residual_gap`` and ``certified_residual`` are
        decided here, from the last cheap residual and the losses.  A report
        with cycles also gets its totals over them and the attainable-residual
        bound they imply (:func:`eval_residual_bound`).
        ``counters`` maps operator names to their :class:`OpCounter`;
        ``efficiency`` is A's matvecs per A-call and ``t0`` is the
        ``time.perf_counter()`` value at the start of the solve.
        """
        if self.cycle_starts:
            self.iterations = len(self.residual_history)
            self.restarts = len(self.cycle_starts) - 1
            self.residual_bound = eval_residual_bound(
                self.tol_res, self.restarts, max(self.tol_comp, self.tol_comp_res),
                self.norm_estimate_a, self.norm_estimate_b,
            )
        self.final_residual = self.residual_history[-1] if self.residual_history else 0.0
        self.converged = (bool(self.residual_history)
                          and self.final_residual + self.residual_loss <= self.tol_res)
        self.certified_residual = (self.final_residual + self.residual_loss
                                   + (self.norm_estimate_a + self.norm_estimate_b)
                                   * self.solution_loss)
        self.final_relative_residual = self._relative(self.final_residual)
        self.solution_rank = solution_rank
        self.true_residual = true_residual
        self.true_relative_residual = self._relative(true_residual)
        self.residual_gap = true_residual / self.final_residual if self.final_residual else np.nan
        if self.residual_bound is not None:
            self.within_residual_bound = bool(true_residual <= self.residual_bound)
        self.counters = {name: cnt.as_dict() for name, cnt in counters.items()}
        cnt_a = counters["A"]
        self.efficiency = cnt_a.matvecs / cnt_a.a_calls if cnt_a.a_calls else float("nan")
        self.wall_time_s = time.perf_counter() - t0

    def open_cycle(self, sk, mk):
        """Open the next cycle (residual rank ``sk``, ``mk`` steps); False when ``mk < 1``.

        Only a cycle 0 that cannot run raises :class:`MemoryBudgetError`.
        """
        if mk >= 1:
            self.cycle_budgets.append(mk)
            self.cycle_starts.append(len(self.residual_history))
        elif not self.cycle_starts:
            raise MemoryBudgetError(f"cycle 0: residual rank {sk} needs more than "
                                    f"memmax = {self.memmax} columns")
        return mk >= 1

    def close_cycle(self, live_columns):
        """Record the inner iterations of the cycle just ended and its ``live_columns``.

        A Krylov session's columns only grow within a cycle, so the count at
        its end is the cycle's peak.
        """
        self.cycle_inner_iterations.append(len(self.residual_history) - self.cycle_starts[-1])
        self.peak_live_columns = max(self.peak_live_columns, live_columns)

    def _relative(self, value):
        return value / self.rhs_norm if self.rhs_norm else float("nan")


def _as_count(name, value):
    """``value`` as an int (numpy integers too); ``ValueError`` naming the setting otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_block(V):
    """Coerce a right-hand-side factor to an (n, s) float array."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    if V.ndim != 2 or V.shape[1] < 1:
        raise ValueError(f"right-hand-side factor must be n x s, got shape {V.shape}")
    return V


def _as_blocks(A, B, C, D):
    """``C`` and ``D`` as n x s blocks for the n x n coefficients ``A`` and ``B``."""
    C, D = _as_block(C), _as_block(D)
    n, s = C.shape
    if A.n != n or B.n != n or D.shape != (n, s):
        raise DimensionMismatchError("coefficient/right-hand-side dimensions disagree: "
                                     f"A {A.n}, B {B.n}, C {C.shape}, D {D.shape}")
    return C, D


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


def _residual_rule(config, report):
    """The rule of the restart-residual cut that closes the open cycle.

    An explicit ``tol_comp`` or ``tol_comp_res`` cuts at its resolved value
    every cycle.  Otherwise the cut spends ``_LOSS_SHARE * tol_res`` over the
    run: ``1 / _LOSS_SPLIT`` of what ``report.residual_loss`` has left of
    it, never below the resolved floor.  ``report.tol_comp_res`` keeps the
    largest cut, so that :func:`eval_residual_bound` bounds the run.
    """
    _, tol = config.resolved_tolerances(report.norm_estimate_a, report.norm_estimate_b)
    if config.tol_comp is None and config.tol_comp_res is None:
        tol = max(tol, (_LOSS_SHARE * config.tol_res - report.residual_loss) / _LOSS_SPLIT)
    report.tol_comp_res = max(report.tol_comp_res, tol)
    return TruncationRule(tol, config.norm)


def _new_report(solver, C, D, norm_a, norm_b, tol_res=None, memmax=None, config=None,
                verify=False):
    """Open every solver's report for right-hand side C D* and estimates of ``||A||``, ``||B||``.

    A restarted solver passes its ``config``, which also sets ``k_max`` and
    the compression tolerances; a baseline passes ``tol_res``, which must be
    positive, and its basis budget.  ``||C D*||`` is taken without forming the product.
    """
    n, s = C.shape
    if tol_res is not None and not tol_res > 0:  # NaN fails too
        raise ValueError("tol_res must be positive")
    if verify and n > _VERIFY_MAX_N:
        raise ValueError(f"verify mode forms dense residuals; n is limited to {_VERIFY_MAX_N}")
    report = SolveReport(solver=solver, n=n, s=s, norm="frobenius", tol_res=tol_res,
                         memmax=memmax, norm_estimate_a=norm_a, norm_estimate_b=norm_b)
    if config is not None:
        report.norm, report.tol_res = config.norm, config.tol_res
        report.memmax, report.k_max = config.memmax, config.k_max
        report.tol_comp, report.tol_comp_res = config.resolved_tolerances(norm_a, norm_b)
    Rc, Rd = (np.linalg.qr(M, mode="r") for M in (C, D))  # the norm does not see R's row signs
    report.rhs_norm = _norm(Rc @ Rd.T, report.norm)
    if verify:
        report.explicit_history = []
        report.cycle_explicit_residuals = []
    return report


def _solve_due(report, j, mk, width, n, blocks, broken=False):
    """Whether inner step ``j`` of the open cycle solves its projected equation.

    The one rule of the restarted drivers and of ``sksm_two_pass``'s first
    pass, which reads as one cycle from history index 0; a skipped step gets
    its None in ``residual_history`` here.  Only the last step's solve
    (``j == mk - 1``) feeds the restart; the others only test
    ``r <= tol_res``.  A step solves, in this order: in verify mode; after a
    breakdown (``broken``); at the last step; once the extended basis spans
    the whole space (``(j + 2) * width >= n``), where finite termination can
    drop the residual by orders of magnitude at once; until two of the
    cycle's residuals are known, the previous cycle's closing one counting
    as step -1; after ``_MAX_SKIPS`` skips in a row; where the last known
    residual ``r_b``, at step ``b``, extrapolates to
    ``r_b * rho^(2 (j - b)) <= _SOLVE_MARGIN * tol_res``, ``rho`` the smaller
    of this and the previous cycle's mean per-step rate (first to last known
    residual), at most 1: the squared rate and the bounded run of skips
    cover convergence that speeds up after a slow start; and last, its s x s
    SVD taken only here, where an ``(R, norm)`` of ``blocks`` is near rank
    deficiency (:func:`_near_breakdown`), since the Krylov space may end
    there and the residual collapse in one step before the breakdown test on
    R's diagonal fires.
    """
    if report.explicit_history is not None or broken or j == mk - 1 or (j + 2) * width >= n:
        return True
    hist, starts = report.residual_history, report.cycle_starts or [0]
    start = starts[-1]
    known = [i for i in range(max(start - 1, 0), len(hist)) if hist[i] is not None]
    if len(known) < 2:
        return True
    last = known[-1]
    ahead = j - (last - start)  # steps since the last known residual
    if ahead > _MAX_SKIPS:
        return True

    def rate(i, k):  # mean per-step factor from history index i to k
        return (hist[k] / hist[i]) ** (1 / (k - i)) if k > i else 1.0

    rho = min(1.0, rate(known[0], last))
    if len(starts) > 1:
        rho = min(rho, rate(max(starts[-2] - 1, 0), start - 1))
    if (hist[last] * rho ** (2 * ahead) <= _SOLVE_MARGIN * report.tol_res
            or any(_near_breakdown(R, norm) for R, norm in blocks)):
        return True
    hist.append(None)
    return False


def _near_breakdown(R, norm):
    """``sigma_min(R) <= sqrt(u) * norm``, u the unit roundoff and ``norm`` estimating ``||A||``."""
    return np.linalg.svd(R, compute_uv=False)[-1] <= np.sqrt(np.finfo(float).eps / 2) * norm


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
    Non-convergence within ``k_max`` restarts or ``memmax`` columns is
    reported through the ``converged`` flag.  With ``verify=True`` (small n
    only) every inner iteration solves its projected equation, and the dense
    residual is formed there and at every cycle boundary and stored alongside
    the cheap values.
    """
    C, D = _as_blocks(A, B, C, D)
    n, s = C.shape
    t0 = time.perf_counter()
    Bt = B.transpose()
    cnt_a, cnt_b = OpCounter(), OpCounter()
    norm_a, norm_b = estimate_norm2(A), estimate_norm2(B)
    report = _new_report("restarted-sylv", C, D, norm_a, norm_b, config=config, verify=verify)
    rule_sol = TruncationRule(report.tol_comp, config.norm)

    # running solution QL diag(sig) QR* with orthonormal QL, QR
    QL = np.zeros((n, 0))
    QR = np.zeros((n, 0))
    sig = np.zeros(0)
    Ck, Dk = C, D
    R0k = None  # restart blocks come back orthonormal: R = I
    mid = np.ones(s)  # the restart residual Ck diag(mid) Dk*, its values held apart

    for _ in range(config.k_max + 1):
        sk = Ck.shape[1]
        mk = config.memmax // (2 * sk) - 2 if sk else 0
        if not report.open_cycle(sk, mk):  # residual compressed away, or too wide for memmax
            break
        dec_a = arnoldi_init(A, Ck, cnt_a, max_steps=mk, r0=R0k)
        dec_b = arnoldi_init(Bt, Dk, cnt_b, max_steps=mk, r0=R0k)
        Ck = Dk = None  # copied into the bases
        rhs_core = (dec_a.r0 * mid) @ dec_b.r0.T
        for j in range(mk):
            arnoldi_extend(dec_a)
            arnoldi_extend(dec_b)
            if not _solve_due(report, j, mk, sk, n,
                              ((dec_a.boundary, norm_a), (dec_b.boundary, norm_b)),
                              dec_a.breakdown or dec_b.breakdown):
                continue
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
            if r + report.residual_loss <= config.tol_res or (dec_a.breakdown and dec_b.breakdown):
                break
        report.close_cycle(dec_a.materialized_columns + dec_b.materialized_columns)
        res_a, sig_res, res_b, res_cut = _truncated_svd(  # the restart residual, still in the bases
            (_residual_factor(dec_a, Y[:, -sk:], boundary_first=True),
             _residual_factor(dec_b, Y[-sk:, :].T, boundary_first=False)),
            _residual_rule(config, report))
        UY, sig_y, VY, y_cut = _svd_by_magnitude(Y, rule_sol)
        # release each basis once its new solution columns and its restart
        # block are formed: the solution update does not read it
        left = BasisFactor(QL, _in_basis(dec_a.basis, UY), np.diag(np.r_[sig, sig_y]))
        Ck = _combine(res_a)
        dec_a = res_a = None
        right = BasisFactor(QR, _in_basis(dec_b.basis, VY), np.eye(sig.size + sig_y.size))
        Dk = _combine(res_b)
        dec_b = res_b = None
        QL, sig, QR, sol_cut = compress((left, right), rule_sol)
        left = right = None  # the previous factors and the new columns go with them
        report.solution_loss += y_cut + sol_cut
        report.solution_ranks.append(sig.size)
        if verify:
            report.cycle_explicit_residuals.append(
                explicit_residual_sylv(A, B, C, D, (QL * sig) @ QR.T, config.norm)
            )
        if r + report.residual_loss <= config.tol_res:
            break
        report.residual_loss += res_cut
        R0k, mid = np.eye(sig_res.size), sig_res
        report.residual_ranks.append(sig_res.size)
    Ck = Dk = None  # the last cycle's restart residual feeds nothing

    sol = _balanced(QL, sig, QR)  # in place: no second copy of the factors
    report.finish(sol.rank, true_residual_sylv(A, B, C, D, sol.C, sol.D, config.norm),
                  {"A": cnt_a, "B": cnt_b}, t0)
    return sol, report


def restarted_lyap(A, C, config, verify=False, project_spsd=False):
    """Memory-budgeted restarted solver for A X + X A* + C C* = 0.

    Uses a single approximation space per cycle.  After the first restart the
    residual becomes indefinite, so it is held as ``Ck diag(lk) Ck*``, with
    orthonormal ``Ck``, through compression and into the projected equations;
    the solution is held as ``XL diag(lx) XL*`` until it returns as a
    :class:`SymLowRankFactor`.  ``project_spsd=True`` discards the negative
    eigenvalue part of the final solution, a column selection of ``XL``.
    """
    C, _ = _as_blocks(A, A, C, C)
    n, s = C.shape
    t0 = time.perf_counter()
    cnt_a = OpCounter()
    norm_a = estimate_norm2(A)
    report = _new_report("restarted-lyap", C, C, norm_a, norm_a, config=config, verify=verify)
    rule_sol = TruncationRule(report.tol_comp, config.norm)
    report.min_eigenvalues = []

    # running solution XL diag(lx) XL* with orthonormal XL
    XL = np.zeros((n, 0))
    lx = np.zeros(0)
    Ck, lk = C, np.ones(s)  # the residual Ck diag(lk) Ck* that the next cycle starts from
    R0k = None  # restart blocks come back orthonormal: R = I

    for _ in range(config.k_max + 1):
        sk = lk.size
        mk = config.memmax // sk - 1 if sk else 0
        if not report.open_cycle(sk, mk):  # residual compressed away, or too wide for memmax
            break
        dec = arnoldi_init(A, Ck, cnt_a, max_steps=mk, r0=R0k)
        Ck = None  # copied into the basis
        for j in range(mk):
            arnoldi_extend(dec)
            proj = H = None  # free the last step's k x k arrays before the next solve
            if not _solve_due(report, j, mk, sk, n, ((dec.boundary, norm_a),), dec.breakdown):
                continue
            # symmetric to roundoff for symmetric A; made exact, it takes the eigh route
            H = 0.5 * (dec.H + dec.H.T) if A.symmetric else dec.H
            proj = ProjectedLyapunov(H, dec.r0, np.diag(lk))
            r = residual_norm_lyap(dec.boundary, proj.last_rows(sk), config.norm)
            report.residual_history.append(r)
            if verify:
                Y = proj.solution()
                Xacc = (XL * lx) @ XL.T + dec.basis @ Y @ dec.basis.T
                report.explicit_history.append(
                    explicit_residual_lyap(A, C, Xacc, config.norm)
                )
            if r + report.residual_loss <= config.tol_res or dec.breakdown:
                break
        report.close_cycle(dec.materialized_columns)
        Y = proj.solution()
        proj = H = None
        Ck, lk, res_cut = compress_sym((_residual_factor(dec, Y[:, -sk:], boundary_first=True),
                                        np.kron([[0, 1], [1, 0]], np.eye(sk))),
                                       _residual_rule(config, report))
        WY, lam, y_cut = _eig_by_magnitude(Y, rule_sol)
        update = BasisFactor(XL, _in_basis(dec.basis, WY), np.eye(lx.size + lam.size))
        dec = None  # release the basis: the solution update does not read it
        XL, lx, sol_cut = compress_sym((update, np.diag(np.r_[lx, lam])), rule_sol)
        update = None  # the previous factor and the new columns go with it
        report.solution_loss += y_cut + sol_cut
        report.solution_ranks.append(lx.size)
        report.min_eigenvalues.append(float(lx.min()) if lx.size else 0.0)
        if verify:
            report.cycle_explicit_residuals.append(
                explicit_residual_lyap(A, C, (XL * lx) @ XL.T, config.norm)
            )
        if r + report.residual_loss <= config.tol_res:
            break
        report.residual_loss += res_cut
        R0k = np.eye(lk.size)
        report.residual_ranks.append(lk.size)
    Ck = None  # the last cycle's restart residual feeds nothing

    if project_spsd:
        # XL is orthonormal: the nearest SPSD matrix keeps the columns with a
        # positive eigenvalue (compression.psd_project)
        keep = lx > 0
        report.solution_loss += _dropped_norm(lx[~keep], config.norm)
        XL, lx = XL[:, keep], lx[keep]
    final = SymLowRankFactor(XL, np.diag(lx))
    report.finish(final.rank, true_residual_lyap(A, C, final.C, final.S, config.norm),
                  {"A": cnt_a}, t0)
    return final, report
