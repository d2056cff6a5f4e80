"""The benchmark's reference solves and the check every solve must pass.

All four use block width ``S = 3`` and ``tol_res = 1e-6`` with normalized
``random_rhs`` blocks drawn from the run's seed, as in
``tests/test_acceptance.py``, on smaller grids than it uses.  On this
benchmark's 2-core machine the same code runs up to half again as slow for
seconds to minutes at a time, so a run must hold many solves of a few
seconds or less for its median to be steady; the memory budgets shrink with
the grids so that each layer keeps about its share of the acceptance-size
solve.  Each workload makes one layer do most of the work and bypasses
another, so a change to one layer shows on one workload and not on the
others:

- ``lyap-lap2d``: ``restarted_lyap`` on ``laplacian_2d(80)``, memmax 72
  (acceptance: grid 100, memmax 96, about 6 seconds a solve).  About 30
  restarts over a symmetric operator: ``compress_sym`` dominates, SpMM runs
  on wide blocks; the projected Lyapunov solves take under a tenth.
- ``sylv-convdiff3d``: ``restarted_sylv`` on ``convdiff_3d(20)`` (wA/wB),
  memmax 198 (acceptance: grid 25, memmax 264, about 8 seconds a solve).
  Two nonsymmetric bases and a few restarts: Arnoldi orthogonalization,
  two-sided ``compress``, the ``B.transpose()`` rebuilds and SpMM weigh
  most, the projected Sylvester solves under a tenth.  Its set-up (Python
  stencil loops) is the heaviest.
- ``eksm-bcg-lap2d``: ``eksm_lyap`` with block CG inner solves, max_dim 96,
  on ``laplacian_2d(60)`` (acceptance: grid 100, over 10 seconds a solve).
  About 58% of its time is narrow (width 3) SpMM inside block CG, QRs most
  of the rest; no Arnoldi and no compression, so it is the bypass for
  changes to those layers.  A solve takes 11 steps and about 1.5 seconds.
- ``sksm-lap2d``: ``sksm_two_pass`` on ``laplacian_2d(30)``, max_m 400.
  Projected Lyapunov solves on the growing block tridiagonal H take about
  95% of its time; it is the only workload where ``dense_eq`` dominates.
  Their cost grows with the fourth power of the step count, so on the
  acceptance grid (100) one solve takes over 20 seconds.  On grid 30 a solve
  takes 48 to 56 steps, depending on the right-hand side, and about half a
  second; a run cycles through a few dozen right-hand sides, so its median
  hangs little on which ones the seed drew.

The timed solves cycle through several right-hand sides per run, so the
median averages over the step counts that vary from one right-hand side to
the next.

Block GMRES (``eksm_sylv`` with ``block-gmres``) has no workload: one solve
at the acceptance settings takes about a minute.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

import mateq
from mateq import problems

S = 3
TOL_RES = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # root span name of the solver call
    operators: Callable[[], tuple]
    solve: Callable  # (operators, rhs) -> (factors, SolveReport)
    memmax: int | None = None  # set for the restarted solvers only
    rhs_count: int = 1
    sylvester: bool = False
    reference: str = "narrow"  # kind of run.Reference its solve times are divided by

    def build(self, seed):
        """Operators plus ``rhs_count`` right-hand sides, all from ``seed``."""
        ops = self.operators()
        rhs = [
            problems.random_rhs(ops[0].n, S, seed=seed * self.rhs_count + i,
                                normalize=True, pair=self.sylvester)
            for i in range(self.rhs_count)
        ]
        return ops, rhs


def _lap2d(n_g):
    return lambda: (problems.laplacian_2d(n_g),)


def _convdiff3d():
    return problems.convdiff_3d(20, 0.01, "wA"), problems.convdiff_3d(20, 0.01, "wB")


WORKLOADS = {
    wl.name: wl
    for wl in [
        Workload(
            "lyap-lap2d", "restarted.driver", _lap2d(80),
            lambda ops, C: mateq.restarted_lyap(ops[0], C,
                                                mateq.SolverConfig(memmax=72, tol_res=TOL_RES)),
            memmax=72, rhs_count=12, reference="wide",
        ),
        Workload(
            "sylv-convdiff3d", "restarted.driver", _convdiff3d,
            lambda ops, CD: mateq.restarted_sylv(ops[0], ops[1], *CD,
                                                 mateq.SolverConfig(memmax=198, tol_res=TOL_RES)),
            memmax=198, rhs_count=8, sylvester=True, reference="wide",
        ),
        Workload(
            "eksm-bcg-lap2d", "baselines.driver", _lap2d(60),
            lambda ops, C: mateq.eksm_lyap(ops[0], C, mateq.InnerSolverConfig("block-cg", 1e-8),
                                           TOL_RES, 96),
            rhs_count=4,
        ),
        Workload(
            "sksm-lap2d", "baselines.driver", _lap2d(30),
            lambda ops, C: mateq.sksm_two_pass(ops[0], C, TOL_RES, 400),
            rhs_count=48,
        ),
    ]
}


def _csr(op):
    return scipy.sparse.csr_matrix((op.data, op.indices, op.indptr), shape=(op.n, op.n))


def _r_factor(W):
    return np.linalg.qr(W, mode="r")


def residual_lyap(A, C, XL, Smid):
    """||A X + X A* + C C*||_F for X = XL Smid XL*, with scipy's SpMM.

    The residual is [A XL, XL, C] K [A XL, XL, C]* with K holding Smid in the
    two off-diagonal blocks and the identity last, so a QR of the stacked
    factor reduces its norm to a small core.
    """
    r, s = XL.shape[1], C.shape[1]
    R = _r_factor(np.hstack([_csr(A) @ XL, XL, C]))
    K = np.zeros((2 * r + s, 2 * r + s))
    K[:r, r:2 * r] = Smid
    K[r:2 * r, :r] = Smid
    K[2 * r:, 2 * r:] = np.eye(s)
    return float(np.linalg.norm(R @ K @ R.T))


def residual_sylv(A, B, C, D, XL, XR):
    """||A X + X B + C D*||_F for X = XL XR*, with scipy's SpMM."""
    RL = _r_factor(np.hstack([_csr(A) @ XL, XL, C]))
    RR = _r_factor(np.hstack([XR, _csr(B).T @ XR, D]))
    return float(np.linalg.norm(RL @ RR.T))


def true_residual(wl, ops, rhs, fac):
    if wl.sylvester:
        return residual_sylv(ops[0], ops[1], rhs[0], rhs[1], fac.C, fac.D)
    return residual_lyap(ops[0], rhs, fac.C, fac.S)


def check(wl, ops, rhs, fac, report):
    """Reasons the solve is not correct; an empty list means it passed.

    A solve passes when it converged, its true residual (computed here, not
    by the package) is at most ``10 * max(final_residual, tol_res)``, and the
    operation counters are consistent.  Restarted solves must also stay
    within ``report.residual_bound`` and the ``memmax`` column budget.
    """
    bad = []
    if not report.converged:
        bad.append("did not converge")
    res = true_residual(wl, ops, rhs, fac)
    limit = 10 * max(report.final_residual, TOL_RES)
    if not res <= limit:
        bad.append(f"true residual {res:.3e} > {limit:.3e}")
    counters = report.counters
    if wl.memmax is not None:
        if not res <= report.residual_bound:
            bad.append(f"true residual {res:.3e} > residual bound {report.residual_bound:.3e}")
        if report.peak_live_columns > wl.memmax:
            bad.append(f"peak live columns {report.peak_live_columns} > memmax {wl.memmax}")
        if wl.sylvester and counters["A"] != counters["B"]:
            bad.append(f"A and B counters differ: {counters}")
        if not wl.sylvester and counters["A"]["a_calls"] != report.iterations:
            bad.append(f"A-calls {counters['A']['a_calls']} != iterations {report.iterations}")
    return bad


def counts(report):
    """Solver counts that must repeat exactly for a given right-hand side."""
    return {
        "iterations": report.iterations,
        "restarts": report.restarts,
        "a_calls": report.counters["A"]["a_calls"],
        "matvecs": report.counters["A"]["matvecs"],
        "solution_rank": report.solution_rank,
        "peak_live_columns": report.peak_live_columns,
        "max_residual_rank": max(report.residual_ranks, default=0),
    }
