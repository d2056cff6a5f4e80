"""What every solver shares: the report it opens and finishes, and its shape checks."""

import numpy as np
import pytest

from mateq import (
    InnerSolverConfig,
    SolverConfig,
    SparseOperator,
    convdiff_3d,
    eksm_lyap,
    eksm_sylv,
    estimate_norm2,
    laplacian_2d,
    random_rhs,
    restarted_lyap,
    restarted_sylv,
    sksm_two_pass,
)
from mateq import arnoldi, baselines, restarted
from mateq.errors import DimensionMismatchError

LAP = laplacian_2d(10)
CD_A = convdiff_3d(4, 1.0, "wA")
CD_B = convdiff_3d(4, 1.0, "wB")
C_LAP = random_rhs(LAP.n, 2, seed=3, normalize=True)
C_CD, D_CD = random_rhs(CD_A.n, 2, seed=4, normalize=True, pair=True)
CG = InnerSolverConfig("block-cg", 1e-10)
GMRES = InnerSolverConfig("block-gmres", 1e-10)

SOLVES = {
    "restarted-lyap": lambda: restarted_lyap(LAP, C_LAP, SolverConfig(memmax=32, tol_res=1e-8)),
    # numpy integers are budgets too
    "restarted-lyap-k_max": lambda: restarted_lyap(
        LAP, C_LAP, SolverConfig(memmax=np.int64(32), tol_res=1e-8, k_max=np.int64(2))),
    # a residual cut above tol_res compresses to rank 0 before the cheap residual converges
    "restarted-lyap-rank0": lambda: restarted_lyap(
        LAP, C_LAP, SolverConfig(memmax=16, tol_res=1e-8, tol_comp=1e-3)),
    "restarted-sylv": lambda: restarted_sylv(
        CD_A, CD_B, C_CD, D_CD, SolverConfig(memmax=48, tol_res=1e-8)),
    # budget stops: a restart residual of rank 8 is too wide for memmax, a
    # third basis pair of 4 columns for max_dim
    "restarted-lyap-memmax": lambda: restarted_lyap(
        LAP, C_LAP, SolverConfig(memmax=12, tol_res=1e-8)),
    "restarted-sylv-memmax": lambda: restarted_sylv(
        CD_A, CD_B, C_CD, D_CD, SolverConfig(memmax=24, tol_res=1e-8)),
    "eksm-lyap": lambda: eksm_lyap(LAP, C_LAP, CG, 1e-8, 60),
    "eksm-sylv": lambda: eksm_sylv(CD_A, CD_B, C_CD, D_CD, GMRES, 1e-8, 40),
    "eksm-lyap-max_dim": lambda: eksm_lyap(LAP, C_LAP, CG, 1e-8, np.int64(12)),
    "eksm-sylv-max_dim": lambda: eksm_sylv(CD_A, CD_B, C_CD, D_CD, GMRES, 1e-8, 12),
    "sksm-two-pass": lambda: sksm_two_pass(LAP, C_LAP, 1e-8, 100),
}
UNCONVERGED = {"restarted-lyap-k_max", "restarted-lyap-rank0", "restarted-lyap-memmax",
               "restarted-sylv-memmax", "eksm-lyap-max_dim", "eksm-sylv-max_dim"}
# (memmax, k_max) each solve's report opens with
BUDGETS = {
    "restarted-lyap": (32, 100),
    "restarted-lyap-k_max": (32, 2),
    "restarted-lyap-rank0": (16, 100),
    "restarted-sylv": (48, 100),
    "restarted-lyap-memmax": (12, 100),
    "restarted-sylv-memmax": (24, 100),
    "eksm-lyap": (60, None),
    "eksm-sylv": (40, None),
    "eksm-lyap-max_dim": (12, None),
    "eksm-sylv-max_dim": (12, None),
    "sksm-two-pass": (None, None),
}


def _problem(name):
    """(A, B, C, D) of the equation the named solve runs on."""
    if "sylv" in name:
        return CD_A, CD_B, C_CD, D_CD
    return LAP, LAP, C_LAP, C_LAP


@pytest.mark.parametrize("name", SOLVES)
def test_finish_identities(name):
    fac, rep = SOLVES[name]()
    A, B, C, D = _problem(name)
    rhs_norm = np.linalg.norm(C @ D.T)
    assert abs(rep.rhs_norm - rhs_norm) <= 1e-12 * rhs_norm
    assert rep.final_residual == rep.residual_history[-1]
    assert rep.converged == (rep.final_residual <= rep.tol_res)
    assert rep.final_relative_residual == rep.final_residual / rep.rhs_norm
    assert rep.true_relative_residual == rep.true_residual / rep.rhs_norm
    assert rep.residual_gap == rep.true_residual / rep.final_residual
    a = rep.counters["A"]
    assert rep.efficiency == a["matvecs"] / a["a_calls"]
    assert rep.solution_rank == fac.C.shape[1]
    assert rep.wall_time_s > 0
    assert (rep.n, rep.s, rep.norm, rep.tol_res) == (A.n, C.shape[1], "frobenius", 1e-8)
    assert (rep.memmax, rep.k_max) == BUDGETS[name]
    assert {type(v) for v in (rep.memmax, rep.k_max)} <= {int, type(None)}
    assert rep.norm_estimate_method == "power-iteration(20 iters, seed 42)"
    # every solver reports the estimates it computed (the baselines use them
    # for their solution cut), not NaN placeholders
    assert rep.norm_estimate_a == estimate_norm2(A)
    assert rep.norm_estimate_b == estimate_norm2(B)
    if name.startswith("restarted"):
        cycles = rep.restarts + 1
        assert len(rep.cycle_budgets) == len(rep.cycle_starts) == cycles
        assert len(rep.cycle_inner_iterations) == cycles
        assert sum(rep.cycle_inner_iterations) == rep.iterations
        assert len(rep.solution_ranks) == cycles
        assert rep.solution_ranks[-1] == rep.solution_rank
        assert rep.restarts >= 1
        assert rep.within_residual_bound == (rep.true_residual <= rep.residual_bound)
    else:
        assert rep.residual_bound is None and rep.within_residual_bound is None
        assert rep.tol_comp is None and rep.tol_comp_res is None
    assert (rep.inner_tolerances is not None) == name.startswith("eksm")
    if name == "restarted-lyap-rank0":
        assert rep.residual_ranks[-1] == 0
    assert rep.converged == (name not in UNCONVERGED)
    if name.endswith("max_dim"):
        assert rep.basis_dim == 12 and rep.iterations == 2
    if name.endswith("memmax"):  # the last restart residual cannot run a step
        assert rep.residual_ranks[-1] == 8


def test_residual_gap_is_nan_when_the_cheap_residual_is_zero():
    fac, rep = eksm_lyap(LAP, np.zeros((LAP.n, 2)), CG, 1e-8, 20)
    assert rep.final_residual == 0 and fac.rank == 0
    assert np.isnan(rep.residual_gap)


def test_within_residual_bound_flags_a_run_cut_short():
    _, done = SOLVES["restarted-lyap"]()
    _, cut = restarted_lyap(LAP, C_LAP, SolverConfig(memmax=32, tol_res=1e-8, k_max=0))
    assert done.within_residual_bound is True
    assert not cut.converged and cut.true_residual > cut.residual_bound
    assert cut.within_residual_bound is False


A6, A5 = SparseOperator.identity(6, -1.0), SparseOperator.identity(5, -1.0)
C6, C5, C6W = np.ones((6, 1)), np.ones((5, 1)), np.ones((6, 2))
SOLVERS = {
    "restarted-lyap": lambda A, B, C, D: restarted_lyap(A, C, SolverConfig(memmax=12)),
    "restarted-sylv": lambda A, B, C, D: restarted_sylv(A, B, C, D, SolverConfig(memmax=12)),
    "eksm-lyap": lambda A, B, C, D: eksm_lyap(A, C, CG, 1e-8, 12),
    "eksm-sylv": lambda A, B, C, D: eksm_sylv(A, B, C, D, GMRES, 1e-8, 12),
    "sksm-two-pass": lambda A, B, C, D: sksm_two_pass(A, C, 1e-8, 10),
}
MISMATCHES = {
    "A-vs-C": (A6, A6, C5, C5),
    "B-vs-C": (A6, A5, C6, C6),
    "D-rows": (A6, A6, C6, C5),
    "D-width": (A6, A6, C6, C6W),
}


# a Lyapunov solver reads neither B nor D
@pytest.mark.parametrize("name, case", [
    (name, case) for name in SOLVERS for case in MISMATCHES
    if name.endswith("sylv") or case == "A-vs-C"
])
def test_every_solver_rejects_dimension_mismatch_before_any_product(monkeypatch, name, case):
    for module in (arnoldi, baselines):
        monkeypatch.setattr(module, "spmm", lambda *args: pytest.fail("product before check"))
    with pytest.raises(DimensionMismatchError, match="dimensions disagree"):
        SOLVERS[name](*MISMATCHES[case])


@pytest.mark.parametrize("name", ["restarted-lyap", "restarted-sylv"])
def test_cycle_close_records_the_per_step_peak_of_live_columns(monkeypatch, name):
    # each cycle's sessions only grow, so the columns they hold when the cycle
    # closes are the largest any of its steps held
    held = []  # after each extension; restarted_sylv extends side A, then side B
    extend = restarted.arnoldi_extend

    def spy(dec):
        out = extend(dec)
        held.append(dec.materialized_columns)
        return out

    monkeypatch.setattr(restarted, "arnoldi_extend", spy)
    _, rep = SOLVES[name]()
    steps = held if name == "restarted-lyap" else [a + b for a, b in zip(held[::2], held[1::2])]
    assert rep.restarts >= 1
    assert rep.peak_live_columns == max(steps)


# each baseline with its budget, named as the error names it
BASELINES_AT = {
    "eksm-lyap": ("max_dim", lambda tol, budget=12: eksm_lyap(A6, C6, CG, tol, budget)),
    "eksm-sylv": ("max_dim", lambda tol, budget=12: eksm_sylv(A6, A6, C6, C6, GMRES, tol, budget)),
    "sksm-two-pass": ("max_m", lambda tol, budget=10: sksm_two_pass(A6, C6, tol, budget)),
}


@pytest.mark.parametrize("name", sorted(BASELINES_AT))
@pytest.mark.parametrize("tol_res, budget", [
    (0.0, None), (-1.0, None), (float("nan"), None), (1e-6, 12.0), (1e-6, np.float64(12)),
], ids=["0.0", "-1.0", "nan", "budget-12.0", "budget-np.float64"])
def test_every_baseline_rejects_a_nonpositive_tol_res_before_any_product(monkeypatch, name,
                                                                         tol_res, budget):
    # and a budget that is not an integer
    for module in (arnoldi, baselines):
        monkeypatch.setattr(module, "spmm", lambda *args: pytest.fail("product before check"))
    setting, solve = BASELINES_AT[name]
    if budget is None:
        with pytest.raises(ValueError, match="tol_res must be positive"):
            solve(tol_res)
    else:
        with pytest.raises(ValueError, match=f"{setting} must be an integer"):
            solve(tol_res, budget)
