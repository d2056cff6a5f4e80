import numpy as np
import pytest

from mateq import (
    SolverConfig,
    SparseOperator,
    convdiff_3d,
    dense_eq,
    estimate_norm2,
    eval_error_bound_normal,
    eval_residual_bound,
    kron_oracle,
    laplacian_2d,
    psd_project,
    random_rhs,
    restarted,
    restarted_lyap,
    restarted_sylv,
)
from mateq.errors import MemoryBudgetError

from conftest import as_op, assert_same_counts, normal_dense, rng_for, spd_dense, stable_dense


def test_identity_coefficients_converge_immediately():
    n = 12
    A = SparseOperator.identity(n)
    e1 = np.zeros((n, 1))
    e1[0] = 1.0
    cfg = SolverConfig(memmax=16, tol_res=1e-12, tol_comp=1e-14)
    pair, rep = restarted_sylv(A, A, e1, e1, cfg)
    assert rep.converged
    assert rep.restarts == 0
    assert rep.iterations == 1
    ref = np.zeros((n, n))
    ref[0, 0] = -0.5
    assert np.linalg.norm(pair.to_dense() - ref) <= 1e-12


def test_lyapunov_scalar_identity():
    n = 9
    A = SparseOperator.identity(n, -1.0)
    e1 = np.zeros((n, 1))
    e1[0] = 1.0
    cfg = SolverConfig(memmax=12, tol_res=1e-12, tol_comp=1e-14)
    fac, rep = restarted_lyap(A, e1, cfg)
    assert rep.converged and rep.iterations == 1
    ref = np.zeros((n, n))
    ref[0, 0] = 0.5
    assert np.linalg.norm(fac.to_dense() - ref) <= 1e-12


def test_sylvester_matches_oracle_within_bounds():
    rng = rng_for(1)
    n, s = 30, 2
    M1, M2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    Ad = M1 @ M1.T / n + np.eye(n)
    Bd = M2 @ M2.T / n + np.eye(n)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
    C, D = C / np.sqrt(f), D / np.sqrt(f)
    cfg = SolverConfig(memmax=64, tol_res=1e-8, tol_comp=1e-12)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.converged
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    gap = np.linalg.eigvalsh(Ad).min() + np.linalg.eigvalsh(Bd).min()
    err_bound = eval_error_bound_normal(cfg.tol_res, rep.restarts, 1e-12, gap, 0.0)
    assert np.linalg.norm(pair.to_dense() - Xo) <= err_bound
    assert rep.true_residual <= rep.residual_bound


def test_lyapunov_matches_oracle_and_stays_spsd():
    rng = rng_for(2)
    n, s = 25, 2
    Ad = -spd_dense(rng, n)
    C = rng.standard_normal((n, s))
    cfg = SolverConfig(memmax=24, tol_res=1e-8, tol_comp=1e-12)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg)
    assert rep.converged
    Xo = kron_oracle(Ad, Ad.T, C @ C.T)
    gap = np.linalg.eigvalsh(-Ad).min()
    bound = eval_error_bound_normal(cfg.tol_res, rep.restarts, 1e-12, gap, gap)
    assert np.linalg.norm(fac.to_dense() - Xo) <= bound
    assert min(rep.min_eigenvalues) >= -1e-10


def test_restart_cycle_budget_rule():
    rng = rng_for(3)
    n, s = 40, 2
    Ad, Bd = spd_dense(rng, n, 0.3), spd_dense(rng, n, 0.3)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    cfg = SolverConfig(memmax=40, tol_res=1e-11, tol_comp=1e-12, tol_comp_res=1e-4,
                       k_max=30)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.restarts >= 1
    # m_k = floor(memmax / (2 s_k)) - 2 with s_k the incoming residual rank
    widths = [s] + rep.residual_ranks[:-1] if rep.residual_ranks else [s]
    for k, m_k in enumerate(rep.cycle_budgets):
        assert m_k == cfg.memmax // (2 * widths[k]) - 2
    assert rep.peak_live_columns <= cfg.memmax


def test_lyap_cycle_budget_rule():
    rng = rng_for(4)
    n, s = 40, 2
    Ad = -spd_dense(rng, n, 0.3)
    C = rng.standard_normal((n, s))
    cfg = SolverConfig(memmax=24, tol_res=1e-10, tol_comp=1e-12, tol_comp_res=1e-4,
                       k_max=30)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg)
    widths = [s] + rep.residual_ranks[:-1] if rep.residual_ranks else [s]
    for k, m_k in enumerate(rep.cycle_budgets):
        assert m_k == cfg.memmax // widths[k] - 1
    assert rep.peak_live_columns <= cfg.memmax


def test_memory_budget_error():
    # cycle 0 needs memmax >= 2 s (Lyapunov) or 6 s (Sylvester) columns;
    # below that open_cycle raises, at or above it the run starts
    rng = rng_for(5)
    A = as_op(spd_dense(rng, 10))
    C = rng.standard_normal((10, 2))
    with pytest.raises(MemoryBudgetError, match="cycle 0"):
        restarted_lyap(A, C, SolverConfig(memmax=3, tol_res=1e-8))
    with pytest.raises(MemoryBudgetError, match="cycle 0"):
        restarted_sylv(A, A, C, C, SolverConfig(memmax=11, tol_res=1e-8))
    _, rep = restarted_lyap(A, C, SolverConfig(memmax=6, tol_res=1e-8))
    assert rep.cycle_budgets[0] == 2
    _, rep = restarted_sylv(A, A, C, C, SolverConfig(memmax=12, tol_res=1e-8))
    assert rep.cycle_budgets[0] == 1


@pytest.mark.parametrize("driver", ["sylv", "lyap"])
def test_restart_residual_too_wide_for_memmax_stops_the_run(driver):
    # memmax 20: a residual of rank 2 runs, one of rank 4 (sylv) or 16 (lyap) cannot
    rng = rng_for(0)
    n, s = 24, 2
    Ad, Bd = stable_dense(rng, n, 0.2), stable_dense(rng, n, 0.2)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    cfg = SolverConfig(memmax=20, tol_res=1e-10, tol_comp=1e-14, k_max=30)
    if driver == "sylv":
        fac, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg, verify=True)
        X = fac.to_dense()
        dense = np.linalg.norm(Ad @ X + X @ Bd + C @ D.T)
        budget = cfg.memmax // (2 * rep.residual_ranks[-1]) - 2
    else:
        fac, rep = restarted_lyap(as_op(Ad), C, cfg, verify=True)
        X = fac.to_dense()
        dense = np.linalg.norm(Ad @ X + X @ Ad.T + C @ C.T)
        budget = cfg.memmax // rep.residual_ranks[-1] - 1
    assert budget < 1 and not rep.converged
    assert rep.restarts == (0 if driver == "sylv" else 2)
    assert len(rep.cycle_budgets) == len(rep.residual_ranks) == rep.restarts + 1
    assert rep.final_residual == rep.residual_history[-1] > cfg.tol_res
    # the solution so far is the last cycle's, and its true residual is reported
    assert rep.cycle_explicit_residuals[-1] == pytest.approx(dense, rel=1e-10)
    assert rep.true_residual == pytest.approx(dense, rel=1e-10)
    assert rep.residual_gap == rep.true_residual / rep.final_residual


def test_nonconvergence_is_flagged_not_raised():
    rng = rng_for(6)
    Ad = spd_dense(rng, 30, 0.05)
    C = rng.standard_normal((30, 1))
    cfg = SolverConfig(memmax=8, tol_res=1e-14, tol_comp=1e-15, k_max=2)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg)
    assert not rep.converged
    assert rep.restarts == 2
    assert len(rep.residual_history) == rep.iterations


def test_determinism():
    rng = rng_for(7)
    Ad = spd_dense(rng, 20)
    C = rng.standard_normal((20, 2))
    cfg = SolverConfig(memmax=20, tol_res=1e-9)
    fac1, rep1 = restarted_lyap(as_op(Ad), C, cfg)
    fac2, rep2 = restarted_lyap(as_op(Ad), C, cfg)
    assert np.array_equal(fac1.C, fac2.C)
    assert np.array_equal(fac1.S, fac2.S)
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_counter_conservation():
    rng = rng_for(8)
    Ad = spd_dense(rng, 36, 0.3)
    C = rng.standard_normal((36, 3))
    cfg = SolverConfig(memmax=30, tol_res=1e-8, tol_comp=1e-10, tol_comp_res=1e-4,
                       k_max=20)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg)
    widths = [3] + rep.residual_ranks
    expected = sum(w * its for w, its in zip(widths, rep.cycle_inner_iterations))
    assert rep.counters["A"]["matvecs"] == expected
    assert rep.counters["A"]["a_calls"] == rep.iterations


def test_verify_mode_records_explicit_residuals():
    rng = rng_for(9)
    Ad = -spd_dense(rng, 18)
    C = rng.standard_normal((18, 2))
    cfg = SolverConfig(memmax=16, tol_res=1e-7, tol_comp=1e-13)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg, verify=True)
    assert len(rep.explicit_history) == rep.iterations
    rel = np.abs(np.array(rep.explicit_history) - np.array(rep.residual_history))
    assert np.all(rel <= 1e-6 * np.array(rep.explicit_history))


@pytest.mark.parametrize("symmetric", [True, False])
def test_lyap_symmetric_operator_takes_the_eigh_route(monkeypatch, symmetric):
    # Bartels-Stewart runs only through dense_eq.solve_sylvester_dense
    calls = []
    bartels_stewart = dense_eq.solve_sylvester_dense

    def spy(*args):
        calls.append(args[0].shape)
        return bartels_stewart(*args)

    monkeypatch.setattr(dense_eq, "solve_sylvester_dense", spy)
    rng = rng_for(11)
    S = spd_dense(rng, 60)
    S = 0.5 * (S + S.T)
    K = rng.standard_normal((60, 60)) / 60
    A = as_op(S, symmetric=True) if symmetric else as_op(S + 0.2 * (K - K.T))
    C = rng.standard_normal((60, 2))
    C /= np.linalg.norm(C.T @ C) ** 0.5
    cfg = SolverConfig(memmax=12, tol_res=1e-4, tol_comp=1e-14, k_max=10)
    _, rep = restarted_lyap(A, C, cfg, verify=True)
    assert rep.converged and rep.restarts >= 1
    assert len(calls) == (0 if symmetric else rep.iterations)
    cheap, explicit = np.array(rep.residual_history), np.array(rep.explicit_history)
    assert np.all(np.abs(cheap - explicit) <= 1e-9 * explicit)


def test_lyap_checks_the_projected_solution_once_per_cycle(monkeypatch):
    # on the eigh route the inner steps check only what needs no Y; the full
    # solution is formed and checked once, when the cycle stops
    calls = []
    check = dense_eq._check_solution

    def spy(*args):
        calls.append(args[3].shape)
        return check(*args)

    monkeypatch.setattr(dense_eq, "_check_solution", spy)
    A = laplacian_2d(12)
    C = random_rhs(A.n, 2, seed=0, normalize=True)
    _, rep = restarted_lyap(A, C, SolverConfig(memmax=32, tol_res=1e-6))
    assert rep.converged and rep.restarts >= 1
    assert len(calls) == len(rep.cycle_starts) == rep.restarts + 1
    assert rep.iterations > len(calls)


def _skip_panel_case(case, driver):
    """``(A, B, C, D, config)`` of one panel case for ``driver``."""
    if case == "full-space":
        # n = 22, s = 1: the run converges at step 20, where the extended
        # basis spans the whole space
        rng = rng_for(1 if driver == "lyap" else 192)
        A, B = (as_op(stable_dense(rng, 22, 0.2)) for _ in range(2))
        C, D = (M / np.linalg.norm(M) for M in (rng.standard_normal((22, 1)) for _ in range(2)))
        return A, B, C, D, SolverConfig(memmax=24 if driver == "lyap" else 48, tol_res=1e-6,
                                        tol_comp=1e-14, k_max=30)
    if case == "dense":
        rng = rng_for(24)
        A, B = (as_op(stable_dense(rng, 30)) for _ in range(2))
        C, D = (M / np.linalg.norm(M) for M in (rng.standard_normal((30, 2)) for _ in range(2)))
        memmax, tol_res = (30, 80), 1e-6
    elif case == "laplacian":
        A = B = laplacian_2d(12)
        C, D = random_rhs(A.n, 2, seed=4, normalize=True, pair=True)
        memmax, tol_res = (40, 90), 1e-8
    else:
        A, B = convdiff_3d(5, 0.01, "wA"), convdiff_3d(5, 0.01, "wB")
        C, D = random_rhs(A.n, 2, seed=4, normalize=True, pair=True)
        memmax, tol_res = (40, 120), 1e-6
    return A, B, C, D, SolverConfig(memmax=memmax[driver == "sylv"], tol_res=tol_res, k_max=30)


def _solve_panel_case(driver, A, B, C, D, cfg, verify):
    if driver == "sylv":
        return restarted_sylv(A, B, C, D, cfg, verify=verify)[1]
    return restarted_lyap(A, C / np.linalg.norm(C.T @ C) ** 0.5, cfg, verify=verify)[1]


@pytest.mark.parametrize("driver", ["sylv", "lyap"])
@pytest.mark.parametrize("case", ["full-space", "dense", "laplacian", "convdiff"])
def test_skipped_projected_solves_change_no_count(case, driver):
    # verify mode solves the projected equation at every step
    problem = _skip_panel_case(case, driver)
    ref = _solve_panel_case(driver, *problem, verify=True)
    rep = _solve_panel_case(driver, *problem, verify=False)
    assert rep.converged and None in rep.residual_history
    assert None not in ref.residual_history
    assert_same_counts(rep, ref)
    for start, its in zip(rep.cycle_starts, rep.cycle_inner_iterations):
        # a cycle's first and last steps are measured
        assert None not in (rep.residual_history[start], rep.residual_history[start + its - 1])


@pytest.mark.parametrize("driver", ["sylv", "lyap"])
def test_full_space_steps_always_solve(monkeypatch, driver):
    # without the (j + 2) * s >= n guard the converging step is skipped and
    # the run takes a step more
    problem = _skip_panel_case("full-space", driver)
    ref = _solve_panel_case(driver, *problem, verify=False)
    solve_due = restarted._solve_due
    monkeypatch.setattr(restarted, "_solve_due", lambda report, j, mk, width, n, *rest:
                        solve_due(report, j, mk, width, 10**9, *rest))
    rep = _solve_panel_case(driver, *problem, verify=False)
    assert ref.iterations == 21 and rep.iterations > ref.iterations


# each reason _solve_due takes, as a change to a step that would skip: the
# residuals 1 and 0.9 extrapolate to 0.73 at step 2 of 20, far above
# 30 tol_res, and the new block's R factor is the identity
_DUE_REASONS = {
    "verify": {"explicit_history": []},
    "broken": {"broken": True},
    "last-step": {"j": 19},
    "full-space": {"n": 4},
    "one-known-residual": {"history": [1.0], "j": 1},
    "skip-bound": {"history": [1.0, 0.9] + [None] * 7, "j": 9},
    "extrapolation": {"history": [1.0, 1e-5]},
    "near-breakdown": {"blocks": ((np.eye(2), 1.0), (np.diag([1.0, 1e-9]), 1.0))},
}


@pytest.mark.parametrize("reason", [*_DUE_REASONS, "skip"])
def test_solve_due_takes_each_reason_in_order(monkeypatch, reason):
    case = {"history": [1.0, 0.9], "j": 2, "n": 100, "broken": False, "explicit_history": None,
            "blocks": ((np.eye(2), 1.0),), **_DUE_REASONS.get(reason, {})}
    report = restarted.SolveReport(solver="restarted-lyap", n=case["n"], s=1, norm="frobenius",
                                   tol_res=1e-6, residual_history=list(case["history"]),
                                   cycle_starts=[0], explicit_history=case["explicit_history"])
    svds = []
    near_breakdown = restarted._near_breakdown
    monkeypatch.setattr(restarted, "_near_breakdown",
                        lambda R, norm: svds.append(R) or near_breakdown(R, norm))
    due = restarted._solve_due(report, case["j"], 20, 1, case["n"], case["blocks"],
                               case["broken"])
    skip = reason == "skip"
    assert due is not skip
    assert report.residual_history == case["history"] + [None] * skip
    # the s x s SVD runs only where no earlier reason decided
    assert len(svds) == (len(case["blocks"]) if reason in ("skip", "near-breakdown") else 0)


@pytest.mark.parametrize("driver, memmax", [("lyap", 24), ("lyap", 60), ("sylv", 48), ("sylv", 120)])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_collapsing_step_is_solved(monkeypatch, driver, memmax, seed):
    # from these columns laplacian_2d(6)'s Krylov space turns invariant to
    # roundoff at step 19, where the residual falls from about 1e-8 to 1e-19
    # while min|diag R| stays above the breakdown test's 1e-12 ||A||; the
    # sqrt(u) ||A|| guard on the new block's R solves that step, as verify
    # mode does, and without it the run takes a step more
    A = laplacian_2d(6)
    C = rng_for(seed).standard_normal((A.n, 1))
    cfg = SolverConfig(memmax=memmax, tol_res=1e-11)

    def solve(verify=False):
        if driver == "sylv":
            return restarted_sylv(A, A, C, C, cfg, verify=verify)[1]
        return restarted_lyap(A, C, cfg, verify=verify)[1]

    ref, rep = solve(verify=True), solve()
    assert rep.converged and ref.iterations == 19
    assert_same_counts(rep, ref)
    monkeypatch.setattr(restarted, "_near_breakdown", lambda R, norm: False)
    assert solve().iterations == 20


def test_slow_start_needs_the_skip_bound(monkeypatch):
    # the residual falls slowly over the first steps, then fast: with no bound
    # on a run of skips the converging step is skipped and the run goes on
    A = convdiff_3d(3, 0.01, "wA")
    C = random_rhs(A.n, 1, seed=0, normalize=True)
    cfg = SolverConfig(memmax=29, tol_res=1e-10, k_max=40)
    ref = restarted_lyap(A, C, cfg, verify=True)[1]
    assert_same_counts(restarted_lyap(A, C, cfg)[1], ref)
    monkeypatch.setattr(restarted, "_MAX_SKIPS", 10**6)
    assert restarted_lyap(A, C, cfg)[1].iterations > ref.iterations == 25


def test_rank_zero_residual_means_converged():
    # identity coefficients: first correction is exact, residual compresses to 0
    n = 8
    A = SparseOperator.identity(n)
    C = np.zeros((n, 1))
    C[0] = 1.0
    cfg = SolverConfig(memmax=12, tol_res=1e-30, tol_comp=1e-12, k_max=3)
    pair, rep = restarted_sylv(A, A, C, C, cfg)
    assert rep.converged


def test_psd_projection_option():
    rng = rng_for(10)
    Ad = -spd_dense(rng, 16)
    C = rng.standard_normal((16, 2))
    cfg = SolverConfig(memmax=20, tol_res=1e-8)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg, project_spsd=True)
    assert np.all(np.diagonal(fac.S) > 0)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_psd_projection_matches_psd_project(sign):
    # -L is stable, so X is positive definite; L itself gives a negative
    # definite X, whose projection is empty
    L = laplacian_2d(25)
    A = SparseOperator(L.n, L.indptr, L.indices, sign * L.data, symmetric=True)
    C = random_rhs(A.n, 2, seed=3, normalize=True)
    cfg = SolverConfig(memmax=40, tol_res=1e-8)
    plain, _ = restarted_lyap(A, C, cfg)
    fac, rep = restarted_lyap(A, C, cfg, project_spsd=True)
    ref = psd_project(plain)
    assert fac.rank == ref.rank == rep.solution_rank
    if sign < 0:
        X, Xref = fac.to_dense(), ref.to_dense()
        assert fac.rank > 0
        assert np.linalg.norm(X - Xref) <= 1e-13 * np.linalg.norm(Xref)
    else:
        assert plain.rank > 0
        assert fac.rank == 0 and fac.C.shape == (A.n, 0)


def test_eval_residual_bound_values():
    assert eval_residual_bound(1e-6, 5, 0.0, 3.0, 4.0) == 1e-6
    val = eval_residual_bound(1e-6, 20, 1e-12, 8.0, 8.0)
    assert np.isclose(val, 1.000000357e-6, rtol=1e-12)
    with pytest.raises(ValueError):
        eval_residual_bound(-1e-6, 0, 0.0, 1.0, 1.0)


def test_eval_error_bound_values():
    assert eval_error_bound_normal(1e-6, 3, 0.0, 0.5, 0.5) == 1e-6
    val = eval_error_bound_normal(1e-6, 4, 1e-10, 1.0, 1.0)
    assert np.isclose(val, (1e-6 + 5e-10) / 2 + 5e-10, rtol=1e-12)
    with pytest.raises(ValueError):
        eval_error_bound_normal(1e-6, 1, 1e-12, 1.0, -1.0)


def test_normal_coefficients_error_bound():
    rng = rng_for(11)
    n = 20
    Ad, lam_a = normal_dense(rng, n)
    Bd, lam_b = normal_dense(rng, n)
    C, D = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
    C, D = C / np.sqrt(f), D / np.sqrt(f)
    cfg = SolverConfig(memmax=24, tol_res=1e-9, tol_comp=1e-13, k_max=20)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.converged
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    bound = eval_error_bound_normal(cfg.tol_res, rep.restarts, cfg.tol_comp, lam_a, lam_b)
    assert np.linalg.norm(pair.to_dense() - Xo) <= bound


def test_default_tolerance_rule_satisfies_budget_inequality():
    rng = rng_for(12)
    Ad = spd_dense(rng, 15)
    A = as_op(Ad)
    cfg = SolverConfig(memmax=20, tol_res=1e-6, k_max=37)
    fac, rep = restarted_lyap(A, rng.standard_normal((15, 2)), cfg)
    na = rep.norm_estimate_a
    assert (cfg.k_max + 1) * (na + na + 1) * rep.tol_comp <= cfg.tol_res * (1 + 1e-12)


@pytest.mark.parametrize("norm, tol_res_fac", [(1.0, 1e-6 / (101 * 3)), (1e4, 1e-9)])
def test_default_residual_tolerance_is_the_coarser_rule(norm, tol_res_fac):
    # tol_comp_res=None takes max(solution-side tol, 1e-3 * tol_res)
    cfg = SolverConfig(memmax=40, tol_res=1e-6)
    sol, res = cfg.resolved_tolerances(norm, norm)
    assert sol == pytest.approx(1e-6 / (101 * (2 * norm + 1)))
    assert res == pytest.approx(tol_res_fac)
    assert SolverConfig(memmax=40, tol_comp=1e-11).resolved_tolerances(norm, norm) == (1e-11, 1e-11)


def test_negative_definite_coefficients_match_oracle():
    # stable coefficients on the other side of the axis: A = -(M M^T/n + I)
    rng = rng_for(13)
    n, s = 30, 2
    M1, M2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    Ad = -(M1 @ M1.T / n + np.eye(n))
    Bd = -(M2 @ M2.T / n + np.eye(n))
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
    C, D = C / np.sqrt(f), D / np.sqrt(f)
    cfg = SolverConfig(memmax=64, tol_res=1e-8, tol_comp=1e-12)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.converged
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    # the error bound applies through the sign-flipped system, same gap
    gap = np.linalg.eigvalsh(-Ad).min() + np.linalg.eigvalsh(-Bd).min()
    bound = eval_error_bound_normal(cfg.tol_res, rep.restarts, cfg.tol_comp, gap, 0.0)
    assert np.linalg.norm(pair.to_dense() - Xo) <= bound


@pytest.mark.parametrize("field, value, match", [
    ("memmax", 96.0, "memmax must be an integer"),
    ("memmax", np.float64(96), "memmax must be an integer"),
    ("k_max", 3.0, "k_max must be an integer"),
    ("k_max", -1, "k_max"),
    ("tol_res", 0.0, "tol_res"),
    ("tol_res", -1e-6, "tol_res"),
    ("tol_comp", 0.0, "tol_comp"),
    ("tol_comp_res", -1e-9, "tol_comp_res"),
    ("norm", "nuclear", "norm"),
])
def test_config_validation_rejects_bad_settings(field, value, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(**{"memmax": 40, field: value})


def test_right_hand_side_block_shapes():
    v = np.arange(1.0, 5.0)
    assert restarted._as_block(v).shape == (4, 1)
    with pytest.raises(ValueError, match="n x s"):
        restarted._as_block(np.ones((4, 2, 1)))
    with pytest.raises(ValueError, match="n x s"):
        restarted._as_block(np.ones((4, 0)))
    # a vector right-hand side solves as a one-column block
    A = SparseOperator.identity(6, -1.0)
    e1 = np.zeros(6)
    e1[0] = 1.0
    fac, rep = restarted_lyap(A, e1, SolverConfig(memmax=12, tol_res=1e-12, tol_comp=1e-14))
    assert rep.converged and rep.s == 1 and fac.rank == 1


def test_drivers_reject_dimension_mismatch():
    A, B = SparseOperator.identity(6), SparseOperator.identity(5)
    C = np.ones((6, 1))
    cfg = SolverConfig(memmax=12)
    with pytest.raises(ValueError, match="dimensions disagree"):
        restarted_lyap(A, np.ones((5, 1)), cfg)
    with pytest.raises(ValueError, match="dimensions disagree"):
        restarted_sylv(A, B, C, C, cfg)
    with pytest.raises(ValueError, match="dimensions disagree"):
        restarted_sylv(A, A, C, np.ones((6, 2)), cfg)


def test_verify_mode_is_limited_to_small_n():
    n = restarted._VERIFY_MAX_N + 1
    A = SparseOperator.identity(n, -1.0)
    C = np.ones((n, 1))
    cfg = SolverConfig(memmax=12)
    with pytest.raises(ValueError, match="verify mode"):
        restarted_lyap(A, C, cfg, verify=True)
    with pytest.raises(ValueError, match="verify mode"):
        restarted_sylv(A, A, C, C, cfg, verify=True)


def test_sylv_solution_update_columns_are_orthonormal(monkeypatch):
    """Each cycle's new columns V_m W reach compression orthonormal, sigma held apart."""
    seen = []
    compress = restarted.compress

    def spy(pair, rule):
        seen.extend(f.Z.copy() for f in pair)  # compression overwrites Z
        return compress(pair, rule)

    monkeypatch.setattr(restarted, "compress", spy)
    rng = rng_for(3)
    n, s = 40, 2
    Ad, Bd = spd_dense(rng, n, 0.3), spd_dense(rng, n, 0.3)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    cfg = SolverConfig(memmax=40, tol_res=1e-11, tol_comp=1e-12, tol_comp_res=1e-4, k_max=30)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.restarts >= 2 and len(seen) == 2 * (rep.restarts + 1)
    for Z in seen:
        assert np.linalg.norm(Z.T @ Z - np.eye(Z.shape[1])) <= 1e-12


def test_restarted_lyap_at_a_huge_operator_scale():
    """||A|| near 1e153: the norm estimate, and with it tol_comp, keeps its scale."""
    L = laplacian_2d(10)
    A = SparseOperator(L.n, L.indptr, L.indices, L.data * 1e150, symmetric=True)
    C = random_rhs(L.n, 2, seed=0, normalize=True) * 1e75
    fac, rep = restarted_lyap(A, C, SolverConfig(memmax=40, tol_res=1e-6 * 1e150))
    assert rep.norm_estimate_a == pytest.approx(1e150 * estimate_norm2(L), rel=1e-12)
    assert rep.converged and fac.rank > 0
    assert rep.true_relative_residual <= 1e-6


def test_restarted_lyap_at_a_tiny_operator_scale():
    """||A|| near 1e-157: unscaled squares in the residual norms underflow to 0.0.

    The cheap and the true residual would then read 0.0 and the run would
    stop as converged while the rescaled problem's relative residual is
    2.4e-2.  Taken of power-of-two-scaled arguments, the norms keep their
    scale, and the true residual matches the dense one.
    """
    L = laplacian_2d(10)
    A = SparseOperator(L.n, L.indptr, L.indices, L.data * 1e-160, symmetric=True)
    C = random_rhs(L.n, 2, seed=0, normalize=True) * 1e-80
    fac, rep = restarted_lyap(A, C, SolverConfig(memmax=40, tol_res=1e-166))
    assert not (rep.converged and rep.true_residual == 0.0)
    assert rep.final_residual > 0.0 and rep.true_residual > 0.0
    # the dense residual of the problem scaled back by 1e160: A X + X A + C C*
    # with A and C C* both of scale 1e-160 and X of scale one
    X, Ld, C1 = fac.to_dense(), L.to_dense(), C * 1e80
    dense = np.linalg.norm(Ld @ X + X @ Ld + C1 @ C1.T) * 1e-160
    assert rep.true_residual == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("grid, seeds", [(6, range(4)), (7, range(4)), (8, range(2))],
                         ids=["grid6", "grid7", "grid8"])
def test_error_bound_holds_against_the_oracle_on_laplacians(grid, seeds):
    """``eval_error_bound_normal`` bounds the error of converged Laplacian solves.

    A symmetric positive definite A is normal with ``Re lambda_1(A) =
    lambda_min(A)``.  The runs alternate memmax 24 and 30, so some restart;
    the worst error-to-bound ratio was 0.18.  Grid 8 (n = 64) takes two
    seeds: its Kronecker oracle is a dense 4096 x 4096 solve.
    """
    A = laplacian_2d(grid)
    Ad = A.to_dense()
    lam_min = float(np.linalg.eigvalsh(Ad)[0])
    for seed in seeds:
        C = random_rhs(A.n, 2, seed=seed, normalize=True)
        fac, rep = restarted_lyap(A, C, SolverConfig(memmax=(24, 30)[seed % 2], tol_res=1e-6))
        assert rep.converged
        bound = eval_error_bound_normal(rep.tol_res, rep.restarts,
                                        max(rep.tol_comp, rep.tol_comp_res), lam_min, lam_min)
        err = np.linalg.norm(fac.to_dense() - kron_oracle(Ad, Ad, C @ C.T))
        assert err <= bound, f"grid {grid} seed {seed}: error {err:.3e} > bound {bound:.3e}"
