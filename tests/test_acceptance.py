"""Acceptance gate: one test per contract criterion, with stated tolerances.

Each test prints a PASS line on success; a failed assertion marks the
criterion red.  The benchmark-scale runs are shared through session fixtures
so the budget/rank criteria reuse the same instrumented reports.
"""

import time

import numpy as np
import pytest

from mateq import (
    InnerSolverConfig,
    LowRankFactorPair,
    SolverConfig,
    SymLowRankFactor,
    TruncationRule,
    compress,
    compress_sym,
    eksm_lyap,
    eval_error_bound_normal,
    eval_residual_bound,
    explicit_residual_lyap,
    explicit_residual_sylv,
    kron_oracle,
    laplacian_2d,
    convdiff_3d,
    psd_project,
    random_rhs,
    restarted_lyap,
    restarted_sylv,
    sksm_two_pass,
)

from conftest import as_op, normal_dense, rng_for, spd_dense, stable_dense


def normalize_pair(C, D):
    f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
    return C / np.sqrt(f), D / np.sqrt(f)


def normalize_single(C):
    G = C.T @ C
    return C / np.trace(G @ G) ** 0.25


@pytest.fixture(scope="session")
def laplacian_setup():
    A = laplacian_2d(100)
    C = random_rhs(A.n, 3, seed=0, normalize=True)
    return A, C


@pytest.fixture(scope="session")
def crit7_report(laplacian_setup):
    A, C = laplacian_setup
    cfg = SolverConfig(memmax=96, tol_res=1e-6)
    t0 = time.perf_counter()
    _, rep = restarted_lyap(A, C, cfg)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="session")
def crit9_report():
    A = convdiff_3d(25, 0.01, "wA")
    B = convdiff_3d(25, 0.01, "wB")
    C, D = random_rhs(A.n, 3, seed=0, normalize=True, pair=True)
    cfg = SolverConfig(memmax=264, tol_res=1e-6)
    t0 = time.perf_counter()
    _, rep = restarted_sylv(A, B, C, D, cfg)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def test_criterion_01_oracle_equivalence_sylvester():
    rng = rng_for(101)
    t0 = time.perf_counter()
    checked_error = 0
    for case in range(50):
        n = int(rng.integers(8, 31))
        s = int(rng.integers(1, 4))
        is_normal = case % 2 == 0
        if is_normal:
            Ad, lam_a = normal_dense(rng, n)
            Bd, lam_b = normal_dense(rng, n)
        else:
            Ad, Bd = stable_dense(rng, n), stable_dense(rng, n)
        C, D = normalize_pair(rng.standard_normal((n, s)), rng.standard_normal((n, s)))
        cfg = SolverConfig(memmax=max(64, 32 * s), tol_res=1e-8, tol_comp=1e-12)
        pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
        assert rep.converged, f"case {case} (n={n}, s={s}) did not converge"
        X = pair.to_dense()
        true_res = explicit_residual_sylv(as_op(Ad), as_op(Bd), C, D, X)
        res_bound = eval_residual_bound(
            cfg.tol_res, rep.restarts, cfg.tol_comp,
            rep.norm_estimate_a, rep.norm_estimate_b,
        )
        assert true_res <= res_bound, f"case {case}: residual {true_res:.3e} > {res_bound:.3e}"
        if is_normal:
            Xo = kron_oracle(Ad, Bd, C @ D.T)
            err_bound = eval_error_bound_normal(
                cfg.tol_res, rep.restarts, cfg.tol_comp, lam_a, lam_b
            )
            err = np.linalg.norm(X - Xo)
            assert err <= err_bound, f"case {case}: error {err:.3e} > {err_bound:.3e}"
            checked_error += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"50 Sylvester oracle solves took {elapsed:.1f}s"
    assert checked_error == 25
    print(f"\nPASS criterion 1: 50 Sylvester instances within bounds ({elapsed:.1f}s)")


def test_criterion_02_oracle_equivalence_lyapunov():
    rng = rng_for(102)
    t0 = time.perf_counter()
    for case in range(50):
        n = int(rng.integers(8, 31))
        s = int(rng.integers(1, 4))
        Ad = -spd_dense(rng, n, 1.5)  # SPD -A: symmetric, hence normal
        C = normalize_single(rng.standard_normal((n, s)))
        cfg = SolverConfig(memmax=max(48, 24 * s), tol_res=1e-8, tol_comp=1e-12)
        fac, rep = restarted_lyap(as_op(Ad), C, cfg)
        assert rep.converged, f"case {case} (n={n}, s={s}) did not converge"
        X = fac.to_dense()
        true_res = explicit_residual_lyap(as_op(Ad), C, X)
        res_bound = eval_residual_bound(
            cfg.tol_res, rep.restarts, cfg.tol_comp,
            rep.norm_estimate_a, rep.norm_estimate_a,
        )
        assert true_res <= res_bound, f"case {case}: residual {true_res:.3e} > {res_bound:.3e}"
        gap = float(np.linalg.eigvalsh(-Ad).min())
        err_bound = eval_error_bound_normal(cfg.tol_res, rep.restarts, cfg.tol_comp, gap, gap)
        Xo = kron_oracle(Ad, Ad.T, C @ C.T)
        err = np.linalg.norm(X - Xo)
        assert err <= err_bound, f"case {case}: error {err:.3e} > {err_bound:.3e}"
        assert min(rep.min_eigenvalues) >= -1e-10, \
            f"case {case}: per-cycle SPSD check failed ({min(rep.min_eigenvalues):.2e})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"50 Lyapunov oracle solves took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: 50 Lyapunov instances within bounds, SPSD per cycle ({elapsed:.1f}s)")


def test_criterion_03_cheap_residual_formulas():
    rng = rng_for(103)
    worst = 0.0
    multi_cycle = {"sylv": 0, "lyap": 0}
    for norm in ("frobenius", "spectral"):
        # Sylvester instance small enough in budget to need a restart
        n, s = 50, 2
        Ad = spd_dense(rng, n, 1.0)
        Bd = spd_dense(rng, n, 1.0)
        C, D = normalize_pair(rng.standard_normal((n, s)), rng.standard_normal((n, s)))
        cfg = SolverConfig(memmax=32, tol_res=1e-4, tol_comp=1e-14, norm=norm, k_max=10)
        _, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg, verify=True)
        assert rep.converged
        multi_cycle["sylv"] += rep.restarts
        dev = np.abs(np.array(rep.residual_history) - np.array(rep.explicit_history))
        worst = max(worst, (dev / np.array(rep.explicit_history)).max())
        # Lyapunov
        n, s = 60, 2
        Ad = -spd_dense(rng, n, 1.0)
        C = normalize_single(rng.standard_normal((n, s)))
        cfg = SolverConfig(memmax=12, tol_res=1e-4, tol_comp=1e-14, norm=norm, k_max=10)
        _, rep = restarted_lyap(as_op(Ad), C, cfg, verify=True)
        assert rep.converged
        multi_cycle["lyap"] += rep.restarts
        dev = np.abs(np.array(rep.residual_history) - np.array(rep.explicit_history))
        worst = max(worst, (dev / np.array(rep.explicit_history)).max())
    assert multi_cycle["sylv"] >= 1 and multi_cycle["lyap"] >= 1
    assert worst <= 1e-9, f"cheap/explicit residual mismatch {worst:.3e}"
    print(f"\nPASS criterion 3: cheap residuals match explicit ones (worst rel dev {worst:.2e})")


def test_criterion_04_telescoping_identity():
    rng = rng_for(104)
    worst = 0.0
    cycles_seen = 0
    for eq in ("sylv", "lyap"):
        n, s = 50, 2
        if eq == "sylv":
            Ad, Bd = spd_dense(rng, n, 1.0), spd_dense(rng, n, 1.0)
            C, D = normalize_pair(rng.standard_normal((n, s)), rng.standard_normal((n, s)))
            cfg = SolverConfig(memmax=32, tol_res=1e-4, tol_comp=1e-14, k_max=10)
            _, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg, verify=True)
        else:
            n = 60
            Ad = -spd_dense(rng, n, 1.0)
            C = normalize_single(rng.standard_normal((n, s)))
            cfg = SolverConfig(memmax=12, tol_res=1e-4, tol_comp=1e-14, k_max=10)
            _, rep = restarted_lyap(as_op(Ad), C, cfg, verify=True)
        assert rep.converged and rep.restarts >= 1
        for k, start in enumerate(rep.cycle_starts):
            end = start + rep.cycle_inner_iterations[k] - 1
            cheap_z = rep.residual_history[end]
            explicit_x = rep.cycle_explicit_residuals[k]
            rel = abs(explicit_x - cheap_z) / cheap_z
            worst = max(worst, rel)
            cycles_seen += 1
    assert cycles_seen >= 4
    assert worst <= 1e-8, f"telescoping identity violated: rel dev {worst:.3e}"
    print(f"\nPASS criterion 4: telescoping identity over {cycles_seen} cycles (worst {worst:.2e})")


def test_criterion_05_compression_guarantees():
    rng = rng_for(105)
    for case in range(200):
        n = int(rng.integers(5, 41))
        p = int(rng.integers(1, min(n, 12) + 1))
        delta = 10.0 ** rng.uniform(-10, -1)
        norm = "spectral" if case % 2 == 0 else "frobenius"
        rule = TruncationRule(delta, norm)
        pair = LowRankFactorPair(rng.standard_normal((n, p)),
                                 rng.standard_normal((n, p)))
        out = compress(pair, rule)
        E = pair.to_dense() - out.to_dense()
        err = np.linalg.norm(E, 2) if norm == "spectral" else np.linalg.norm(E)
        assert err <= delta * (1 + 1e-9), f"case {case}: error {err:.3e} > {delta:.3e}"
        again = compress(out, rule)
        assert again.rank == out.rank
        d = np.linalg.norm(again.to_dense() - out.to_dense())
        assert d <= 1e-13 * max(np.linalg.norm(out.to_dense()), 1e-30)
    for case in range(200):
        n = int(rng.integers(5, 41))
        p = int(rng.integers(1, min(n, 10) + 1))
        delta = 10.0 ** rng.uniform(-10, -1)
        norm = "spectral" if case % 2 == 0 else "frobenius"
        rule = TruncationRule(delta, norm)
        S = rng.standard_normal((p, p))
        fac = SymLowRankFactor(rng.standard_normal((n, p)), 0.5 * (S + S.T))
        out = compress_sym(fac, rule)
        assert np.allclose(out.S, np.diag(np.diagonal(out.S))), "middle factor not diagonal"
        E = fac.to_dense() - out.to_dense()
        err = np.linalg.norm(E, 2) if norm == "spectral" else np.linalg.norm(E)
        assert err <= delta * (1 + 1e-9), f"sym case {case}: error {err:.3e} > {delta:.3e}"
    print("\nPASS criterion 5: 200+200 compression cases within tolerance, idempotent, diagonal middle")


def test_criterion_06_spsd_projection_lemma():
    rng = rng_for(106)
    for case in range(100):
        n = int(rng.integers(4, 15))
        Ad = -stable_dense(rng, n)  # spectrum in the open left half plane
        C = rng.standard_normal((n, max(1, n // 4)))
        X = kron_oracle(Ad, Ad.T, C @ C.T)
        E = rng.standard_normal((n, n))
        E = 0.5 * (E + E.T)
        eps = 10.0 ** rng.uniform(-8, -1)
        Xt = X + eps * E / np.linalg.norm(E)
        Xp = psd_project(SymLowRankFactor(np.eye(n), Xt)).to_dense()
        norm_a2 = np.linalg.norm(Ad, 2)
        for ord_, tag in ((None, "fro"), (2, "2")):
            dx = np.linalg.norm(X - Xt, ord_)
            dxp = np.linalg.norm(X - Xp, ord_)
            assert dxp <= 2 * dx + 1e-12, f"case {case} ({tag}): {dxp:.3e} > 2*{dx:.3e}"
            R = Ad @ Xt + Xt @ Ad.T + C @ C.T
            Rp = Ad @ Xp + Xp @ Ad.T + C @ C.T
            lhs = np.linalg.norm(Rp, ord_)
            rhs = np.linalg.norm(R, ord_) + 2 * norm_a2 * dx
            assert lhs <= rhs + 1e-12, f"case {case} ({tag}): {lhs:.3e} > {rhs:.3e}"
    print("\nPASS criterion 6: SPSD projection lemma on 100 instances, both norms")


def test_criterion_07_laplacian_reproduction(crit7_report):
    rep = crit7_report
    assert rep.converged
    assert rep.true_residual <= rep.certified_residual * (1 + 1e-8)
    assert 15 <= rep.restarts <= 26, f"restarts {rep.restarts}"
    assert 130 <= rep.iterations <= 190, f"iterations {rep.iterations}"
    assert 45 <= rep.solution_rank <= 62, f"solution rank {rep.solution_rank}"
    assert rep.counters["A"]["a_calls"] == rep.iterations
    assert rep.efficiency >= 8, f"efficiency {rep.efficiency:.2f}"
    assert rep.wall_time_s < 120
    print(f"\nPASS criterion 7: its={rep.iterations} restarts={rep.restarts} "
          f"rank={rep.solution_rank} efficiency={rep.efficiency:.1f} "
          f"time={rep.wall_time_s:.1f}s (bands 130-190/15-26/45-62/>=8)")


def test_criterion_08_laplacian_baselines(laplacian_setup):
    A, C = laplacian_setup
    t0 = time.perf_counter()
    inner = InnerSolverConfig(kind="block-cg", tol=1e-8)
    _, eksm_rep = eksm_lyap(A, C, inner, tol_res=1e-6, max_dim=96)
    t_eksm = time.perf_counter() - t0
    assert 13 <= eksm_rep.iterations <= 17, f"EKSM outer iterations {eksm_rep.iterations}"
    assert eksm_rep.basis_dim <= 96
    assert abs(eksm_rep.efficiency - 3.0) <= 0.2
    assert t_eksm < 180

    t0 = time.perf_counter()
    _, sksm_rep = sksm_two_pass(A, C, tol_res=1e-6, max_m=400)
    t_sksm = time.perf_counter() - t0
    assert sksm_rep.converged
    assert 130 <= sksm_rep.iterations <= 170, f"SKSM iterations {sksm_rep.iterations}"
    assert abs(sksm_rep.counters["A"]["a_calls"] - 2 * sksm_rep.iterations) <= 2
    assert t_sksm < 180
    print(f"\nPASS criterion 8: EKSM(BCG) {eksm_rep.iterations} outer/dim {eksm_rep.basis_dim} "
          f"({t_eksm:.0f}s, bands 13-17/<=96); SKSM {sksm_rep.iterations} its/"
          f"{sksm_rep.counters['A']['a_calls']} A-calls ({t_sksm:.0f}s, bands 130-170/~2x)")


def test_criterion_09_convdiff_reproduction(crit9_report):
    rep = crit9_report
    assert rep.converged
    assert rep.true_residual <= rep.certified_residual * (1 + 1e-8)
    assert rep.restarts <= 4, f"restarts {rep.restarts}"
    assert 60 <= rep.iterations <= 110, f"iterations {rep.iterations}"
    assert 45 <= rep.solution_rank <= 70, f"solution rank {rep.solution_rank}"
    assert rep.counters["A"]["a_calls"] == rep.counters["B"]["a_calls"]
    assert rep.counters["A"]["matvecs"] == rep.counters["B"]["matvecs"]
    assert rep.wall_time_s < 120
    print(f"\nPASS criterion 9: its={rep.iterations} restarts={rep.restarts} "
          f"rank={rep.solution_rank} time={rep.wall_time_s:.1f}s (bands 60-110/<=4/45-70)")


def test_criterion_10_memory_budget(crit7_report, crit9_report):
    assert crit7_report.peak_live_columns <= 96, \
        f"Lyapunov run held {crit7_report.peak_live_columns} columns"
    assert crit9_report.peak_live_columns <= 264, \
        f"Sylvester run held {crit9_report.peak_live_columns} columns"
    print(f"\nPASS criterion 10: peak live columns {crit7_report.peak_live_columns}/96 "
          f"and {crit9_report.peak_live_columns}/264")


def test_criterion_11_residual_rank_band(crit7_report):
    worst = max(crit7_report.residual_ranks)
    assert worst <= 90, f"residual rank reached {worst}"
    print(f"\nPASS criterion 11: residual ranks stay <= {worst} (< 90) across all cycles")
