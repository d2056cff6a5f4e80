import numpy as np
import pytest

from mateq import (
    InnerSolverConfig,
    OpCounter,
    SolverConfig,
    SparseOperator,
    block_cg,
    block_gmres,
    eksm_lyap,
    eksm_sylv,
    kron_oracle,
    laplacian_2d,
    random_rhs,
    restarted_lyap,
    restarted_sylv,
    sksm_two_pass,
)
from mateq import baselines, dense_eq, linalg
from mateq.errors import (
    IndefiniteOperatorError,
    MemoryBudgetError,
    NonConvergenceError,
    RankDeficientBlockError,
)

from conftest import as_op, assert_same_counts, rng_for, spd_dense, stable_dense


def test_block_cg_identity_one_iteration():
    rng = rng_for(1)
    RHS = rng.standard_normal((8, 2))
    cnt = OpCounter()
    X = block_cg(SparseOperator.identity(8), RHS, 1e-8, cnt)
    assert np.allclose(X, RHS)
    assert cnt.a_calls == 1


def test_block_cg_finite_termination():
    A = SparseOperator.from_dense(np.diag(np.arange(1.0, 6.0)))
    RHS = np.eye(5)
    cnt = OpCounter()
    X = block_cg(A, RHS, 1e-12, cnt)
    assert np.linalg.norm(A.to_dense() @ X - RHS) <= 1e-10
    assert cnt.a_calls <= 5


def test_block_cg_laplacian():
    rng = rng_for(2)
    A = laplacian_2d(20)
    RHS = rng.standard_normal((400, 3))
    X = block_cg(A, RHS, 1e-8, OpCounter())
    assert np.linalg.norm(A.apply(X) - RHS) <= 1e-8 * np.linalg.norm(RHS)


def test_block_cg_rejects_indefinite():
    A = SparseOperator.from_dense(np.diag([1.0, -1.0]), symmetric=True)
    with pytest.raises(IndefiniteOperatorError):
        block_cg(A, np.ones((2, 1)), 1e-8, OpCounter())


def test_block_cg_takes_householder_on_rank_deficient_directions(monkeypatch):
    # e1 - e2 = b1 - b2 is an eigenvector, so after one step the residual
    # block, and with it the new direction block, has rank one
    calls = []
    householder = np.linalg.qr

    def spy(M, *args, **kwargs):
        calls.append(M.shape)
        return householder(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    Ad = np.diag([1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    RHS = np.zeros((11, 2))
    RHS[2:] = 1.0
    RHS[0, 0] = RHS[1, 1] = 1.0
    cnt = OpCounter()
    X = block_cg(as_op(Ad, symmetric=True), RHS, 1e-10, cnt)
    assert np.linalg.norm(Ad @ X - RHS) <= 1e-10 * np.linalg.norm(RHS)
    assert len(calls) >= 2 and cnt.a_calls >= 2  # the first block's QR, then the fallback
    # full-rank direction blocks take the Cholesky-QR pass: only the first block's QR runs
    calls.clear()
    A = laplacian_2d(20)
    RHS = rng_for(2).standard_normal((A.n, 3))
    cnt = OpCounter()
    X = block_cg(A, RHS, 1e-8, cnt)
    assert np.linalg.norm(A.apply(X) - RHS) <= 1e-8 * np.linalg.norm(RHS)
    assert len(calls) == 1 and cnt.a_calls > 10


def test_block_cg_calls_no_numpy_cholesky_or_inverse(monkeypatch):
    # the s x s factors go through LAPACK potrf/trtri, not numpy's wrappers,
    # in block CG and in the Gram-Schmidt kernel under Arnoldi and compression
    calls = []
    for name in ("cholesky", "inv"):
        real = getattr(np.linalg, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    A = laplacian_2d(20)
    RHS = rng_for(2).standard_normal((A.n, 3))
    cnt = OpCounter()
    X = block_cg(A, RHS, 1e-8, cnt)
    assert np.linalg.norm(A.apply(X) - RHS) <= 1e-8 * np.linalg.norm(RHS)
    assert cnt.a_calls > 10 and calls == []
    A = laplacian_2d(12)
    C, D = rng_for(3).standard_normal((2, A.n, 2)) / 20
    _, rep = restarted_lyap(A, C, SolverConfig(memmax=36, tol_res=1e-6))
    assert rep.converged and rep.restarts >= 1 and calls == []
    _, rep = restarted_sylv(A, A, C, D, SolverConfig(memmax=64, tol_res=1e-6))
    assert rep.converged and rep.restarts >= 1 and calls == []


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e7])
def test_direction_block_spans_and_is_orthonormal(cond):
    # block CG's direction block: one Cholesky-QR pass on a gemm Gram matrix,
    # orthonormal to about cond(D)^2 u, same range as D
    rng = rng_for(14)
    n, s = 400, 3
    u = np.finfo(float).eps / 2
    for _ in range(5):
        Q1, _ = np.linalg.qr(rng.standard_normal((n, s)))
        Q2, _ = np.linalg.qr(rng.standard_normal((s, s)))
        D = 3.0 * (Q1 * np.logspace(0, -np.log10(cond), s)) @ Q2.T
        P = np.empty_like(D)
        linalg._cholesky_qr(D, D.T @ D.copy(), P)
        assert P.shape == D.shape
        kappa = np.linalg.cond(D)
        assert np.linalg.norm(P.T @ P - np.eye(s)) <= s * np.sqrt(n) * kappa ** 2 * u
        coef = np.linalg.lstsq(P, D, rcond=None)[0]
        assert np.linalg.norm(P @ coef - D) <= 1e-13 * np.linalg.norm(D)


@pytest.mark.parametrize("diag, cols", [
    ([1.0, -1.0, 2.0], [1, 2]),  # indefinite: P* A P = diag(-1, 2)
    ([1.0, 0.0, 2.0], [1, 0]),   # A maps a direction to zero: P* A P = diag(0, 1)
])
def test_block_cg_gram_factorization_failure_raises(diag, cols):
    A = SparseOperator.from_dense(np.diag(diag), symmetric=True)
    RHS = np.eye(3)[:, cols]
    with pytest.raises(IndefiniteOperatorError):
        block_cg(A, RHS, 1e-8, OpCounter())


def test_block_gmres_identity():
    rng = rng_for(3)
    RHS = rng.standard_normal((7, 2))
    X = block_gmres(SparseOperator.identity(7), RHS, 1e-12, OpCounter())
    assert np.allclose(X, RHS)


def test_block_gmres_rotation_plus_shift():
    Ad = np.array([[1.0, -1.0], [1.0, 1.0]])
    A = SparseOperator.from_dense(Ad)
    e1 = np.array([[1.0], [0.0]])
    cnt = OpCounter()
    X = block_gmres(A, e1, 1e-12, cnt)
    assert np.linalg.norm(Ad @ X - e1) <= 1e-12
    assert cnt.a_calls <= 3  # two Arnoldi steps plus the restart check


def test_block_gmres_rank_deficient_restart_block_raises():
    b = rng_for(4).standard_normal((400, 1))
    with pytest.raises(NonConvergenceError, match="deflation unsupported"):
        block_gmres(laplacian_2d(20), np.hstack([b, b]), 1e-8, OpCounter())


@pytest.mark.parametrize("kind", ["block-cg", "block-gmres"])
def test_inner_solvers_raise_at_max_iter(monkeypatch, kind):
    monkeypatch.setattr(baselines, "_INNER_MAX_ITER", 2)
    RHS = rng_for(2).standard_normal((400, 3))
    cfg = InnerSolverConfig(kind=kind)
    cnt = OpCounter()
    with pytest.raises(NonConvergenceError, match="did not reach"):
        cfg.solve(laplacian_2d(20), RHS, cnt, cfg.tol)
    assert cnt.a_calls <= 3  # two iterations, plus block GMRES's restart check


@pytest.mark.parametrize("kind", ["block-cg", "block-gmres"])
def test_inner_solvers_return_zero_for_a_zero_right_hand_side(kind):
    cnt = OpCounter()
    X = InnerSolverConfig(kind=kind).solve(laplacian_2d(5), np.zeros((25, 2)), cnt, 1e-8)
    assert X.shape == (25, 2) and not X.any()
    assert cnt.a_calls == 0


def test_block_gmres_convdiff(monkeypatch):
    from mateq import convdiff_3d

    monkeypatch.setattr(baselines, "_INNER_MAX_ITER", 500)
    rng = rng_for(4)
    A = convdiff_3d(15, 0.01, "wA")
    RHS = rng.standard_normal((15 ** 3, 3))
    X = block_gmres(A, RHS, 1e-8, OpCounter())
    assert np.linalg.norm(A.apply(X) - RHS) <= 1e-8 * np.linalg.norm(RHS)


_RANK_DEFICIENT_RUNS = {
    "restarted-lyap": lambda A, C: restarted_lyap(A, C, SolverConfig(memmax=40, tol_res=1e-8)),
    "restarted-sylv": lambda A, C: restarted_sylv(A, A, C, C,
                                                  SolverConfig(memmax=60, tol_res=1e-8)),
    "eksm-lyap": lambda A, C: eksm_lyap(A, C, InnerSolverConfig("block-cg", 1e-10), 1e-8, 60),
    "eksm-sylv": lambda A, C: eksm_sylv(A, A, C, C, InnerSolverConfig("block-gmres", 1e-10),
                                        1e-8, 60),
    "eksm-sylv-d": lambda A, D: eksm_sylv(A, A, random_rhs(A.n, 2, seed=6), D,
                                          InnerSolverConfig("block-gmres", 1e-10), 1e-8, 60),
    "sksm-two-pass": lambda A, C: sksm_two_pass(A, C, 1e-8, 200),
}


@pytest.mark.parametrize("solver", sorted(_RANK_DEFICIENT_RUNS))
def test_rank_deficient_right_hand_side(monkeypatch, solver):
    # C = [c, c] (eksm-sylv-d: D = [c, c] beside a full-rank C): the Krylov
    # solvers raise before any inner solve of the deficient factor's basis;
    # only SKSM, whose projected equation carries R0 R0* of any rank, solves it
    inner_solves = []
    solve = InnerSolverConfig.solve

    def counted_solve(self, *args):
        inner_solves.append(args)
        return solve(self, *args)

    monkeypatch.setattr(InnerSolverConfig, "solve", counted_solve)
    A = laplacian_2d(12)
    c = random_rhs(A.n, 1, seed=5)
    C = np.hstack([c, c])
    if solver != "sksm-two-pass":
        with pytest.raises(RankDeficientBlockError, match="rank deficient"):
            _RANK_DEFICIENT_RUNS[solver](A, C)
        # eksm-sylv-d grows the (A, C) basis, one inner solve, before it checks D
        assert len(inner_solves) == (solver == "eksm-sylv-d")
        return
    _, rep = _RANK_DEFICIENT_RUNS[solver](A, C)
    assert rep.converged and rep.true_residual <= rep.tol_res


def test_eksm_invariant_start_converges_immediately():
    n = 10
    A = SparseOperator.identity(n, -1.0)
    C = np.zeros((n, 1))
    C[0] = 1.0
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    fac, rep = eksm_lyap(A, C, inner, tol_res=1e-8, max_dim=10)
    assert rep.iterations == 0
    ref = np.zeros((n, n))
    ref[0, 0] = 0.5
    assert np.linalg.norm(fac.to_dense() - ref) <= 1e-8


def test_eksm_lyap_matches_oracle():
    rng = rng_for(5)
    n = 30
    Ad = -spd_dense(rng, n)
    C = rng.standard_normal((n, 2))
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    fac, rep = eksm_lyap(as_op(Ad), C, inner, tol_res=1e-8, max_dim=40)
    Xo = kron_oracle(Ad, Ad.T, C @ C.T)
    assert np.linalg.norm(fac.to_dense() - Xo) <= 10 * 1e-8 * max(np.linalg.norm(Xo), 1)
    assert rep.basis_dim == 2 * (rep.iterations + 1) * 2


@pytest.mark.parametrize("equation", ["lyap", "sylv"])
def test_eksm_stops_unconverged_when_the_next_pair_would_outgrow_max_dim(equation):
    rng = rng_for(6)
    Ad = -spd_dense(rng, 24, 0.05)
    C = rng.standard_normal((24, 2))
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    # two pairs of 2 + 2 columns fit in max_dim = 11; a third would need 12
    if equation == "lyap":
        fac, rep = eksm_lyap(as_op(Ad), C, inner, tol_res=1e-14, max_dim=11)
    else:
        fac, rep = eksm_sylv(as_op(Ad), as_op(Ad.T), C, C, inner, tol_res=1e-14, max_dim=11)
    assert not rep.converged
    assert rep.basis_dim == 8 and rep.iterations == 1 and len(rep.inner_tolerances) == 2
    assert rep.final_residual == rep.residual_history[-1] > 1e-14
    X = fac.to_dense()
    dense = np.linalg.norm(Ad @ X + X @ Ad.T + C @ C.T)
    assert rep.true_residual == pytest.approx(dense, rel=1e-10)
    assert rep.true_residual < 0.5 * rep.rhs_norm  # the solution so far, not a zero one


def test_eksm_sylv_immediate_and_oracle():
    n = 8
    A = SparseOperator.identity(n, -1.0)
    C = np.zeros((n, 1))
    C[0] = 1.0
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    fac, rep = eksm_sylv(A, A, C, C, inner, tol_res=1e-10, max_dim=8)
    assert rep.iterations == 0
    ref = np.zeros((n, n))
    ref[0, 0] = 0.5
    assert np.linalg.norm(fac.to_dense() - ref) <= 1e-9

    rng = rng_for(7)
    n = 26
    Ad, Bd = spd_dense(rng, n), spd_dense(rng, n)
    C, D = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
    C, D = C / np.sqrt(f), D / np.sqrt(f)
    fac, rep = eksm_sylv(as_op(Ad), as_op(Bd), C, D, inner, tol_res=1e-8, max_dim=24)
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    assert np.linalg.norm(fac.to_dense() - Xo) <= 10 * 1e-8 * max(np.linalg.norm(Xo), 1)
    assert rep.counters["A"]["a_calls"] > 0 and rep.counters["B"]["a_calls"] > 0


def _convdiff_pair():
    """A nonsymmetric Sylvester problem whose inner tolerances relax well above 1e-10."""
    from mateq import convdiff_3d, random_rhs

    A, B = convdiff_3d(3, 0.1, "wA"), convdiff_3d(3, 0.1, "wB")
    C, D = random_rhs(A.n, 2, seed=4, normalize=True, pair=True)
    return A, B, C, D


@pytest.mark.parametrize("kind", ["block-cg", "block-gmres"])
def test_eksm_inner_tolerances_follow_the_relaxation_rule(kind):
    from mateq import random_rhs

    floor, c, tau_max = 1e-10, baselines._C_RELAX, baselines._TAU_MAX
    inner = InnerSolverConfig(kind, floor)
    if kind == "block-cg":
        A = laplacian_2d(10)
        _, rep = eksm_lyap(A, random_rhs(A.n, 2, seed=3, normalize=True), inner, 1e-8, 60)
    else:
        _, rep = eksm_sylv(*_convdiff_pair(), inner, 1e-8, 64)
    tols = rep.inner_tolerances
    assert len(tols) == rep.iterations + 1  # the first pair, then one per extension
    assert tols[0] == min(tau_max, max(floor, c * rep.tol_res / rep.rhs_norm))
    for tol, r in zip(tols[1:], rep.residual_history):
        assert tol == min(tau_max, max(floor, c * rep.tol_res / r))
    assert all(floor <= tol <= tau_max for tol in tols)
    assert tols[-1] > 1e4 * floor  # the rule did relax


def test_eksm_zero_right_hand_side_takes_the_loosest_inner_tolerance():
    A = laplacian_2d(5)
    fac, rep = eksm_lyap(A, np.zeros((A.n, 2)), InnerSolverConfig(), 1e-8, 20)
    assert rep.converged and fac.rank == 0
    assert rep.inner_tolerances == [baselines._TAU_MAX]


def test_eksm_sylv_relaxed_block_gmres_matches_oracle():
    A, B, C, D = _convdiff_pair()
    fac, rep = eksm_sylv(A, B, C, D, InnerSolverConfig("block-gmres", 1e-10), 1e-8, 64)
    assert rep.converged and rep.iterations >= 4
    Ad, Bd = (M.apply(np.eye(M.n)) for M in (A, B))
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    assert np.linalg.norm(fac.to_dense() - Xo) <= 10 * 1e-8 * max(np.linalg.norm(Xo), 1)


def test_extended_basis_residual_is_exact_under_loose_inverses():
    # T and the out-of-space part A U - U T come from images that SpMM applied
    # exactly and C spans the first block, so the cheap residual of U Y U* is
    # its true residual however loosely the inverse blocks were solved
    from mateq import convdiff_3d, random_rhs, residuals, solve_lyapunov_ldlt

    A = convdiff_3d(4, 0.1, "wA")
    C = random_rhs(A.n, 2, seed=5, normalize=True)
    inner = InnerSolverConfig("block-gmres", 1e-2)
    basis = baselines._ExtendedBasis(A, C, inner, OpCounter(), 16, inner.tol)
    while True:
        Y = solve_lyapunov_ldlt(basis.T, basis.rhs, np.eye(2))
        cheap = np.sqrt(2.0) * basis.residual_norm(Y)
        true = residuals.explicit_residual_lyap(A, C, basis.U @ Y @ basis.U.T)
        assert abs(cheap - true) <= 1e-10 * true
        if basis.dim == 16:
            break
        basis.extend(inner.tol)


def test_sksm_exact_after_one_step():
    n = 7
    A = SparseOperator.identity(n, -1.0)
    C = np.zeros((n, 1))
    C[0] = 1.0
    fac, rep = sksm_two_pass(A, C, tol_res=1e-10, max_m=5)
    assert rep.iterations == 1
    ref = np.zeros((n, n))
    ref[0, 0] = 0.5
    assert np.linalg.norm(fac.to_dense() - ref) <= 1e-10


def test_sksm_matches_oracle():
    rng = rng_for(8)
    n = 40
    Ad = -spd_dense(rng, n)
    C = rng.standard_normal((n, 2))
    fac, rep = sksm_two_pass(SparseOperator.from_dense(Ad, symmetric=True), C,
                             tol_res=1e-8, max_m=60)
    assert rep.converged
    Xo = kron_oracle(Ad, Ad.T, C @ C.T)
    assert np.linalg.norm(fac.to_dense() - Xo) <= 10 * 1e-8 * max(np.linalg.norm(Xo), 1)
    assert rep.counters["A"]["a_calls"] == 2 * rep.iterations - 1


def test_sksm_checks_the_projected_solution_once(monkeypatch):
    # the inner steps check only what needs no Y; the full solution is formed
    # and checked once, when pass one stops
    calls = []
    check = dense_eq._check_solution

    def spy(*args):
        calls.append(args[3].shape)
        return check(*args)

    monkeypatch.setattr(dense_eq, "_check_solution", spy)
    A = laplacian_2d(10)
    C = rng_for(16).standard_normal((A.n, 2))
    _, rep = sksm_two_pass(A, C, 1e-8, 100)
    assert rep.converged and rep.iterations >= 5
    assert calls == [(2 * rep.iterations, 2 * rep.iterations)]


def _sksm_skip_case(case):
    """``(A, C, tol_res, max_m)``: laplacian_2d(5) ends its Krylov space in a few steps.

    At ``"full-space"`` the run converges at the step whose next basis would
    span the whole space, which only the ``(j + 2) s >= n`` guard solves.
    """
    if case.startswith("lap5"):
        s, seed = map(int, case.split("-")[1:])
        A = laplacian_2d(5)
        return A, rng_for(seed).standard_normal((A.n, s)), 1e-10, A.n // s + 4
    if case == "full-space":
        rng = rng_for(1)
        A = as_op(-spd_dense(rng, 11, 0.2), symmetric=True)
        C = rng.standard_normal((11, 2))
        return A, C / np.linalg.norm(C.T @ C) ** 0.5, 1e-6, 9
    if case == "lap20":
        A = laplacian_2d(20)
        return A, random_rhs(A.n, 3, seed=1, normalize=True), 1e-8, 200
    A = as_op(-spd_dense(rng_for(8), 40), symmetric=True)  # dense SPD
    return A, rng_for(8).standard_normal((40, 2)), 1e-8, 60


_LAP5_CASES = [f"lap5-{s}-{seed}" for s in (1, 2) for seed in range(4)]


@pytest.mark.parametrize("case", _LAP5_CASES + ["full-space", "lap20", "dense-spd"])
def test_sksm_skipped_projected_solves_change_no_count(monkeypatch, case):
    A, C, tol, max_m = _sksm_skip_case(case)
    with monkeypatch.context() as every_step:
        every_step.setattr(baselines, "_solve_due", lambda *args: True)
        ref_fac, ref = sksm_two_pass(A, C, tol, max_m)
    built = []
    projected = baselines.ProjectedLyapunov
    monkeypatch.setattr(baselines, "ProjectedLyapunov",
                        lambda *args: built.append(args[0].shape[0]) or projected(*args))
    fac, rep = sksm_two_pass(A, C, tol, max_m)
    assert rep.converged and None in rep.residual_history
    assert None not in ref.residual_history and rep.residual_history[-1] is not None
    assert_same_counts(rep, ref)
    assert np.array_equal(fac.C, ref_fac.C) and np.array_equal(fac.S, ref_fac.S)
    measured = [(j + 1) * C.shape[1] for j, r in enumerate(rep.residual_history) if r is not None]
    assert built == measured


@pytest.mark.parametrize("case", _LAP5_CASES)
def test_sksm_solves_at_a_near_breakdown(monkeypatch, case):
    # the Krylov space of laplacian_2d(5) turns invariant and the residual
    # collapses in one step; with ||A|| estimated as 0 the guard sees only an
    # exact breakdown, the collapse is skipped and the run takes more steps
    A, C, tol, max_m = _sksm_skip_case(case)
    _, rep = sksm_two_pass(A, C, tol, max_m)
    monkeypatch.setattr(baselines, "estimate_norm2", lambda A: 0.0)
    _, unguarded = sksm_two_pass(A, C, tol, max_m)
    assert rep.converged and unguarded.converged
    assert unguarded.iterations > rep.iterations


def test_sksm_requires_symmetric():
    rng = rng_for(9)
    A = as_op(stable_dense(rng, 10))
    with pytest.raises(ValueError):
        sksm_two_pass(A, rng.standard_normal((10, 1)), 1e-6, 10)


@pytest.mark.parametrize("max_m", [0, -2])
def test_sksm_rejects_nonpositive_max_m(max_m):
    A = laplacian_2d(4)
    with pytest.raises(ValueError, match="max_m"):
        sksm_two_pass(A, np.ones((A.n, 1)), 1e-6, max_m)


def test_sksm_reports_a_residual_gap_instead_of_raising(monkeypatch):
    # a true residual far above the cheap one is what lost orthogonality looks like
    monkeypatch.setattr(baselines, "true_residual_lyap", lambda *args: 1e3)
    A = laplacian_2d(6)
    C = rng_for(12).standard_normal((A.n, 2))
    _, rep = sksm_two_pass(A, C, 1e-6, 40)
    assert rep.converged and rep.final_residual <= 1e-6
    assert rep.true_residual == 1e3
    assert rep.residual_gap == 1e3 / rep.final_residual > 1e9


@pytest.mark.parametrize("seed", [144, 145])
def test_sksm_converged_report_keeps_its_true_residual_within_tol_res(seed):
    # the returned solution is cut only by the slack tol_res - final_residual;
    # a spectral cut at tol_res / (2 ||A||) left these above 1e-6
    A = laplacian_2d(30)
    _, rep = sksm_two_pass(A, random_rhs(A.n, 3, seed=seed, normalize=True), 1e-6, 400)
    assert rep.converged
    assert rep.true_residual <= 1e-6


@pytest.mark.parametrize("r, norms, tolerance", [
    (0.25e-6, (1.0, 3.0), 0.75e-6 / 4.0),  # the slack the run has left
    (1e-6, (1.0, 3.0), 1e-6 / 4.0),  # none left: cut at tol_res
    (2e-6, (2.0, 2.0), 1e-6 / 4.0),
    (0.5e-6, (0.0, 0.0), 0.5e-6),
])
def test_solution_rule_cuts_in_frobenius_norm_within_the_slack(r, norms, tolerance):
    rule = baselines._solution_rule(1e-6, r, *norms)
    assert rule.norm == "frobenius"
    assert rule.tolerance == pytest.approx(tolerance, rel=1e-15)


@pytest.mark.parametrize("kwargs, match", [
    ({"kind": "cg"}, "kind"),
    ({"tol": 0.0}, "tolerance"),
    ({"tol": 1.0}, "tolerance"),
    ({"tol": 0.5}, "tolerance"),  # above the relaxed rule's cap, so no floor
])
def test_inner_config_rejects_bad_kind_or_tol(kwargs, match):
    with pytest.raises(ValueError, match=match):
        InnerSolverConfig(**kwargs)


def test_extended_basis_checks_capacity_before_any_work():
    A = laplacian_2d(4)
    C = rng_for(13).standard_normal((A.n, 2))
    cnt = OpCounter()
    with pytest.raises(MemoryBudgetError, match="needs 4 columns"):
        baselines._ExtendedBasis(A, C, InnerSolverConfig(), cnt, max_dim=3, tol=1e-8)
    assert cnt.a_calls == 0  # the first pair failed before its inner solve
    basis = baselines._ExtendedBasis(A, C, InnerSolverConfig(), cnt, max_dim=4, tol=1e-8)
    calls = cnt.a_calls
    with pytest.raises(MemoryBudgetError, match="needs 8 columns"):
        basis.extend(1e-8)
    assert cnt.a_calls == calls and basis.dim == 4


@pytest.mark.parametrize("kind", ["block-cg", "block-gmres"])
def test_eksm_lyap_rejects_non_finite_rhs(kind):
    A = laplacian_2d(4)
    C = np.ones((A.n, 2))
    C[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eksm_lyap(A, C, InnerSolverConfig(kind=kind), tol_res=1e-8, max_dim=16)


@pytest.mark.parametrize("symmetric", [True, False])
def test_eksm_lyap_symmetric_operator_takes_the_eigh_route(monkeypatch, symmetric):
    # Bartels-Stewart runs only through dense_eq.solve_sylvester_dense
    calls = []
    bartels_stewart = dense_eq.solve_sylvester_dense

    def spy(*args):
        calls.append(args[0].shape)
        return bartels_stewart(*args)

    monkeypatch.setattr(dense_eq, "solve_sylvester_dense", spy)
    if symmetric:
        A, inner = laplacian_2d(12), InnerSolverConfig(kind="block-cg", tol=1e-10)
    else:
        A = as_op(-stable_dense(rng_for(14), 60))
        inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    C = rng_for(15).standard_normal((A.n, 2))
    C /= np.linalg.norm(C.T @ C) ** 0.5
    _, rep = eksm_lyap(A, C, inner, tol_res=1e-8, max_dim=60)
    assert rep.iterations >= 2
    assert len(calls) == (0 if symmetric else rep.iterations + 1)
    assert rep.true_residual <= 10 * rep.tol_res


def test_sksm_two_pass_matches_stored_basis_reference():
    # reference: same Lanczos recurrence but with the whole basis stored
    rng = rng_for(10)
    n = 30
    Ad = -spd_dense(rng, n)
    A = SparseOperator.from_dense(Ad, symmetric=True)
    C = rng.standard_normal((n, 2))
    fac, rep = sksm_two_pass(A, C, tol_res=1e-7, max_m=20)
    m, s = rep.iterations, 2

    from mateq import qr_economy, solve_lyapunov_ldlt

    U, R0 = qr_economy(C)
    blocks = [U]
    alphas, betas = [], []
    for j in range(m):
        W = Ad @ blocks[-1]
        if j > 0:
            W -= blocks[-2] @ betas[-1].T
        alpha = blocks[-1].T @ W
        alpha = 0.5 * (alpha + alpha.T)
        W -= blocks[-1] @ alpha
        Qn, beta = qr_economy(W)
        alphas.append(alpha)
        if j < m - 1:
            betas.append(beta)
            blocks.append(Qn)
    H = np.zeros((m * s, m * s))
    for i, a in enumerate(alphas):
        H[i * s:(i + 1) * s, i * s:(i + 1) * s] = a
    for i, b in enumerate(betas):
        H[(i + 1) * s:(i + 2) * s, i * s:(i + 1) * s] = b
        H[i * s:(i + 1) * s, (i + 1) * s:(i + 2) * s] = b.T
    Ctil = np.zeros((m * s, s))
    Ctil[:s] = R0
    Y = solve_lyapunov_ldlt(H, Ctil, np.eye(s))
    Uall = np.hstack(blocks)
    X_ref = Uall @ Y @ Uall.T
    assert np.linalg.norm(fac.to_dense() - X_ref) <= 1e-7 * max(np.linalg.norm(X_ref), 1)


def test_eksm_sylv_convdiff_benchmark_scale():
    # two-sided extended Krylov on the 15625-dof convection-diffusion pair;
    # bases of at most 132 columns suffice at this tolerance, and the second
    # operator is the harder one for the inner solver
    from mateq import convdiff_3d, random_rhs

    A = convdiff_3d(25, 0.01, "wA")
    B = convdiff_3d(25, 0.01, "wB")
    C, D = random_rhs(A.n, 3, seed=0, normalize=True, pair=True)
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-8)
    fac, rep = eksm_sylv(A, B, C, D, inner, tol_res=1e-6, max_dim=132)
    assert rep.iterations <= 21
    assert rep.basis_dim <= 132
    assert rep.true_relative_residual <= 2e-6
    assert rep.counters["B"]["a_calls"] >= rep.counters["A"]["a_calls"]


def test_all_solvers_agree_on_shared_instance():
    from mateq import SolverConfig, SparseOperator, restarted_lyap

    rng = rng_for(11)
    n, s, tol = 30, 2, 1e-8
    Ad = -spd_dense(rng, n)
    A = SparseOperator.from_dense(Ad, symmetric=True)
    C = rng.standard_normal((n, s))
    G = C.T @ C
    C = C / np.trace(G @ G) ** 0.25
    Xo = kron_oracle(Ad, Ad.T, C @ C.T)
    scale = 10 * tol * np.linalg.norm(Xo)

    fac, _ = restarted_lyap(A, C, SolverConfig(memmax=48, tol_res=tol, tol_comp=1e-12))
    assert np.linalg.norm(fac.to_dense() - Xo) <= scale
    inner = InnerSolverConfig(kind="block-gmres", tol=1e-10)
    fac, _ = eksm_lyap(A, C, inner, tol_res=tol, max_dim=40)
    assert np.linalg.norm(fac.to_dense() - Xo) <= scale
    fac, _ = sksm_two_pass(A, C, tol_res=tol, max_m=40)
    assert np.linalg.norm(fac.to_dense() - Xo) <= scale
