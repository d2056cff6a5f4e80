import numpy as np
import pytest
import scipy.linalg

from mateq import (
    SolverConfig,
    SparseOperator,
    baselines,
    dense_eq,
    kron_oracle,
    laplacian_2d,
    random_rhs,
    restarted,
    restarted_lyap,
    sksm_two_pass,
    solve_lyapunov_ldlt,
    solve_sylvester_dense,
)
from mateq.dense_eq import ProjectedLyapunov
from mateq.errors import DimensionMismatchError, SingularOperatorError

from conftest import rng_for, spd_dense, stable_dense


def test_scalar_case():
    Y = solve_sylvester_dense(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]]))
    assert np.allclose(Y, [[-1.0]])


def test_scalar_shift_closed_form():
    rng = rng_for(1)
    for _ in range(100):
        k, l = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a, b = rng.uniform(0.2, 5.0, size=2)
        F = rng.standard_normal((k, l))
        Y = solve_sylvester_dense(a * np.eye(k), b * np.eye(l), F)
        assert np.allclose(Y, -F / (a + b), atol=1e-13)


def test_sylvester_matches_kron_oracle():
    rng = rng_for(2)
    H = stable_dense(rng, 7)
    G = stable_dense(rng, 5)
    F = rng.standard_normal((7, 5))
    Y = solve_sylvester_dense(H, G, F)
    # the oracle solves A X + X B + RHS = 0 with B = G^T here
    Yo = kron_oracle(H, G.T, F)
    assert np.linalg.norm(Y - Yo) <= 1e-10 * np.linalg.norm(Yo)


def test_sylvester_oracle_equivalence_sweep():
    rng = rng_for(3)
    for _ in range(15):
        k = int(rng.integers(1, 13))
        l = int(rng.integers(1, 13))
        H, G = stable_dense(rng, k), stable_dense(rng, l)
        F = rng.standard_normal((k, l))
        Y = solve_sylvester_dense(H, G, F)
        Yo = kron_oracle(H, G.T, F)
        assert np.linalg.norm(Y - Yo) <= 1e-9 * max(np.linalg.norm(Yo), 1e-30)


def test_sylvester_residual_contract():
    rng = rng_for(4)
    H, G = stable_dense(rng, 9), stable_dense(rng, 6)
    F = rng.standard_normal((9, 6))
    Y = solve_sylvester_dense(H, G, F)
    resid = np.linalg.norm(H @ Y + Y @ G.T + F)
    bound = 1e-10 * (np.linalg.norm(H) + np.linalg.norm(G)) * np.linalg.norm(Y) \
        + 1e-12 * np.linalg.norm(F)
    assert resid <= bound


def test_sylvester_detects_singular_operator():
    H = np.array([[1.0]])
    G = np.array([[-1.0]])  # lambda_H + lambda_G = 0
    with pytest.raises(SingularOperatorError):
        solve_sylvester_dense(H, G, np.array([[1.0]]))


@pytest.mark.parametrize("bad, match", [
    (np.nan, "non-finite entries"),
    (1.0, "solve residual"),  # finite and of sane size, but not a solution
], ids=["non-finite", "wrong"])
def test_sylvester_rejects_a_bad_solve(monkeypatch, bad, match):
    monkeypatch.setattr(scipy.linalg, "solve_sylvester", lambda H, G, F: np.full(F.shape, bad))
    with pytest.raises(SingularOperatorError, match=match):
        solve_sylvester_dense(-np.eye(2), -np.eye(3), np.ones((2, 3)))


def test_sylvester_reports_lapack_failure(monkeypatch):
    def fail(H, G, F):
        raise np.linalg.LinAlgError("no luck")

    monkeypatch.setattr(scipy.linalg, "solve_sylvester", fail)
    with pytest.raises(SingularOperatorError, match="Bartels-Stewart solve failed: no luck"):
        solve_sylvester_dense(-np.eye(2), -np.eye(3), np.ones((2, 3)))


@pytest.mark.parametrize("k, l", [(0, 2), (3, 0)])
def test_sylvester_empty_right_hand_side(k, l):
    Y = solve_sylvester_dense(-np.eye(k), -np.eye(l), np.zeros((k, l)))
    assert Y.shape == (k, l)


def test_sylvester_shape_check():
    with pytest.raises(DimensionMismatchError):
        solve_sylvester_dense(np.eye(2), np.eye(2), np.ones((3, 2)))


def test_lyapunov_shape_check():
    with pytest.raises(DimensionMismatchError):
        solve_lyapunov_ldlt(-np.eye(3), np.ones((2, 1)), np.eye(1))


def test_lyapunov_scalar():
    Y = solve_lyapunov_ldlt(np.array([[-1.0]]), np.array([[1.0]]), np.array([[2.0]]))
    assert np.allclose(Y, [[1.0]])


def test_lyapunov_zero_middle():
    rng = rng_for(5)
    H = -spd_dense(rng, 4)
    Y = solve_lyapunov_ldlt(H, rng.standard_normal((4, 2)), np.zeros((2, 2)))
    assert np.allclose(Y, 0.0)


def _swap_middle(p):
    S = np.zeros((2 * p, 2 * p))
    S[:p, p:] = np.eye(p)
    S[p:, :p] = np.eye(p)
    return S


def test_lyapunov_swap_middle_matches_oracle():
    rng = rng_for(6)
    H = -spd_dense(rng, 8)
    Ctil = rng.standard_normal((8, 4))
    S = _swap_middle(2)
    Y = solve_lyapunov_ldlt(H, Ctil, S)
    Yo = kron_oracle(H, H.T, Ctil @ S @ Ctil.T)
    assert np.linalg.norm(Y - Yo) <= 1e-10 * np.linalg.norm(Yo)
    assert np.linalg.norm(Y - Y.T) <= 1e-12 * max(np.linalg.norm(Y), 1e-30)


def _symmetric_definite(rng, k):
    return -spd_dense(rng, k)


def _symmetric_indefinite(rng, k):
    # eigenvalues of both signs whose pairwise sums stay at least 0.5 from zero
    lam = np.concatenate([-rng.uniform(2.0, 4.0, size=k - k // 2),
                          rng.uniform(0.5, 1.5, size=k // 2)])
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    H = (Q * lam) @ Q.T
    return 0.5 * (H + H.T)


@pytest.mark.parametrize("make_h", [_symmetric_definite, _symmetric_indefinite])
def test_lyapunov_symmetric_route_matches_oracle(make_h):
    rng = rng_for(9)
    H = make_h(rng, 10)
    assert np.array_equal(H, H.T)
    Ctil = rng.standard_normal((10, 4))
    S = _swap_middle(2)
    Y = solve_lyapunov_ldlt(H, Ctil, S)
    W = Ctil @ S @ Ctil.T
    Yo = kron_oracle(H, H.T, W)
    assert np.linalg.norm(Y - Yo) <= 1e-10 * np.linalg.norm(Yo)
    assert np.array_equal(Y, Y.T)
    Ybs = solve_sylvester_dense(H, H, W)
    Ybs = 0.5 * (Ybs + Ybs.T)
    assert np.linalg.norm(Y - Ybs) <= 1e-12 * np.linalg.norm(Ybs)


def test_lyapunov_nonsymmetric_matches_oracle():
    rng = rng_for(10)
    H = -stable_dense(rng, 9)
    assert not np.array_equal(H, H.T)
    Ctil = rng.standard_normal((9, 4))
    S = _swap_middle(2)
    Y = solve_lyapunov_ldlt(H, Ctil, S)
    Yo = kron_oracle(H, H.T, Ctil @ S @ Ctil.T)
    assert np.linalg.norm(Y - Yo) <= 1e-10 * np.linalg.norm(Yo)
    assert np.linalg.norm(Y - Y.T) <= 1e-12 * max(np.linalg.norm(Y), 1e-30)


def test_lyapunov_detects_singular_operator():
    H = np.diag([1.0, -1.0])  # lambda_1 + lambda_2 = 0
    with pytest.raises(SingularOperatorError):
        solve_lyapunov_ldlt(H, np.ones((2, 1)), np.eye(1))
    # a right-hand side with no component on the singular pair is consistent
    Y = solve_lyapunov_ldlt(H, np.eye(2), np.eye(2))
    assert np.array_equal(Y, np.diag([-0.5, 0.5]))


def _nonsymmetric(rng, k):
    return -stable_dense(rng, k)


@pytest.mark.parametrize("make_h", [_symmetric_definite, _symmetric_indefinite, _nonsymmetric])
def test_projected_lyapunov_last_rows_match_full_solve(make_h):
    # the head R0 stands for Ctil = [R0; 0]; S is indefinite
    rng = rng_for(12)
    k, s = 12, 2
    H = make_h(rng, k)
    R0 = rng.standard_normal((2 * s, 2 * s))
    S = _swap_middle(s)
    Ctil = np.zeros((k, 2 * s))
    Ctil[: 2 * s] = R0
    Y = solve_lyapunov_ldlt(H, Ctil, S)
    proj = ProjectedLyapunov(H, R0, S)
    assert np.linalg.norm(proj.last_rows(s) - Y[-s:]) <= 1e-13 * np.linalg.norm(Y[-s:])
    assert np.linalg.norm(proj.solution() - Y) <= 1e-13 * np.linalg.norm(Y)
    with pytest.raises(DimensionMismatchError):
        ProjectedLyapunov(H, rng.standard_normal((k + 1, s)), np.eye(s))


def _zero_sum_pair_operator():
    # Lanczos and Arnoldi from e1 reproduce T, so the second projected matrix
    # is [[1, 0.5], [0.5, -1]]: its eigenvalues +-sqrt(1.25) sum to zero
    T = np.diag([1.0, -1.0, 2.0, 3.0, 4.0, 5.0])
    i = np.arange(5)
    T[i, i + 1] = T[i + 1, i] = 0.5
    return SparseOperator.from_dense(T, symmetric=True)


@pytest.mark.parametrize("driver", ["sksm", "restarted"])
def test_singular_projected_equation_raises_at_an_intermediate_step(monkeypatch, driver):
    built, checked = [], []
    projected, check = ProjectedLyapunov, dense_eq._check_solution

    def spy_projected(H, R0, S):
        built.append(H.shape[0])
        return projected(H, R0, S)

    def spy_check(*args):
        checked.append(args[0].shape[0])
        return check(*args)

    module = baselines if driver == "sksm" else restarted
    monkeypatch.setattr(module, "ProjectedLyapunov", spy_projected)
    monkeypatch.setattr(dense_eq, "_check_solution", spy_check)
    A = _zero_sum_pair_operator()
    C = np.zeros((A.n, 1))
    C[0] = 1.0
    with pytest.raises(SingularOperatorError):
        if driver == "sksm":
            sksm_two_pass(A, C, 1e-10, 6)
        else:
            restarted_lyap(A, C, SolverConfig(memmax=12, tol_res=1e-10))
    # step 1 solves, step 2 of a budget of 6 (11) raises from the checks that
    # need no Y; the full solution is never formed
    assert built == [1, 2]
    assert checked == []


def test_symmetric_lyapunov_needs_no_schur_forms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exactly symmetric H must not reach Bartels-Stewart")

    monkeypatch.setattr(scipy.linalg, "solve_sylvester", refuse)
    rng = rng_for(11)
    H = -spd_dense(rng, 6)
    Ctil = rng.standard_normal((6, 2))
    Y = solve_lyapunov_ldlt(H, Ctil, np.eye(2))
    assert np.linalg.norm(H @ Y + Y @ H + Ctil @ Ctil.T) <= 1e-12 * np.linalg.norm(Ctil) ** 2
    A = laplacian_2d(8)
    _, rep = sksm_two_pass(A, random_rhs(A.n, 2, seed=0, normalize=True), 1e-8, 60)
    assert rep.converged


def _kron_condition(A, B):
    """2-norm condition number of kron_oracle's operator X -> A X + X B."""
    K = np.kron(np.eye(B.shape[0]), A) + np.kron(B.T, np.eye(A.shape[0]))
    sv = np.linalg.svd(K, compute_uv=False)
    return sv[0] / sv[-1]


def _near_singular_equation(route, delta):
    """The solve of an equation whose eigenvalue sums come within ``delta`` of zero.

    Returns the solve and kron_oracle's ``(A, B, RHS)`` for the same equation.
    Bartels-Stewart gets nonnormal H and G with eigenvalues 1 of H and
    ``-1 + delta`` of G.  The eigh route gets an exactly symmetric H with
    eigenvalues -1, ``1 - delta`` and ``-delta / 2``, so both a pair
    ``lam_i + lam_j`` and a double ``2 lam_i`` sum to ``-delta``.
    """
    rng = rng_for(31)
    if route == "bartels-stewart":
        V = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        W = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        H = V @ np.diag([1.0, 2.0, 3.0, 1.5, 2.5]) @ np.linalg.inv(V)
        G = W @ np.diag([-1.0 + delta, 4.0, 5.0, 3.5]) @ np.linalg.inv(W)
        F = rng.standard_normal((5, 4))
        return (lambda: solve_sylvester_dense(H, G, F)), (H, G.T, F)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    H = (Q * np.array([-3.0, -2.0, -1.0, 1.0 - delta, -0.5 * delta])) @ Q.T
    H = 0.5 * (H + H.T)
    Ctil = np.zeros((5, 2))
    Ctil[:2] = R0 = rng.standard_normal((2, 2))
    return (lambda: ProjectedLyapunov(H, R0, np.eye(2)).solution()), (H, H, Ctil @ Ctil.T)


@pytest.mark.parametrize("route", ["bartels-stewart", "eigh"])
@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 0.0])
def test_near_singular_projected_equation_is_solved_or_rejected(route, delta):
    # both solves are backward stable, so each lies within about eps * cond of
    # the exact solution; at delta = 0 there is none, and the solve must raise
    solve, (A, B, RHS) = _near_singular_equation(route, delta)
    if delta == 0:
        with pytest.raises(SingularOperatorError):
            solve()
        return
    cond = _kron_condition(A, B)
    assert cond >= 1 / delta  # the operator has an eigenvalue of size delta
    Yo = kron_oracle(A, B, RHS)
    assert np.linalg.norm(solve() - Yo) <= 100 * np.finfo(float).eps * cond * np.linalg.norm(Yo)


def test_lyapunov_rejects_asymmetric_middle():
    with pytest.raises(ValueError):
        solve_lyapunov_ldlt(np.array([[-1.0]]), np.ones((1, 2)),
                            np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kron_identity_pair():
    rng = rng_for(7)
    M = rng.standard_normal((4, 4))
    X = kron_oracle(np.eye(4), np.eye(4), M)
    assert np.allclose(X, -M / 2)


def test_kron_diagonal():
    X = kron_oracle(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.eye(2))
    assert np.allclose(X, np.diag([-1.0, -0.5]))


def test_kron_self_check_by_substitution():
    rng = rng_for(8)
    A, B = stable_dense(rng, 10), stable_dense(rng, 7)
    RHS = rng.standard_normal((10, 7))
    X = kron_oracle(A, B, RHS)
    assert np.linalg.norm(A @ X + X @ B + RHS) <= 1e-11 * np.linalg.norm(RHS)


def test_kron_scale_guard():
    with pytest.raises(ValueError):
        kron_oracle(np.eye(65), np.eye(2), np.ones((65, 2)))


def test_kron_shape_check():
    with pytest.raises(DimensionMismatchError, match=r"incompatible shapes A\(2, 2\), B\(3, 3\)"):
        kron_oracle(np.eye(2), np.eye(3), np.ones((3, 2)))


def test_kron_singular():
    with pytest.raises(SingularOperatorError):
        kron_oracle(np.eye(2), -np.eye(2), np.ones((2, 2)))
