import numpy as np
import pytest

from mateq import eig_sym, qr_economy, real_schur, svd
from mateq.linalg import _fix_vector_signs, check_symmetric, orthonormalize_block
from mateq.errors import DimensionMismatchError

from conftest import rng_for


def test_qr_identity():
    Q, R = qr_economy(np.eye(3))
    assert np.allclose(Q, np.eye(3))
    assert np.allclose(R, np.eye(3))


def test_qr_forced_column():
    Q, R = qr_economy(np.array([[3.0], [4.0]]))
    assert np.allclose(Q, [[0.6], [0.8]])
    assert np.allclose(R, [[5.0]])


def test_qr_recomposition():
    rng = rng_for(1)
    M = rng.standard_normal((20, 4))
    Q, R = qr_economy(M)
    assert np.linalg.norm(Q @ R - M) <= 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(Q.T @ Q - np.eye(4)) <= 1e-12 * 4
    assert np.all(np.diagonal(R) >= 0)
    assert np.allclose(R, np.triu(R))


def test_qr_rejects_wide():
    with pytest.raises(DimensionMismatchError):
        qr_economy(np.ones((2, 3)))


def test_qr_rejects_nonfinite():
    with pytest.raises(ValueError):
        qr_economy(np.array([[np.nan], [1.0]]))


def test_qr_orthogonality_sweep():
    rng = rng_for(2)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        M = rng.standard_normal((n, k))
        Q, R = qr_economy(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) <= 1e-12 * k
        assert np.linalg.norm(Q @ R - M) <= 1e-12 * max(np.linalg.norm(M), 1)


def test_svd_diagonal():
    U, s, Vt = svd(np.diag([2.0, 1.0]))
    assert np.allclose(s, [2.0, 1.0])
    assert np.allclose(U, np.eye(2))
    assert np.allclose(Vt, np.eye(2))


def test_svd_permutation_has_unit_values():
    _, s, _ = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_against_gram_eigenvalues():
    rng = rng_for(3)
    M = rng.standard_normal((8, 8))
    _, s, _ = svd(M)
    lam = np.sort(np.linalg.eigvalsh(M.T @ M))[::-1]
    assert np.allclose(s, np.sqrt(np.maximum(lam, 0)), atol=1e-10)


def test_svd_spectral_norm_matches_power_iteration():
    rng = rng_for(4)
    M = rng.standard_normal((15, 15))
    _, s, _ = svd(M)
    # independent oracle: power iteration on M.T @ M
    v = rng.standard_normal(15)
    v /= np.linalg.norm(v)
    G = M.T @ M
    for _ in range(500):
        v = G @ v
        v /= np.linalg.norm(v)
    sigma = np.sqrt(v @ G @ v)
    assert abs(s[0] - sigma) <= 1e-12 * s[0]


def test_svd_recompose_and_signs():
    rng = rng_for(5)
    M = rng.standard_normal((9, 6))
    U, s, Vt = svd(M)
    assert np.linalg.norm(U @ np.diag(s) @ Vt - M) <= 1e-12 * np.linalg.norm(M)
    for i in range(U.shape[1]):
        col = U[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        assert col[nz[0]] >= 0


def test_eig_sym_swap():
    W, lam = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [1.0, -1.0])
    assert np.linalg.norm(W @ np.diag(lam) @ W.T - [[0, 1], [1, 0]]) < 1e-14


def test_eig_sym_zero():
    W, lam = eig_sym(np.zeros((3, 3)))
    assert np.allclose(lam, 0.0)
    assert np.allclose(W, np.eye(3))


def test_eig_sym_trace_invariance():
    rng = rng_for(6)
    M = rng.standard_normal((10, 10))
    M = M + M.T
    _, lam = eig_sym(M)
    assert abs(lam.sum() - np.trace(M)) <= 1e-12 * max(abs(np.trace(M)), 1)


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 1e-60, 1e60, 1e-200, 1e200])
def test_check_symmetric_threshold_is_relative(scale):
    base = np.array([[2.0, 1.0], [1.0, 3.0]])
    M = scale * base
    nrm = scale * np.linalg.norm(base)  # ||M||_F, which np.linalg.norm(M) over/underflows
    check_symmetric(M)
    check_symmetric(np.zeros((0, 0)))
    check_symmetric(np.zeros((2, 2)))
    near = M.copy()
    near[0, 1] += 0.5e-12 * nrm  # ||M - M.T|| = sqrt(2) * 0.5e-12 ||M||
    check_symmetric(near)
    far = M.copy()
    far[0, 1] += 1e-12 * nrm
    with pytest.raises(ValueError, match="S is not symmetric"):
        check_symmetric(far, "S")


def test_eig_sym_spsd_floor():
    rng = rng_for(7)
    for _ in range(10):
        B = rng.standard_normal((8, 4))
        M = B @ B.T
        _, lam = eig_sym(M)
        assert lam.min() >= -1e-12 * np.linalg.norm(M, 2)


def test_schur_upper_triangular_fixed_point():
    M = np.triu(rng_for(8).standard_normal((5, 5)))
    Q, T = real_schur(M)
    assert np.linalg.norm(Q @ T @ Q.T - M) <= 1e-11 * np.linalg.norm(M)
    assert np.allclose(T, np.triu(T), atol=1e-12)


def test_schur_rotation_block():
    Q, T = real_schur(np.array([[0.0, -1.0], [1.0, 0.0]]))
    ev = np.linalg.eigvals(T)
    assert sorted(np.round(ev.imag, 10)) == [-1.0, 1.0]
    assert np.allclose(ev.real, 0.0, atol=1e-12)


def test_schur_eigenvalue_multiset():
    rng = rng_for(9)
    M = rng.standard_normal((12, 12))
    Q, T = real_schur(M)
    ours = np.sort_complex(np.linalg.eigvals(T))
    ref = np.sort_complex(np.linalg.eigvals(M))  # independent (geev) route
    assert np.allclose(ours, ref, atol=1e-9)


def test_schur_norm_preservation():
    rng = rng_for(10)
    for _ in range(10):
        M = rng.standard_normal((9, 9))
        _, T = real_schur(M)
        assert abs(np.linalg.norm(T) - np.linalg.norm(M)) <= 1e-11 * np.linalg.norm(M)


def _fix_vector_signs_loop(U, *companions):
    """Column-by-column reference for linalg._fix_vector_signs."""
    U = np.array(U, copy=True)
    out = [np.array(c, copy=True) for c in companions]
    for i in range(U.shape[1]):
        col = U[:, i]
        big = np.abs(col).max(initial=0.0)
        if big == 0.0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-12 * big)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, i] = -col
            for c in out:
                c[i, :] = -c[i, :]
    return U, *out


def test_fix_vector_signs_matches_loop():
    rng = rng_for(31)
    U = rng.standard_normal((9, 8))
    U[:3, 1] = [1e-14, -1e-15, -2.0]   # leading entries below 1e-12 * max are skipped
    U[:, 2] = 0.0                       # zero column stays as it is
    U[:, 3] = [-0.0] + [0.0] * 8
    U[0, 4] = -1e-12 * np.abs(U[:, 4]).max()  # exactly at the threshold: skipped
    U[:, 5] = -np.abs(U[:, 5])
    Vt = rng.standard_normal((8, 5))
    got_u, got_v = _fix_vector_signs(U, Vt)
    ref_u, ref_v = _fix_vector_signs_loop(U, Vt)
    assert np.array_equal(got_u, ref_u) and np.array_equal(got_v, ref_v)
    assert np.array_equal(np.signbit(got_u), np.signbit(ref_u))
    assert np.array_equal(_fix_vector_signs(U), ref_u)
    for shape in [(0, 3), (4, 0), (0, 0)]:
        assert _fix_vector_signs(np.zeros(shape)).shape == shape


@pytest.mark.parametrize("delta", [1.0, 1e-9, 1e-12])
def test_orthonormalize_block_against_basis(delta):
    # W = U M + delta N: a small delta leaves the remainder ill-conditioned
    # (1e-9 takes the lean projection only, 1e-12 also the second QR)
    rng = rng_for(12)
    n, k, s = 300, 40, 5
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    U = np.asfortranarray(U)
    W0 = U @ rng.standard_normal((k, s)) + delta * rng.standard_normal((n, s))
    W = np.array(W0, order="F")
    P, R = orthonormalize_block(U, W)
    E = np.hstack([U, W])
    assert np.linalg.norm(E.T @ E - np.eye(k + s)) <= 1e-13
    assert np.linalg.norm(U @ P + W @ R - W0) <= 1e-14 * np.linalg.norm(W0)
    assert np.array_equal(R, np.triu(R)) and np.all(np.diagonal(R) >= 0)
