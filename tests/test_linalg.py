import numpy as np
import pytest

from mateq import eig_sym, linalg, qr_economy, svd
from mateq.linalg import _fix_vector_signs, check_symmetric, orthonormalize_block
from mateq.errors import DimensionMismatchError, NonConvergenceError

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "pos-inf", "neg-inf"])
def test_kernels_reject_each_non_finite_value(bad):
    M = np.eye(3)
    M[2, 1] = M[1, 2] = bad
    assert linalg._all_finite(np.eye(3)) and linalg._all_finite(np.zeros((0, 4)))
    with np.errstate(over="ignore"):  # finite entries whose sum overflows
        assert linalg._all_finite(np.full((2, 2), 1e308))
    assert not linalg._all_finite(M)
    for kernel in (qr_economy, svd, eig_sym):
        with pytest.raises(ValueError, match="non-finite"):
            kernel(M)


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


def test_kernels_reject_bad_shapes():
    with pytest.raises(DimensionMismatchError, match=r"square matrix, got \(2, 3\)"):
        eig_sym(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError, match=r"M must be 2-dimensional, got shape \(3,\)"):
        svd(np.ones(3))


@pytest.mark.parametrize("kernel,lapack,message", [
    (svd, "svd", "SVD did not converge: no luck"),
    (eig_sym, "eigh", "symmetric eigensolver did not converge: no luck"),
])
def test_kernels_report_lapack_failure(monkeypatch, kernel, lapack, message):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no luck")

    monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(NonConvergenceError, match=message):
        kernel(np.eye(2))


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
    got_u, got_v = U.copy(), Vt.copy()
    assert _fix_vector_signs(got_u, got_v)[0] is got_u  # flips in place
    ref_u, ref_v = _fix_vector_signs_loop(U, Vt)
    assert np.array_equal(got_u, ref_u) and np.array_equal(got_v, ref_v)
    assert np.array_equal(np.signbit(got_u), np.signbit(ref_u))
    assert np.array_equal(np.signbit(got_v), np.signbit(ref_v))
    assert np.array_equal(_fix_vector_signs(U.copy()), ref_u)
    for shape in [(0, 3), (4, 0), (0, 0)]:
        assert _fix_vector_signs(np.zeros(shape)).shape == shape


def _assert_orthonormalized(U, W0, W, P, R):
    """``[U, W]`` orthonormal, ``W0 = U P + W R`` and R upper triangular, diagonal >= 0."""
    E = np.hstack([U, W])
    assert np.linalg.norm(E.T @ E - np.eye(E.shape[1])) <= 1e-13
    assert np.linalg.norm(U @ P + W @ R - W0) <= 1e-14 * np.linalg.norm(W0)
    assert np.array_equal(R, np.triu(R)) and np.all(np.diagonal(R) >= 0)


def _leaning_block(delta):
    """``(U, W)`` with ``W = U M + delta N``, N of full rank, U 300 x 40 and W 300 x 5.

    A small delta leaves the projected block leaning on U far above roundoff,
    and only the second projection removes the lean.
    """
    rng = rng_for(12)
    n, k, s = 300, 40, 5
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    U = np.asfortranarray(U)
    return U, U @ rng.standard_normal((k, s)) + delta * rng.standard_normal((n, s))


def _swept_block(kappa, s, in_span=True):
    """``(U, W)`` with ``W = U M + N`` (or N alone), U 300 x 40 and W 300 x s.

    N lies outside span(U) with singular values spread geometrically down to
    1 / kappa (for s = 1 its one value is 1 / kappa); kappa = inf zeroes W's
    last column, an exactly rank-deficient block.
    """
    rng = rng_for(40)
    n, k = 300, 40
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    U = np.asfortranarray(U)
    X, _ = np.linalg.qr(rng.standard_normal((n, s)))
    Y, _ = np.linalg.qr(rng.standard_normal((s, s)))
    N = ((X - U @ (U.T @ X)) * np.geomspace(1.0, 1.0 / min(kappa, 1e12), s + 1)[1:]) @ Y.T
    W0 = U @ rng.standard_normal((k, s)) + N if in_span else N
    if kappa == np.inf:
        W0[:, -1] = 0.0
    return U, W0


def _factorizations(monkeypatch, U, W0):
    """Orthonormalize ``W0`` against ``U`` and check the result.

    Returns the number of Cholesky factorizations the step ran and how many
    of them failed.
    """
    cholesky = linalg._cholesky_factors
    counts = {"calls": 0, "failed": 0}

    def counted_cholesky(A):
        factors = cholesky(A)
        counts["calls"] += 1
        counts["failed"] += factors is None
        return factors

    monkeypatch.setattr(linalg, "_cholesky_factors", counted_cholesky)
    W = np.array(W0, order="F")
    P, R = orthonormalize_block(U, W)
    _assert_orthonormalized(U, W0, W, P, R)
    return counts["calls"], counts["failed"]


@pytest.mark.parametrize("delta", [1.0, 1e-9, 1e-12])
def test_orthonormalize_block_against_basis(monkeypatch, delta):
    # only a block leaning on U keeps a lean after the second projection
    # that the third Cholesky-QR pass must remove
    calls, _ = _factorizations(monkeypatch, *_leaning_block(delta))
    assert calls == (2 if delta == 1.0 else 3)


@pytest.mark.parametrize("s", [1, 3, 18])
@pytest.mark.parametrize("kappa", [1.0, 1e7, 1e12, np.inf])
def test_orthonormalize_block_condition_sweep(monkeypatch, kappa, s):
    householder = linalg._qr_reduced_signed
    counts = {"householder": 0}

    def counted_householder(M):
        counts["householder"] += 1
        return householder(M)

    monkeypatch.setattr(linalg, "_qr_reduced_signed", counted_householder)
    calls, failed = _factorizations(monkeypatch, *_swept_block(kappa, s))
    assert counts["householder"] == failed
    # the shift keeps Cholesky alive on these full-rank blocks; the zero
    # column leaves one pass a singular Gram matrix
    assert counts["householder"] == (1 if kappa == np.inf else 0)
    # a well-conditioned block needs no third pass; an ill-conditioned one does
    assert calls == (2 if kappa == 1.0 else 3)


def test_orthonormalize_block_last_pass_when_second_factor_is_far_from_identity(monkeypatch):
    # outside span(U) the second projection removes almost nothing (||G|| is
    # about 3e-9), but after the shifted pass on a block with kappa = 1e12 the
    # second pass's factor is far from I; skipping the third pass there would
    # leave ||E.T E - I||_F at about 9e-14, against 4e-15 with it
    calls, _ = _factorizations(monkeypatch, *_swept_block(1e12, 3, in_span=False))
    assert calls == 3


@pytest.mark.parametrize("n, k, s", [(50, 7, 0), (50, 0, 4), (50, 0, 0)])
def test_orthonormalize_block_empty(capfd, n, k, s):
    rng = rng_for(41)
    U, _ = np.linalg.qr(rng.standard_normal((n, k)))
    W0 = rng.standard_normal((n, s))
    W = np.array(W0, order="F")
    P, R = orthonormalize_block(np.asfortranarray(U), W)
    assert P.shape == (k, s) and R.shape == (s, s)
    if s:
        _assert_orthonormalized(U, W0, W, P, R)
    # LAPACK's trtri rejects a 0 x 0 matrix with a message on stdout
    assert capfd.readouterr() == ("", "")
