import numpy as np
import pytest

from mateq import OpCounter, SparseOperator, arnoldi_extend, arnoldi_init, convdiff_3d, linalg, random_rhs
from mateq.errors import MemoryBudgetError, RankDeficientBlockError

from conftest import as_op, rng_for, spd_dense, stable_dense


def relation_residual(dec, A_dense):
    U = dec.basis
    lhs = A_dense @ U
    rhs = U @ dec.H + dec.boundary_image() @ np.kron(
        np.eye(dec.m)[-1:, :], np.eye(dec.s)
    )
    return np.linalg.norm(lhs - rhs)


def test_init_orthonormal_start():
    Q, _ = np.linalg.qr(rng_for(1).standard_normal((12, 3)))
    dec = arnoldi_init(SparseOperator.identity(12), Q, OpCounter(), max_steps=2)
    assert np.allclose(dec.basis if dec.m else dec._Q[:, :3], Q)
    assert np.allclose(dec.r0, np.eye(3))


def test_init_scaled_unit_vector():
    C = np.zeros((6, 1))
    C[0] = 2.0
    dec = arnoldi_init(SparseOperator.identity(6), C, OpCounter(), max_steps=1)
    assert np.allclose(dec._Q[:, :1], C / 2)
    assert np.allclose(dec.r0, [[2.0]])


def test_init_recomposition():
    rng = rng_for(2)
    C = rng.standard_normal((40, 3))
    dec = arnoldi_init(SparseOperator.identity(40), C, OpCounter(), max_steps=1)
    assert np.linalg.norm(dec._Q[:, :3] @ dec.r0 - C) <= 1e-12 * np.linalg.norm(C)


@pytest.mark.parametrize("C", [np.ones(6), np.ones((6, 0))], ids=["1-d", "width-0"])
def test_init_rejects_a_block_that_is_not_n_by_s(C):
    with pytest.raises(ValueError, match="n x s with s >= 1"):
        arnoldi_init(SparseOperator.identity(6), C, OpCounter(), max_steps=1)


def test_init_rejects_rank_deficient():
    u = rng_for(3).standard_normal((10, 1))
    with pytest.raises(RankDeficientBlockError):
        arnoldi_init(SparseOperator.identity(10), np.hstack([u, u]), OpCounter(), 1)


def test_identity_operator_breaks_down_happily():
    rng = rng_for(4)
    C = rng.standard_normal((10, 2))
    dec = arnoldi_init(SparseOperator.identity(10), C, OpCounter(), max_steps=3)
    assert arnoldi_extend(dec) is dec
    assert dec.breakdown
    assert np.allclose(dec.H, np.eye(2), atol=1e-14)
    assert np.linalg.norm(dec.boundary) <= 1e-12


def test_extend_after_breakdown_is_a_no_op():
    rng = rng_for(4)
    cnt = OpCounter()
    dec = arnoldi_init(SparseOperator.identity(10), rng.standard_normal((10, 2)), cnt,
                       max_steps=3)
    arnoldi_extend(dec)
    assert dec.breakdown and dec.m == 1 and cnt.a_calls == 1
    H, basis, Q = dec.H.copy(), dec.basis.copy(), dec._Q.copy()
    for _ in range(3):  # more calls than the remaining capacity: none is a step
        assert arnoldi_extend(dec) is dec
    assert dec.breakdown and dec.m == 1
    assert cnt.a_calls == 1 and cnt.matvecs == 2
    assert np.array_equal(dec.H, H)
    assert np.array_equal(dec.basis, basis)
    assert np.array_equal(dec._Q, Q)


def test_extend_past_max_steps_raises():
    cnt = OpCounter()
    dec = arnoldi_init(as_op(spd_dense(rng_for(5), 12)), rng_for(6).standard_normal((12, 2)),
                       cnt, max_steps=2)
    arnoldi_extend(dec)
    arnoldi_extend(dec)
    with pytest.raises(MemoryBudgetError, match="2 block steps"):
        arnoldi_extend(dec)
    assert dec.m == 2 and cnt.a_calls == 2


def test_hbar_stacks_h_on_boundary():
    rng = rng_for(10)
    dec = arnoldi_init(as_op(stable_dense(rng, 20)), rng.standard_normal((20, 2)),
                       OpCounter(), max_steps=4)
    for m in range(1, 5):
        arnoldi_extend(dec)
        ref = np.zeros(((m + 1) * 2, m * 2))
        ref[: m * 2, :] = dec.H
        ref[m * 2 :, (m - 1) * 2 :] = dec.boundary
        assert np.array_equal(dec.Hbar, ref)


def test_symmetric_operator_gives_block_tridiagonal():
    rng = rng_for(5)
    Ad = spd_dense(rng, 30)
    A = as_op(Ad)
    C = rng.standard_normal((30, 2))
    dec = arnoldi_init(A, C, OpCounter(), max_steps=5)
    for _ in range(5):
        arnoldi_extend(dec)
    H = dec.H
    s = 2
    for i in range(5):
        for j in range(5):
            if abs(i - j) > 1:
                blk = H[i * s:(i + 1) * s, j * s:(j + 1) * s]
                assert np.linalg.norm(blk) <= 1e-10 * np.linalg.norm(H)


def test_arnoldi_relation_and_orthonormality():
    rng = rng_for(6)
    Ad = stable_dense(rng, 60)
    A = as_op(Ad)
    C = rng.standard_normal((60, 2))
    cnt = OpCounter()
    dec = arnoldi_init(A, C, cnt, max_steps=5)
    for m in range(1, 6):
        arnoldi_extend(dec)
        cols = (dec.m + 1) * dec.s
        U_all = dec._Q[:, :cols]
        assert np.linalg.norm(U_all.T @ U_all - np.eye(cols)) <= 1e-10 * cols
        assert relation_residual(dec, Ad) <= 1e-10 * np.linalg.norm(Ad)
    assert cnt.a_calls == 5
    assert cnt.matvecs == 10


def test_projection_identity():
    rng = rng_for(7)
    Ad = stable_dense(rng, 25)
    A = as_op(Ad)
    dec = arnoldi_init(A, rng.standard_normal((25, 2)), OpCounter(), max_steps=4)
    for _ in range(4):
        arnoldi_extend(dec)
    U = dec.basis
    assert np.linalg.norm(U.T @ (Ad @ U) - dec.H) <= 1e-10 * np.linalg.norm(Ad)


def test_partial_rank_deficiency_keeps_remainder():
    # rank-1 operator saturates one direction immediately
    rng = rng_for(8)
    u = rng.standard_normal((12, 1))
    Ad = u @ u.T / 12 + np.eye(12)
    A = as_op(Ad)
    C = rng.standard_normal((12, 2))
    dec = arnoldi_init(A, C, OpCounter(), max_steps=4)
    for _ in range(4):
        arnoldi_extend(dec)
    assert dec.breakdown and dec.m < 4
    img = dec.boundary_image()
    assert img.shape == (12, 2)
    # the remainder is exactly the out-of-space part of A @ U_m's last block
    assert relation_residual(dec, Ad) <= 1e-10 * np.linalg.norm(Ad)


@pytest.mark.parametrize("delta", [1e-8, 1e-10, 0.0])
def test_extended_basis_orthonormal_when_image_nearly_inside_basis(delta):
    # C lies in a 10-dimensional invariant subspace of A0, perturbed by delta.
    # The third image has one direction of it left, so two of its columns
    # fall inside the basis up to delta: its remainder block is
    # ill-conditioned (delta > 0) or rank deficient (delta = 0)
    rng = rng_for(9)
    n, s, k = 120, 3, 10
    Ad = np.zeros((n, n))
    Ad[:k, :k] = stable_dense(rng, k)
    Ad[k:, k:] = stable_dense(rng, n - k)
    Ad += delta * rng.standard_normal((n, n)) / np.sqrt(n)
    C = np.zeros((n, s))
    C[:k] = rng.standard_normal((k, s))
    dec = arnoldi_init(as_op(Ad), C, OpCounter(), max_steps=7)
    for _ in range(7):
        arnoldi_extend(dec)
        if dec.breakdown:
            break
        E = dec.extended_basis
        assert np.linalg.norm(E.T @ E - np.eye(E.shape[1])) <= 1e-12
        assert relation_residual(dec, Ad) <= 1e-10 * np.linalg.norm(Ad)
    # breakdown exactly when the subspace is invariant; its H column and the
    # stored remainder still close the Arnoldi relation
    assert dec.breakdown == (delta == 0.0)
    assert dec.m == (3 if delta == 0.0 else 7)
    assert relation_residual(dec, Ad) <= 1e-10 * np.linalg.norm(Ad)
    if dec.breakdown:
        assert np.abs(np.diagonal(dec.boundary)).min() <= 1e-12 * np.linalg.norm(Ad)
        assert np.linalg.norm(dec.basis.T @ dec.boundary_image()) <= 1e-12 * np.linalg.norm(Ad)


def test_first_sylvester_cycle_basis_in_panels_stays_orthonormal(monkeypatch):
    # the A-side basis of restarted_sylv's first cycle at the benchmark's
    # convdiff_3d(20), memmax 198: 31 steps at s = 3, up to 96 columns; from
    # 33 basis columns on, U exceeds four row panels and both projections of
    # a step run over panels
    project = linalg._project
    widths = []
    monkeypatch.setattr(linalg, "_project", lambda U, W: widths.append(U.shape[1]) or project(U, W))
    A = convdiff_3d(20, 0.01, "wA")
    C, _ = random_rhs(A.n, 3, seed=0, normalize=True, pair=True)
    dec = arnoldi_init(A, C, OpCounter(), max_steps=31)
    for _ in range(31):
        arnoldi_extend(dec)
    E = dec.extended_basis
    assert not dec.breakdown and E.shape == (8000, 96)
    assert np.linalg.norm(E.T @ E - np.eye(96)) <= 1e-12
    panelled = [k for k in widths if A.n * k >= linalg._PANEL_MIN * linalg._PANEL_ENTRIES]
    assert len(panelled) == 2 * 21
