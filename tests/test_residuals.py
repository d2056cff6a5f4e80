import numpy as np
import pytest

from mateq import (
    OpCounter,
    SparseOperator,
    arnoldi_extend,
    arnoldi_init,
    explicit_residual_lyap,
    explicit_residual_sylv,
    residual_norm_lyap,
    residual_norm_sylv,
    solve_lyapunov_ldlt,
    solve_sylvester_dense,
    true_residual_lyap,
    true_residual_sylv,
)

from conftest import as_op, rng_for, spd_dense, stable_dense


def test_zero_solution_gives_zero():
    Hb = np.eye(2)
    Y = np.zeros((6, 6))
    assert residual_norm_sylv(Hb, Hb, Y) == 0.0
    assert residual_norm_lyap(Hb, Y) == 0.0


def test_identity_boundaries_single_step():
    for s in (1, 2, 3):
        Y = np.eye(s)
        I = np.eye(s)
        assert np.isclose(residual_norm_sylv(I, I, Y, "frobenius"), np.sqrt(2 * s))
        assert np.isclose(residual_norm_lyap(I, Y, "frobenius"), np.sqrt(2 * s))
        assert np.isclose(residual_norm_sylv(I, I, Y, "spectral"), 1.0)
        assert np.isclose(residual_norm_lyap(I, Y, "spectral"), 1.0)


def test_cheap_formula_matches_explicit_sylvester():
    rng = rng_for(1)
    n, s, m = 20, 2, 3
    Ad, Bd = stable_dense(rng, n), stable_dense(rng, n)
    A, B = as_op(Ad), as_op(Bd)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    da = arnoldi_init(A, C, OpCounter(), max_steps=m)
    db = arnoldi_init(B.transpose(), D, OpCounter(), max_steps=m)
    for _ in range(m):
        arnoldi_extend(da)
        arnoldi_extend(db)
    F = np.zeros((m * s, m * s))
    F[:s, :s] = da.r0 @ db.r0.T
    Y = solve_sylvester_dense(da.H, db.H, F)
    X = da.basis @ Y @ db.basis.T
    for norm in ("frobenius", "spectral"):
        cheap = residual_norm_sylv(da.boundary, db.boundary, Y, norm)
        full = explicit_residual_sylv(A, B, C, D, X, norm)
        assert abs(cheap - full) <= 1e-10 * full


def test_cheap_formula_matches_explicit_lyapunov():
    rng = rng_for(2)
    n, s, m = 20, 2, 4
    Ad = -spd_dense(rng, n)
    A = as_op(Ad)
    C = rng.standard_normal((n, s))
    dec = arnoldi_init(A, C, OpCounter(), max_steps=m)
    for _ in range(m):
        arnoldi_extend(dec)
    Ctil = np.zeros((m * s, s))
    Ctil[:s] = dec.r0
    Y = solve_lyapunov_ldlt(dec.H, Ctil, np.eye(s))
    X = dec.basis @ Y @ dec.basis.T
    for norm in ("frobenius", "spectral"):
        cheap = residual_norm_lyap(dec.boundary, Y, norm)
        full = explicit_residual_lyap(A, C, X, norm)
        assert abs(cheap - full) <= 1e-10 * full


def test_true_residual_matches_dense_small():
    rng = rng_for(3)
    n = 15
    Ad, Bd = stable_dense(rng, n), stable_dense(rng, n)
    A, B = as_op(Ad), as_op(Bd)
    C, D = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    XL, XR = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
    X = XL @ XR.T
    for norm in ("frobenius", "spectral"):
        fac = true_residual_sylv(A, B, C, D, XL, XR, norm)
        full = explicit_residual_sylv(A, B, C, D, X, norm)
        assert abs(fac - full) <= 1e-12 * max(full, 1)

    S = np.diag(rng.standard_normal(4))
    Xs = XL @ S @ XL.T
    for norm in ("frobenius", "spectral"):
        fac = true_residual_lyap(A, C, XL, S, norm)
        full = explicit_residual_lyap(A, C, Xs, norm)
        assert abs(fac - full) <= 1e-12 * max(full, 1)


def test_residual_factorization_identity():
    # the between-cycle residual factors reproduce the explicit residual
    rng = rng_for(4)
    n, s, m = 25, 2, 4
    Ad, Bd = stable_dense(rng, n), stable_dense(rng, n)
    A, B = as_op(Ad), as_op(Bd)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    da = arnoldi_init(A, C, OpCounter(), max_steps=m)
    db = arnoldi_init(B.transpose(), D, OpCounter(), max_steps=m)
    for _ in range(m):
        arnoldi_extend(da)
        arnoldi_extend(db)
    F = np.zeros((m * s, m * s))
    F[:s, :s] = da.r0 @ db.r0.T
    Y = solve_sylvester_dense(da.H, db.H, F)
    X = da.basis @ Y @ db.basis.T
    C1 = np.hstack([da.boundary_image(), da.basis @ Y[:, -s:]])
    D1 = np.hstack([db.basis @ Y[-s:, :].T, db.boundary_image()])
    assert C1.shape == (n, 2 * s)
    R_explicit = Ad @ X + X @ Bd + C @ D.T
    assert np.linalg.norm(C1 @ D1.T - R_explicit) <= 1e-10 * np.linalg.norm(R_explicit)


def test_residual_factorization_identity_lyapunov():
    rng = rng_for(5)
    n, s, m = 25, 2, 4
    Ad = -spd_dense(rng, n)
    A = as_op(Ad)
    C = rng.standard_normal((n, s))
    dec = arnoldi_init(A, C, OpCounter(), max_steps=m)
    for _ in range(m):
        arnoldi_extend(dec)
    Ctil = np.zeros((m * s, s))
    Ctil[:s] = dec.r0
    Y = solve_lyapunov_ldlt(dec.H, Ctil, np.eye(s))
    X = dec.basis @ Y @ dec.basis.T
    C1 = np.hstack([dec.boundary_image(), dec.basis @ Y[:, -s:]])
    swap = np.zeros((2 * s, 2 * s))
    swap[:s, s:] = np.eye(s)
    swap[s:, :s] = np.eye(s)
    R_explicit = Ad @ X + X @ Ad.T + C @ C.T
    assert np.linalg.norm(C1 @ swap @ C1.T - R_explicit) <= 1e-10 * np.linalg.norm(R_explicit)


def _one_shot_r(*blocks):
    return np.linalg.qr(np.hstack(blocks), mode="r")


def _norm_of(M, norm):
    return np.linalg.norm(M, 2 if norm == "spectral" else "fro")


def _record_row_slices(monkeypatch):
    """Row slices at which the true-residual helpers apply an operator."""
    seen = []
    apply_rows = SparseOperator.apply_rows

    def spy(self, V, rows):
        seen.append(rows)
        return apply_rows(self, V, rows)

    monkeypatch.setattr(SparseOperator, "apply_rows", spy)
    return seen


@pytest.mark.parametrize(
    "n, r, s, slices",
    [
        (40, 0, 3, "one"),  # XL without columns: a slice is taller than n
        (7, 5, 2, "one"),  # n below the stacked factor's width
        (300, 9, 3, "ragged"),  # n is not a multiple of the slice height
    ],
)
def test_row_blocked_true_residual_matches_references(monkeypatch, n, r, s, slices):
    seen = _record_row_slices(monkeypatch)
    rng = rng_for(6)
    Ad, Bd = stable_dense(rng, n), stable_dense(rng, n)
    A, B = as_op(Ad), as_op(Bd)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    XL, XR = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    S = rng.standard_normal((r, r))
    S = S + S.T
    K = np.zeros((2 * r + s, 2 * r + s))
    K[:r, r : 2 * r] = S
    K[r : 2 * r, :r] = S
    K[2 * r :, 2 * r :] = np.eye(s)
    RL = _one_shot_r(Ad @ XL, XL, C)
    RR = _one_shot_r(XR, Bd.T @ XR, D)
    for norm in ("frobenius", "spectral"):
        seen.clear()
        got = true_residual_lyap(A, C, XL, S, norm)
        bounds = [(sl.start, min(sl.stop, n)) for sl in seen]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert (len(bounds) == 1) == (slices == "one")
        if slices == "ragged":
            assert bounds[-1][1] - bounds[-1][0] < bounds[0][1] - bounds[0][0]
        for ref in (_norm_of(RL @ K @ RL.T, norm),
                    explicit_residual_lyap(A, C, XL @ S @ XL.T, norm)):
            assert abs(got - ref) <= 1e-12 * ref
        got = true_residual_sylv(A, B, C, D, XL, XR, norm)
        for ref in (_norm_of(RL @ RR.T, norm),
                    explicit_residual_sylv(A, B, C, D, XL @ XR.T, norm)):
            assert abs(got - ref) <= 1e-12 * ref
