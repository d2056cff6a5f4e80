import numpy as np
import pytest

from mateq import (
    LowRankFactorPair,
    SolverConfig,
    SymLowRankFactor,
    TruncationRule,
    compress,
    compress_sym,
    kron_oracle,
    psd_project,
    restarted,
    restarted_lyap,
    restarted_sylv,
)
from mateq.compression import BasisFactor, _orthonormalize

from conftest import as_op, rng_for, spd_dense


def test_rule_validation():
    with pytest.raises(ValueError):
        TruncationRule(0.0)
    with pytest.raises(ValueError):
        TruncationRule(1e-8, "operator")


def test_pair_requires_equal_widths():
    with pytest.raises(ValueError):
        LowRankFactorPair(np.ones((4, 2)), np.ones((4, 3)))


@pytest.mark.parametrize("make, match", [
    (lambda: SymLowRankFactor(np.ones((4, 2)), np.eye(3)), "middle must be"),
    (lambda: BasisFactor(np.eye(4)[:, :2], np.ones((5, 1)), np.ones((3, 1))), "share a row count"),
    (lambda: BasisFactor(np.eye(4)[:, :2], np.ones((4, 1)), np.ones((2, 1))), "K needs 3 rows"),
], ids=["sym-middle", "basis-rows", "basis-coefficients"])
def test_factors_reject_mismatched_shapes(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("squeeze, fac", [
    (compress, LowRankFactorPair(np.ones((4, 1)), np.ones((4, 1)))),
    (compress_sym, SymLowRankFactor(np.ones((4, 1)), np.eye(1))),
], ids=["compress", "compress_sym"])
def test_compression_needs_a_rule(squeeze, fac):
    with pytest.raises(TypeError, match="TruncationRule"):
        squeeze(fac, 1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "pos-inf", "neg-inf"])
@pytest.mark.parametrize("which", ["C", "other"])
def test_factors_reject_non_finite_entries(bad, which):
    C, other = np.ones((5, 2)), np.eye(2)
    (C if which == "C" else other)[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SymLowRankFactor(C, other)
    with pytest.raises(ValueError, match="non-finite"):
        LowRankFactorPair(C, other)


def test_compress_duplicate_columns_to_rank_one():
    u = np.zeros((6, 1)); u[1] = 1.0
    v = np.zeros((6, 1)); v[3] = 1.0
    pair = LowRankFactorPair(np.hstack([u, u]), np.hstack([v, v]))
    out = compress(pair, TruncationRule(1e-12, "spectral"))
    assert out.rank == 1
    assert np.linalg.norm(out.to_dense() - 2 * u @ v.T) <= 1e-13


def test_compress_drops_below_spectral_tolerance():
    delta = 1e-8
    C = np.zeros((5, 2)); C[0, 0] = 1.0; C[1, 1] = delta / 10
    D = np.zeros((5, 2)); D[0, 0] = 1.0; D[1, 1] = 1.0
    out = compress(LowRankFactorPair(C, D), TruncationRule(delta, "spectral"))
    assert out.rank == 1
    ref = np.zeros((5, 5)); ref[0, 0] = 1.0
    assert np.allclose(out.to_dense(), ref)


def test_compress_recovers_true_rank():
    rng = rng_for(1)
    n, r, p = 40, 6, 12
    base_c = rng.standard_normal((n, r))
    base_d = rng.standard_normal((n, r))
    mix = rng.standard_normal((r, p))
    pair = LowRankFactorPair(base_c @ mix, base_d @ np.linalg.pinv(mix).T)
    out = compress(pair, TruncationRule(1e-8, "spectral"))
    assert out.rank == r
    # dense SVD oracle for the spectral truncation error
    err = np.linalg.norm(pair.to_dense() - out.to_dense(), 2)
    assert err <= 1e-8


def test_compress_zero_rank_when_product_below_tolerance():
    rng = rng_for(2)
    pair = LowRankFactorPair(1e-12 * rng.standard_normal((8, 2)),
                             1e-12 * rng.standard_normal((8, 2)))
    out = compress(pair, TruncationRule(1e-6, "spectral"))
    assert out.rank == 0
    assert out.to_dense().shape == (8, 8)


def test_compress_idempotent():
    rng = rng_for(3)
    pair = LowRankFactorPair(rng.standard_normal((20, 5)), rng.standard_normal((20, 5)))
    rule = TruncationRule(1e-3, "frobenius")
    once = compress(pair, rule)
    twice = compress(once, rule)
    assert twice.rank == once.rank
    assert np.linalg.norm(twice.to_dense() - once.to_dense()) <= 1e-13 * max(
        np.linalg.norm(once.to_dense()), 1e-30)


def test_compress_sym_swap_eigenvalues():
    rng = rng_for(4)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = compress_sym(SymLowRankFactor(Q, swap), TruncationRule(1e-12, "spectral"))
    assert np.allclose(np.sort(np.diagonal(out.S)), [-1.0, 1.0])
    assert np.linalg.norm(out.to_dense() - Q @ swap @ Q.T) <= 1e-13


def test_compress_sym_identity_passthrough():
    rng = rng_for(5)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
    out = compress_sym(SymLowRankFactor(Q, np.eye(3)), TruncationRule(1e-12, "spectral"))
    assert out.rank == 3
    assert np.linalg.norm(out.to_dense() - Q @ Q.T) <= 1e-13


def test_compress_sym_error_bound_indefinite():
    rng = rng_for(6)
    C = rng.standard_normal((50, 10))
    S = rng.standard_normal((10, 10))
    S = 0.5 * (S + S.T)
    fac = SymLowRankFactor(C, S)
    out = compress_sym(fac, TruncationRule(1e-10, "spectral"))
    # dense eigendecomposition oracle
    err = np.linalg.norm(fac.to_dense() - out.to_dense(), 2)
    assert err <= 1e-10
    assert np.allclose(out.S, np.diag(np.diagonal(out.S)))
    assert np.linalg.norm(out.C.T @ out.C - np.eye(out.rank)) <= 1e-12 * out.rank


def test_compress_sym_rejects_asymmetric_middle():
    with pytest.raises(ValueError):
        SymLowRankFactor(np.ones((4, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rank_zero_factors_pass_through():
    rule = TruncationRule(1e-8)
    pair = LowRankFactorPair(np.zeros((5, 0)), np.zeros((5, 0)))
    assert compress(pair, rule) is pair
    fac = SymLowRankFactor(np.zeros((5, 0)), np.zeros((0, 0)))
    assert compress_sym(fac, rule) is fac
    assert psd_project(fac) is fac


def test_psd_project_sign_split():
    fac = SymLowRankFactor(np.eye(2), np.diag([1.0, -1.0]))
    out = psd_project(fac)
    assert np.allclose(out.to_dense(), np.diag([1.0, 0.0]))


def test_psd_project_fixed_point_on_spsd():
    rng = rng_for(7)
    B = rng.standard_normal((10, 4))
    fac = SymLowRankFactor(B, np.eye(4))
    out = psd_project(fac)
    assert np.linalg.norm(out.to_dense() - fac.to_dense()) <= 1e-12 * np.linalg.norm(fac.to_dense())


def test_psd_project_distance_is_most_negative_eigenvalue():
    rng = rng_for(8)
    M = rng.standard_normal((12, 12))
    M = 0.5 * (M + M.T)
    fac = SymLowRankFactor(np.eye(12), M)
    out = psd_project(fac)
    lam_min = np.linalg.eigvalsh(M).min()
    assert lam_min < 0
    dist = np.linalg.norm(M - out.to_dense(), 2)
    assert abs(dist - abs(lam_min)) <= 1e-12 * abs(lam_min)


# --- coefficient-space compression: [Q, Z] @ K with orthonormal Q -----------

def _graded(rng, rows, cols, top=0):
    """Random rows x cols matrix with singular values 1 ... 1e-12."""
    U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    k = min(rows, cols)
    return (U[:, :k] * np.logspace(top, -12, k)) @ V[:, :k].T


def _basis_factor(seed, where):
    """BasisFactor whose Z has a component in span(Q) ("mixed"), barely leaves
    it ("near": an ill-conditioned remainder) or lies in it ("inside": a
    remainder of roundoff only)."""
    rng = rng_for(seed)
    n, q, z = 60, 8, 5
    Q, _ = np.linalg.qr(rng.standard_normal((n, q)))
    Z = Q @ rng.standard_normal((q, z))
    Z = Z + {"mixed": 1.0, "near": 1e-6, "inside": 0.0}[where] * rng.standard_normal((n, z))
    return BasisFactor(Q, Z, _graded(rng, q + z, 9))


def _norm(M, norm):
    return np.linalg.norm(M, 2 if norm == "spectral" else "fro")


def _assert_orthonormal(U):
    assert np.linalg.norm(U.T @ U - np.eye(U.shape[1])) <= 1e-12


@pytest.mark.parametrize("where", ["mixed", "near", "inside"])
def test_orthonormalize_extends_the_basis(where):
    f = _basis_factor(40, where)
    Q2, U, T = _orthonormalize(f)
    basis = np.hstack([f.Q, Q2])
    _assert_orthonormal(basis)
    _assert_orthonormal(U)
    assert T.shape == (9, 9)  # the factor's width, not the basis's (13)
    dense = f.to_dense()
    assert np.linalg.norm(basis @ U @ T - dense) <= 1e-13 * np.linalg.norm(dense)


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("where", ["mixed", "near", "inside"])
def test_compress_in_basis_matches_generic(where, norm):
    left, right = _basis_factor(41, where), _basis_factor(42, "mixed")
    rule = TruncationRule(1e-6, norm)
    exact = left.to_dense() @ right.to_dense().T
    U, sig, V = compress((left, right), rule)
    generic = compress(LowRankFactorPair(left.to_dense(), right.to_dense()), rule)
    assert 0 < sig.size == generic.rank < 9
    _assert_orthonormal(U)
    _assert_orthonormal(V)
    X = (U * sig) @ V.T
    assert _norm(X - generic.to_dense(), norm) <= rule.tolerance
    assert _norm(exact - X, norm) <= rule.tolerance


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@pytest.mark.parametrize("where", ["mixed", "near", "inside"])
def test_compress_sym_in_basis_matches_generic(where, norm):
    f = _basis_factor(43, where)
    S = _graded(rng_for(44), 9, 9, top=1)
    S = 0.5 * (S + S.T)  # indefinite
    rule = TruncationRule(1e-6, norm)
    exact = f.to_dense() @ S @ f.to_dense().T
    out = compress_sym((f, S), rule)
    generic = compress_sym(SymLowRankFactor(f.to_dense(), S), rule)
    assert 0 < out.rank == generic.rank < 9
    _assert_orthonormal(out.C)
    assert _norm(out.to_dense() - generic.to_dense(), norm) <= rule.tolerance
    assert _norm(exact - out.to_dense(), norm) <= rule.tolerance


def test_compress_leaves_callers_factors_intact():
    # compression may overwrite a BasisFactor's Fortran-ordered Z in place;
    # the factors of a LowRankFactorPair or SymLowRankFactor are the caller's
    rng = rng_for(45)
    C = np.asfortranarray(rng.standard_normal((30, 4)))
    D = np.asfortranarray(rng.standard_normal((30, 4)))
    C0, D0 = C.copy(), D.copy()
    rule = TruncationRule(1e-8)
    compress(LowRankFactorPair(C, D), rule)
    compress_sym(SymLowRankFactor(C, np.eye(4)), rule)
    assert np.array_equal(C, C0) and np.array_equal(D, D0)


def _record_breakdowns(monkeypatch):
    """Breakdown flag of every decomposition whose residual factor is compressed."""
    seen = []
    factor = restarted._residual_factor

    def spy(dec, W, boundary_first):
        seen.append(dec.breakdown)
        return factor(dec, W, boundary_first)

    monkeypatch.setattr(restarted, "_residual_factor", spy)
    return seen


def _two_eigenvalue_matrix(rng, n):
    """Symmetric matrix with eigenvalues -1 and -3: its Krylov spaces break down at step 2."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * np.r_[np.full(n // 2, -1.0), np.full(n - n // 2, -3.0)]) @ Q.T
    return 0.5 * (M + M.T)


def test_restarted_sylv_after_breakdown_matches_oracle(monkeypatch):
    seen = _record_breakdowns(monkeypatch)
    rng = rng_for(21)
    n = 24
    Ad = _two_eigenvalue_matrix(rng, n)
    Bd = -spd_dense(rng, n, 0.3)
    C, D = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    cfg = SolverConfig(memmax=16, tol_res=1e-10, tol_comp=1e-13, k_max=40)
    pair, rep = restarted_sylv(as_op(Ad), as_op(Bd), C, D, cfg)
    assert rep.converged and rep.restarts >= 1
    assert True in seen  # the A side's remainder went into the residual factor
    Xo = kron_oracle(Ad, Bd, C @ D.T)
    assert np.linalg.norm(pair.to_dense() - Xo) <= 1e-9 * np.linalg.norm(Xo)
    assert rep.true_residual <= rep.residual_bound


def test_restarted_lyap_after_breakdown_matches_oracle(monkeypatch):
    seen = _record_breakdowns(monkeypatch)
    rng = rng_for(22)
    n = 24
    Ad = _two_eigenvalue_matrix(rng, n)
    C = rng.standard_normal((n, 1))
    # a residual tolerance below the breakdown remainder forces a restart from it
    cfg = SolverConfig(memmax=12, tol_res=1e-16, tol_comp=1e-16, tol_comp_res=1e-18, k_max=3)
    fac, rep = restarted_lyap(as_op(Ad), C, cfg)
    assert rep.restarts >= 1 and rep.cycle_inner_iterations[0] == 2
    assert seen[0]
    Xo = kron_oracle(Ad, Ad, C @ C.T)
    assert np.linalg.norm(fac.to_dense() - Xo) <= 1e-12 * np.linalg.norm(Xo)
