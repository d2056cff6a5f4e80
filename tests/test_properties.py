"""Property tests of both restarted drivers and of SKSM against the Kronecker oracle.

Small nonnormal stable instances (``conftest.stable_dense``, n <= 20) with
block widths 1 to 3 and memory budgets from 4 s (Lyapunov) or from the
smallest that runs a Sylvester cycle (6 s) up, solved in verify mode.  A run
whose restart residual outgrows the budget stops unconverged and is checked
like any other.  Each instance is solved a second time without verify mode,
which skips projected solves, and must count the same.  ``sksm_two_pass``
has no verify mode: each SKSM instance (symmetric negative definite, n <= 20)
is solved once with every step's projected solve forced and once skipping,
and the two must count the same.  Hypothesis runs derandomized, so every
run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mateq import SolverConfig, kron_oracle, restarted_lyap, restarted_sylv, sksm_two_pass
from mateq import baselines

from conftest import as_op, assert_same_counts, rng_for, spd_dense, stable_dense
from test_compression import _two_eigenvalue_matrix

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
_TOL_COMP = 1e-14


@st.composite
def _instances(draw, floor):
    """``(A, B, C, D, config)`` with ||C D*||_F = 1 and memmax = floor * s + extra."""
    n = draw(st.integers(4, 20))
    s = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 20 * s))
    rng = rng_for(draw(st.integers(0, 2**16)))
    A, B = stable_dense(rng, n, 0.2), stable_dense(rng, n, 0.2)
    C, D = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    f = np.sqrt(np.linalg.norm(C @ D.T))
    cfg = SolverConfig(memmax=floor * s + extra, tol_res=1e-8, tol_comp=_TOL_COMP, k_max=30)
    return A, B, C / f, D / f, cfg


def _check_report(rep, residual, X, Xo, sep):
    """The checks every verify-mode solve must pass, on its dense residual ``residual(X)``.

    Residuals are compared to within a fraction of ``||C D*||_F``, the
    certificate too: it bounds the true residual of every run, converged or
    not, up to the roundoff of a residual near 1e-16.
    """
    cheap = np.array(rep.residual_history)
    explicit = np.array(rep.explicit_history)
    assert len(explicit) == rep.iterations
    assert np.all(np.abs(cheap - explicit) <= 1e-8 * rep.rhs_norm)
    dense = np.linalg.norm(residual(X))
    assert abs(rep.true_residual - dense) <= 1e-12 * rep.rhs_norm
    # X - Xo solves the Kronecker system with right-hand side residual(X)
    assert np.linalg.norm(X - Xo) <= (dense + 1e-12 * rep.rhs_norm) / sep
    assert rep.true_residual <= rep.certified_residual * (1 + 1e-8) + 1e-12 * rep.rhs_norm
    if rep.converged:
        assert rep.true_residual <= rep.residual_bound


def _sep(A, B):
    """Smallest singular value of X -> A X + X B (the Kronecker operator)."""
    n, m = A.shape[0], B.shape[0]
    K = np.kron(np.eye(m), A) + np.kron(B.T, np.eye(n))
    return np.linalg.svd(K, compute_uv=False)[-1]


@_PROPERTY
@given(_instances(6))
def test_restarted_sylv_properties(instance):
    A, B, C, D, cfg = instance
    pair, rep = restarted_sylv(as_op(A), as_op(B), C, D, cfg, verify=True)
    _check_report(rep, lambda X: A @ X + X @ B + C @ D.T, pair.to_dense(),
                  kron_oracle(A, B, C @ D.T), _sep(A, B))
    assert_same_counts(restarted_sylv(as_op(A), as_op(B), C, D, cfg)[1], rep)


@_PROPERTY
@given(_instances(4))
def test_restarted_lyap_properties(instance):
    A, _, C, _, cfg = instance
    C = C / np.linalg.norm(C.T @ C) ** 0.5
    fac, rep = restarted_lyap(as_op(A), C, cfg, verify=True)
    _check_report(rep, lambda X: A @ X + X @ A.T + C @ C.T, fac.to_dense(),
                  kron_oracle(A, A.T, C @ C.T), _sep(A, A.T))
    assert_same_counts(restarted_lyap(as_op(A), C, cfg)[1], rep)


@_PROPERTY
@given(st.integers(4, 20), st.integers(1, 3), st.floats(4, 10), st.integers(0, 2**16))
def test_sksm_two_pass_properties(n, s, digits, seed):
    rng = rng_for(seed)
    A = -spd_dense(rng, n, 0.2)
    C = rng.standard_normal((n, s))
    C /= np.linalg.norm(C.T @ C) ** 0.5
    tol, max_m = 10.0 ** -digits, n // s + 4
    fac, rep = sksm_two_pass(as_op(A, symmetric=True), C, tol, max_m)
    with pytest.MonkeyPatch.context() as every_step:
        every_step.setattr(baselines, "_solve_due", lambda *args: True)
        ref = sksm_two_pass(as_op(A, symmetric=True), C, tol, max_m)[1]
    assert_same_counts(rep, ref)
    X = fac.to_dense()
    dense = np.linalg.norm(A @ X + X @ A + C @ C.T)
    assert abs(rep.true_residual - dense) <= 1e-12 * rep.rhs_norm
    # X - Xo solves the Kronecker system with right-hand side A X + X A + C C*
    Xo = kron_oracle(A, A, C @ C.T)
    assert np.linalg.norm(X - Xo) <= (dense + 1e-12 * rep.rhs_norm) / _sep(A, A)


@pytest.mark.parametrize("driver", ["sylv", "lyap"])
def test_properties_hold_through_a_happy_breakdown(driver):
    """A with two eigenvalues: every Krylov space is invariant after two steps."""
    rng = rng_for(23)
    n = 12
    A = _two_eigenvalue_matrix(rng, n)
    C = rng.standard_normal((n, 1))
    C /= np.linalg.norm(C)
    cfg = SolverConfig(memmax=12, tol_res=1e-10, tol_comp=_TOL_COMP, k_max=5)
    if driver == "sylv":
        pair, rep = restarted_sylv(as_op(A), as_op(A), C, C, cfg, verify=True)
    else:
        pair, rep = restarted_lyap(as_op(A), C, cfg, verify=True)
    assert rep.converged and rep.cycle_inner_iterations[0] == 2
    _check_report(rep, lambda X: A @ X + X @ A.T + C @ C.T, pair.to_dense(),
                  kron_oracle(A, A.T, C @ C.T), _sep(A, A.T))
