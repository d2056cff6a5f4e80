"""Shared builders for randomized test instances."""

import numpy as np
import pytest

from mateq import SparseOperator


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def spd_dense(rng, n, shift=1.0):
    """Random symmetric positive definite matrix with eigenvalues >= shift."""
    M = rng.standard_normal((n, n))
    return M @ M.T / n + shift * np.eye(n)


def stable_dense(rng, n, shift=1.0):
    """Random matrix with spectrum in the right half plane (PD symmetric part)."""
    S = spd_dense(rng, n, shift)
    K = rng.standard_normal((n, n))
    return S + 0.5 * (K - K.T)


def normal_dense(rng, n, lo=0.5, hi=3.0):
    """Normal matrix by orthogonal similarity of a positive diagonal.

    Returns (matrix, smallest eigenvalue).
    """
    lam = rng.uniform(lo, hi, size=n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * lam) @ Q.T, float(lam.min())


def as_op(M, symmetric=False):
    return SparseOperator.from_dense(M, symmetric=symmetric)


@pytest.fixture
def rng():
    return rng_for(12345)


def assert_same_counts(rep, ref):
    """``rep`` (solves skipped) counts what ``ref`` (every step solved) counts.

    Residuals must agree bit for bit at every step where both were measured.
    """
    for name in ("iterations", "restarts", "residual_ranks", "solution_rank", "converged"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert len(rep.residual_history) == len(ref.residual_history)
    assert all(r is None or r == q for r, q in zip(rep.residual_history, ref.residual_history))
