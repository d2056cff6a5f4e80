"""Rank truncation of low-rank factorizations.

Two entry points: :func:`compress` for two-sided products ``C @ D.T``
(orthonormalize both factors, SVD of the small core) and
:func:`compress_sym` for symmetric products ``C @ S @ C.T`` (orthonormalize
the factor, eigendecomposition of the small core, orthonormal output with a
diagonal, possibly indefinite middle).  :func:`psd_project` keeps only the
nonnegative eigenvalue part, which is the nearest symmetric positive
semidefinite matrix in both the Frobenius and spectral norms.

Both entry points accept a tall factor written in coefficient space, as a
:class:`BasisFactor` ``[Q, Z] @ K``: ``Q`` is a basis already known to be
orthonormal, ``Z`` holds extra columns and ``K`` is a small coefficient
matrix.  Only ``Z`` is orthogonalized, by the package's one block
Gram-Schmidt step :func:`linalg.orthonormalize_block`, whose Cholesky-QR
passes factor only ``Z``'s columns.  The SVD or eigendecomposition then runs
on a core as wide as the factor, and the output ``[Q, Q2] @ (small)`` is
formed by matrix products; it is as orthonormal as ``Q`` is.  The product
with ``Q`` is the output itself, and the product with ``Q2`` is added into it
a few n-columns of rows at a time, so the output is the only output-sized
block compression holds.  A plain array factor is the special case with an
empty ``Q``.  The restarted drivers use this for their residual factors,
which lie in the Arnoldi basis (no tall QR at all), and for their solution
updates, whose previous factors are orthonormal.

Each compression is thus a coefficient step (orthonormalize ``Z``,
decompose the small core, truncate) followed by the products that form the
output.  For two-sided products the coefficient step is a function of its
own, :func:`_truncated_svd`, which leaves each output factor in coefficient
space: ``restarted_sylv`` forms each side of its restart residual just
before it releases that side's Arnoldi basis.  Given BasisFactors,
:func:`compress` returns ``(U, sig, V, dropped)`` and :func:`compress_sym`
``(C, lam, dropped)``: factors stay orthonormal, with singular values or
eigenvalues held apart, until a solver returns; only :func:`_balanced` scales
factors by the values' square roots.  ``dropped`` is the exact norm of what
the cut discarded, which the restarted drivers add up (``residual_loss``,
``solution_loss``).

Truncation rules: under the ``spectral`` rule every discarded singular value
(eigenvalue magnitude) is below the tolerance; under the ``frobenius`` rule
the Euclidean norm of the discarded values stays below it.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (_all_finite, _qr_reduced_signed, check_symmetric, eig_sym,
                     orthonormalize_block, svd)
from .residuals import _row_slices

__all__ = ["TruncationRule", "LowRankFactorPair", "SymLowRankFactor", "BasisFactor",
           "compress", "compress_sym", "psd_project"]

_NORMS = ("spectral", "frobenius")


@dataclass(frozen=True)
class TruncationRule:
    """Tolerance plus the norm in which the truncation error is measured."""

    tolerance: float
    norm: str = "frobenius"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"truncation tolerance must be positive, got {self.tolerance}")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}, got {self.norm!r}")


@dataclass(frozen=True)
class LowRankFactorPair:
    """Factored matrix X = C @ D.T with equal-width factors."""

    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64)
        D = np.asarray(self.D, dtype=np.float64)
        if C.ndim != 2 or D.ndim != 2 or C.shape[1] != D.shape[1]:
            raise ValueError(f"factors must share a column count, got {C.shape} and {D.shape}")
        if not (_all_finite(C) and _all_finite(D)):
            raise ValueError("factors contain non-finite entries")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def rank(self):
        return self.C.shape[1]

    def to_dense(self):
        return self.C @ self.D.T


@dataclass(frozen=True)
class SymLowRankFactor:
    """Factored symmetric matrix X = C @ S @ C.T with small symmetric S."""

    C: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.float64)
        S = np.asarray(self.S, dtype=np.float64)
        p = C.shape[1] if C.ndim == 2 else -1
        if C.ndim != 2 or S.shape != (p, p):
            raise ValueError(f"factor is {C.shape}, middle must be ({p}, {p}), got {S.shape}")
        if not (_all_finite(C) and _all_finite(S)):
            raise ValueError("factors contain non-finite entries")
        check_symmetric(S, "S")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "S", S)

    @property
    def rank(self):
        return self.C.shape[1]

    def to_dense(self):
        return self.C @ self.S @ self.C.T


@dataclass(frozen=True)
class BasisFactor:
    """Tall factor ``[Q, Z] @ K`` written in coefficient space.

    ``Q`` (n x q) has orthonormal columns, ``Z`` (n x z) holds any extra
    columns and ``K`` ((q + z) x w) is the coefficient matrix; the factor has
    w columns.  :meth:`plain` wraps a copy of an ordinary n x w factor
    (q = 0).

    :func:`compress` and :func:`compress_sym` may overwrite ``Z``: a
    Fortran-ordered ``Z`` is orthonormalized in place, any other on a copy
    (as LAPACK's overwrite flags do), so its caller should not read it again.
    """

    Q: np.ndarray
    Z: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        Q, Z, K = self.Q, self.Z, self.K
        if Q.ndim != 2 or Z.ndim != 2 or Q.shape[0] != Z.shape[0]:
            raise ValueError(f"Q and Z must share a row count, got {Q.shape} and {Z.shape}")
        if K.ndim != 2 or K.shape[0] != Q.shape[1] + Z.shape[1]:
            raise ValueError(f"K needs {Q.shape[1] + Z.shape[1]} rows, got shape {K.shape}")

    @classmethod
    def plain(cls, C):
        return cls(np.zeros((C.shape[0], 0)), np.array(C, order="F"), np.eye(C.shape[1]))

    def to_dense(self):
        q = self.Q.shape[1]
        return self.Q @ self.K[:q] + self.Z @ self.K[q:]


def _orthonormalize(f):
    """``Q2``, ``U``, ``T`` with ``[Q, Z] @ K = [Q, Q2] @ U @ T``.

    ``[Q, Q2]`` and ``U`` have orthonormal columns and ``T`` is no taller
    than it is wide, so the truncation core built from ``T`` has the
    factor's width, not the basis's.  ``Z`` is orthonormalized against ``Q``
    by :func:`orthonormalize_block`, in place when it is Fortran-ordered, so
    ``[Q, Q2]`` stays orthonormal even when new columns lie nearly inside
    ``span(Q)``.
    """
    Q, Z, K = f.Q, f.Z, f.K
    q = Q.shape[1]
    Q2 = np.asarray(Z, order="F")
    P, R2 = orthonormalize_block(Q, Q2)
    R = np.vstack([K[:q] + P @ K[q:], R2 @ K[q:]])
    if R.shape[0] > R.shape[1]:
        U, T = np.linalg.qr(R)
        return Q2, U, T
    return Q2, np.eye(R.shape[0]), R


def _combine(f):
    """``f.Q @ f.K[:q] + f.Z @ f.K[q:]`` without a second output-sized block.

    The product with ``Q`` is the output; the product with ``Z`` is added
    into it one row slice (:func:`residuals._row_slices`) at a time.
    """
    Q, Z, K = f.Q, f.Z, f.K
    q = Q.shape[1]
    if q == 0:
        return Z @ K
    out = Q @ K[:q]
    if Z.shape[1]:
        for rows in _row_slices(*out.shape):
            out[rows] += Z[rows] @ K[q:]
    return out


def _keep_count(values, rule):
    """Leading entries kept from magnitude-descending ``values``, and the norm of the rest."""
    values = np.abs(values)
    if rule.norm == "spectral":
        keep = int(np.count_nonzero(values >= rule.tolerance))
    else:  # frobenius: greedily drop the largest tail whose Euclidean norm <= tol
        tail = np.sqrt(np.cumsum(values[::-1] ** 2))[::-1]
        keep = int(np.count_nonzero(tail > rule.tolerance))
    return keep, _dropped_norm(values[keep:], rule.norm)


def _dropped_norm(values, norm):
    """Norm of ``diag(values)`` in ``norm``: the largest magnitude, or the Euclidean norm.

    Cut from a factor with orthonormal columns on both sides, that is the
    exact norm of what the cut discards.
    """
    values = np.abs(values)
    return float(values.max(initial=0.0) if norm == "spectral" else np.linalg.norm(values))


def _balanced(U, sig, V):
    """The pair ``(U sqrt(sig), V sqrt(sig))``, scaled in place."""
    root = np.sqrt(sig)
    U *= root
    V *= root
    return LowRankFactorPair(U, V)


def _svd_by_magnitude(M, rule):
    """Truncated SVD of a small matrix: orthonormal ``U``, kept sigma, ``V``, dropped norm."""
    U, sig, Vt = svd(M)
    keep, dropped = _keep_count(sig, rule)
    # copies: the full factors die
    return U[:, :keep].copy(), sig[:keep], Vt[:keep].T.copy(), dropped


def _truncated_svd(pair, rule):
    """Coefficient step of :func:`compress` for a ``(left, right)`` BasisFactor tuple.

    Returns ``(U, sigma, V, dropped)`` with ``U`` and ``V`` as
    :class:`BasisFactor` ``[Q, Q2] @ W`` whose products (:func:`_combine`) are
    the truncated SVD's orthonormal factors, and ``dropped`` the norm of the
    part cut off.  This step orthonormalizes each factor's extra
    columns ``Z`` against its ``Q`` and takes the SVD of the small core; with
    no extra columns, as in a restart residual before a happy breakdown, it
    does no n-row work at all, so a caller may form each side's output when
    it likes and release that side's basis with it.
    """
    left, right = pair
    Qc, Uc, Tc = _orthonormalize(left)
    Qd, Ud, Td = _orthonormalize(right)
    U, sig, V, dropped = _svd_by_magnitude(Tc @ Td.T, rule)
    return BasisFactor(left.Q, Qc, Uc @ U), sig, BasisFactor(right.Q, Qd, Ud @ V), dropped


def compress(pair, rule):
    """Truncate a two-sided low-rank product through the SVD of a small core.

    ``pair`` is a :class:`LowRankFactorPair`, or a ``(left, right)`` tuple of
    :class:`BasisFactor` for ``left @ right.T``.  A LowRankFactorPair comes
    back as a new pair with square-root-balanced factors (zero columns when
    the whole product is below the tolerance); a BasisFactor tuple comes back
    as the truncated SVD ``(U, sigma, V, dropped)`` with orthonormal ``U`` and
    ``V`` and ``dropped`` the dropped part's norm.  Either way the dropped
    part is bounded by ``rule.tolerance`` in the rule's norm.
    """
    if not isinstance(rule, TruncationRule):
        raise TypeError("rule must be a TruncationRule")
    if isinstance(pair, LowRankFactorPair):
        if pair.rank == 0:
            return pair
        U, sig, V, _ = compress((BasisFactor.plain(pair.C), BasisFactor.plain(pair.D)), rule)
        return _balanced(U, sig, V)
    U, sig, V, dropped = _truncated_svd(pair, rule)
    return _combine(U), sig, _combine(V), dropped


def _eig_by_magnitude(core, rule):
    """Eigendecomposition ``W``, ``lam`` of a small symmetric core, truncated by |eigenvalue|.

    The third value returned is the dropped norm.
    """
    W, lam = eig_sym(core)
    order = np.argsort(-np.abs(lam), kind="stable")
    keep, dropped = _keep_count(lam[order], rule)
    kept_idx = np.sort(order[:keep])  # keep eigenvalue-descending presentation
    return W[:, kept_idx], lam[kept_idx], dropped


def compress_sym(fac, rule):
    """Truncate a symmetric product to orthonormal columns C and eigenvalues lam.

    ``fac`` is a :class:`SymLowRankFactor`, returned as ``C diag(lam) C*``
    in a new one, or a ``(factor, S)`` tuple with a :class:`BasisFactor` for
    ``factor @ S @ factor.T``, returned as ``(C, lam, dropped)``, ``dropped``
    the norm of the part cut off.  Eigenvalues are kept by magnitude so an
    indefinite middle factor keeps its signs real (no complex arithmetic is
    introduced).
    """
    if not isinstance(rule, TruncationRule):
        raise TypeError("rule must be a TruncationRule")
    if isinstance(fac, SymLowRankFactor):
        if fac.rank == 0:
            return fac
        C, lam, _ = compress_sym((BasisFactor.plain(fac.C), fac.S), rule)
        return SymLowRankFactor(C, np.diag(lam))
    factor, S = fac
    Q2, U, T = _orthonormalize(factor)
    core = T @ S @ T.T
    W, lam, dropped = _eig_by_magnitude(0.5 * (core + core.T), rule)
    return _combine(BasisFactor(factor.Q, Q2, U @ W)), lam, dropped


def psd_project(fac):
    """Nearest symmetric positive semidefinite matrix, in factored form.

    Discards the negative (and zero) eigenvalue part of ``C @ S @ C.T``.
    """
    n = fac.C.shape[0]
    if fac.rank == 0:
        return fac
    Qc, Rc = _qr_reduced_signed(fac.C)
    core = Rc @ fac.S @ Rc.T
    W, lam = eig_sym(0.5 * (core + core.T))
    keep = lam > 0.0
    if not keep.any():
        return SymLowRankFactor(np.zeros((n, 0)), np.zeros((0, 0)))
    return SymLowRankFactor(Qc @ W[:, keep], np.diag(lam[keep]))
