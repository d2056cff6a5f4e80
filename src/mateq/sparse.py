"""Sparse coefficient operators with counted block application.

``SparseOperator`` is an immutable square CSR matrix held as one
``scipy.sparse`` CSR array; every product runs on ``scipy.sparse``.  All
solver-facing products go through :func:`spmm`, which charges an
:class:`OpCounter` session object: one *A-call* per block application and one
*matvec* per applied column.  Counters live outside the operator so a shared
operator can serve concurrent solve sessions.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError

# Recorded by the benchmark's environment record; products have one backend.
KERNEL_BACKEND = "scipy"

__all__ = ["SparseOperator", "OpCounter", "spmm", "estimate_norm2", "KERNEL_BACKEND"]


@dataclass
class OpCounter:
    """Per-operator application counts for one solve session."""

    a_calls: int = 0
    matvecs: int = 0

    def record(self, width):
        self.a_calls += 1
        self.matvecs += int(width)

    def as_dict(self):
        return {"a_calls": self.a_calls, "matvecs": self.matvecs}


class SparseOperator:
    """Immutable square sparse matrix in canonical CSR layout.

    Attributes
    ----------
    n : int
        Dimension.
    indptr, indices, data : ndarray
        CSR arrays; column indices strictly increasing within each row.
    symmetric : bool
        Structural symmetry flag, verified exactly at construction.
    """

    __slots__ = ("_csr", "symmetric")

    def __init__(self, n, indptr, indices, data, symmetric=False):
        n = int(n)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != data.shape[0]:
            raise ValueError("malformed CSR row pointers")
        row_len = np.diff(indptr)
        if np.any(row_len < 0):
            raise ValueError("CSR row pointers must be nondecreasing")
        if indices.shape != data.shape:
            raise ValueError("CSR indices/data length mismatch")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("column indices must lie in [0, n)")
        # (row, column) pairs in row-major order increase strictly exactly
        # when every row's columns do
        rows = np.repeat(np.arange(n, dtype=np.int64), row_len)
        if np.any(np.diff(rows * n + indices) <= 0):
            raise ValueError("column indices must be strictly increasing within each row")
        csr = scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))
        self._init(csr, symmetric)

    def _init(self, csr, symmetric):
        """Adopt a canonical CSR array after the entry and symmetry checks."""
        if not np.isfinite(csr.data).all():
            raise ValueError("operator entries must be finite")
        if symmetric:
            t = csr.T.tocsr()
            same = (
                np.array_equal(t.indptr, csr.indptr)
                and np.array_equal(t.indices, csr.indices)
                and np.array_equal(t.data, csr.data)
            )
            if not same:
                raise ValueError("symmetric flag set but operator is not exactly symmetric")
        object.__setattr__(self, "_csr", csr)
        object.__setattr__(self, "symmetric", bool(symmetric))

    @classmethod
    def _from_csr(cls, csr, symmetric):
        op = cls.__new__(cls)
        op._init(csr, symmetric)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    @property
    def n(self):
        return self._csr.shape[0]

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def data(self):
        return self._csr.data

    @property
    def nnz(self):
        return self._csr.nnz

    @classmethod
    def from_coo(cls, n, rows, cols, values, symmetric=False):
        """Build from triplets; duplicates are summed, zeros kept as stored."""
        coo = scipy.sparse.coo_array(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        return cls._from_csr(coo.tocsr(), symmetric)

    @classmethod
    def from_dense(cls, M, symmetric=False, tol=0.0):
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {M.shape}")
        rows, cols = np.nonzero(np.abs(M) > tol)
        return cls.from_coo(M.shape[0], rows, cols, M[rows, cols], symmetric=symmetric)

    @classmethod
    def identity(cls, n, scale=1.0):
        idx = np.arange(n, dtype=np.int64)
        indptr = np.arange(n + 1, dtype=np.int64)
        return cls(n, indptr, idx, np.full(n, float(scale)), symmetric=True)

    def transpose(self):
        if self.symmetric:
            return self
        return SparseOperator._from_csr(self._csr.T.tocsr(), symmetric=False)

    def apply(self, V):
        """Uncounted block application A @ V (diagnostics and norm estimation)."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n:
            raise DimensionMismatchError(f"operator is {self.n}x{self.n}, block has {V.shape[0]} rows")
        return self._csr @ V

    def apply_rows(self, V, rows):
        """Uncounted product ``A[rows] @ V`` for a slice of rows (row-blocked diagnostics)."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n:
            raise DimensionMismatchError(f"operator is {self.n}x{self.n}, block has {V.shape[0]} rows")
        return self._csr[rows] @ V

    def to_dense(self):
        return self._csr.toarray()

    def __repr__(self):
        return f"SparseOperator(n={self.n}, nnz={self.nnz}, symmetric={self.symmetric})"


def spmm(A, V, counter):
    """Counted sparse block product A @ V.

    Charges one A-call and ``V.shape[1]`` matvecs to ``counter``.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] < 1:
        raise DimensionMismatchError(f"block must be n x s with s >= 1, got shape {V.shape}")
    if V.shape[0] != A.n:
        raise DimensionMismatchError(f"operator is {A.n}x{A.n}, block has {V.shape[0]} rows")
    out = A._csr @ V
    counter.record(V.shape[1])
    return out


def estimate_norm2(A, iters=20, seed=42):
    """Power-iteration estimate of the spectral norm of ``A``.

    Runs ``iters`` power steps on ``A.T @ A`` from a seeded random start and
    returns the Rayleigh-quotient value ``||A v||``, which is a lower estimate
    of the true ``||A||_2``.  Deterministic given the seed; applications are
    not charged to any counter.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    At = A.transpose()
    v = rng.standard_normal(A.n)
    nv = np.linalg.norm(v)
    if nv == 0:  # pragma: no cover - standard_normal never returns all zeros
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iters):
        w = A.apply(v)
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0
        u = At.apply(w)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        v = u / nu
    return float(est)
