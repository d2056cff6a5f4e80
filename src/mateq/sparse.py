"""Sparse coefficient operators with counted block application.

``SparseOperator`` is an immutable square sparse matrix held as one
``scipy.sparse`` array; every product runs on ``scipy.sparse``.  An operator
built from arrays is a CSR array.  Its :meth:`~SparseOperator.transpose` is
scipy's CSC view of the same arrays, so a transpose shares the original
operator's memory and costs no copy; it still reports CSR arrays.  All
solver-facing products go through :func:`spmm`, which charges an
:class:`OpCounter` session object: one *A-call* per block application and one
*matvec* per applied column.  Counters live outside the operator so a shared
operator can serve concurrent solve sessions.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError
from .linalg import _pow2_scaled

# Recorded by the benchmark's environment record; products have one backend.
KERNEL_BACKEND = "scipy"
# power steps and start seed of every solver's norm estimate, and the
# description SolveReport.norm_estimate_method records
_NORM_EST_ITERS = 20
_NORM_EST_SEED = 42
NORM_EST_METHOD = f"power-iteration({_NORM_EST_ITERS} iters, seed {_NORM_EST_SEED})"

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
        CSR arrays; column indices strictly increasing within each row.  A
        transpose holds a CSC view of another operator's arrays and builds
        its CSR arrays on each read.
    symmetric : bool
        Structural symmetry flag, verified exactly at construction.
    """

    __slots__ = ("_mat", "symmetric")

    def __init__(self, n, indptr, indices, data, symmetric=False):
        n = int(n)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        # scipy would prune entries beyond indptr[-1] without a word
        if indptr.shape != (n + 1,) or indptr[-1] != data.shape[0]:
            raise ValueError("malformed CSR row pointers")
        csr = scipy.sparse.csr_array((data, indices, indptr), shape=(n, n))
        csr.check_format(full_check=True)  # pointers, index bounds, array lengths
        if not csr.has_canonical_format:
            raise ValueError("column indices must be strictly increasing within each row")
        self._init(csr, symmetric)

    def _init(self, mat, symmetric):
        """Adopt a CSR array (or a transpose's CSC view) after the entry and symmetry checks."""
        if not np.isfinite(mat.data).all():
            raise ValueError("operator entries must be finite")
        if symmetric:
            t = mat.T.tocsr()
            same = (
                np.array_equal(t.indptr, mat.indptr)
                and np.array_equal(t.indices, mat.indices)
                and np.array_equal(t.data, mat.data)
            )
            if not same:
                raise ValueError("symmetric flag set but operator is not exactly symmetric")
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "symmetric", bool(symmetric))

    @classmethod
    def _from_scipy(cls, mat, symmetric):
        op = cls.__new__(cls)
        op._init(mat, symmetric)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("SparseOperator is immutable")

    def _as_csr(self):
        return self._mat if self._mat.format == "csr" else self._mat.tocsr()

    @property
    def n(self):
        return self._mat.shape[0]

    @property
    def indptr(self):
        return self._as_csr().indptr

    @property
    def indices(self):
        return self._as_csr().indices

    @property
    def data(self):
        return self._as_csr().data

    @property
    def nnz(self):
        return self._mat.nnz

    @classmethod
    def from_coo(cls, n, rows, cols, values, symmetric=False):
        """Build from triplets; duplicates are summed, zeros kept as stored."""
        coo = scipy.sparse.coo_array(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        return cls._from_scipy(coo.tocsr(), symmetric)

    @classmethod
    def from_dense(cls, M, symmetric=False):
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {M.shape}")
        rows, cols = np.nonzero(M)
        return cls.from_coo(M.shape[0], rows, cols, M[rows, cols], symmetric=symmetric)

    @classmethod
    def identity(cls, n, scale=1.0):
        idx = np.arange(n, dtype=np.int64)
        indptr = np.arange(n + 1, dtype=np.int64)
        return cls(n, indptr, idx, np.full(n, float(scale)), symmetric=True)

    def transpose(self):
        """``A.T`` over this operator's own arrays (scipy's zero-copy CSC view).

        Its products sum each entry in the same order as a transposed CSR
        copy's would, so they agree with that copy's bit for bit.
        """
        if self.symmetric:
            return self
        return SparseOperator._from_scipy(self._mat.T, symmetric=False)

    def apply(self, V):
        """Uncounted block application A @ V (diagnostics and norm estimation)."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n:
            raise DimensionMismatchError(f"operator is {self.n}x{self.n}, block has {V.shape[0]} rows")
        return self._mat @ V

    def apply_rows(self, V, rows):
        """Uncounted product ``A[rows] @ V`` for a slice of rows (row-blocked diagnostics)."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape[0] != self.n:
            raise DimensionMismatchError(f"operator is {self.n}x{self.n}, block has {V.shape[0]} rows")
        return self._mat[rows] @ V

    def to_dense(self):
        return self._mat.toarray()

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
    out = A._mat @ V
    counter.record(V.shape[1])
    return out


def estimate_norm2(A):
    """Power-iteration estimate of the spectral norm of ``A``.

    Runs ``_NORM_EST_ITERS`` power steps on ``A.T @ A`` from a random start
    seeded with ``_NORM_EST_SEED`` and returns the Rayleigh-quotient value
    ``||A v||``, which is a lower estimate of the true ``||A||_2``.
    Deterministic; applications are not charged to any counter.  ``A.T`` is
    applied through scipy's transposed view of A's arrays, which sums each
    entry of ``A.T @ w`` in the same order as a transposed CSR copy would,
    without building one.
    Each image is scaled exactly by a power of two
    (:func:`linalg._pow2_scaled`) before its norm is taken and before ``A.T``
    is applied to it, so the estimate neither overflows nor underflows for
    any ``||A||`` a float holds, and it is the unscaled iteration's value
    wherever that one stays in range.
    """
    rng = np.random.Generator(np.random.PCG64(_NORM_EST_SEED))
    At = A._mat.T
    v = rng.standard_normal(A.n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(_NORM_EST_ITERS):
        w, exp = _pow2_scaled(A.apply(v))
        est = np.ldexp(np.linalg.norm(w), exp)
        if est == 0.0:
            return 0.0
        u = _pow2_scaled(At @ w)[0]
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        v = u / nu
    return float(est)
