"""Incremental block Arnoldi process.

Builds an orthonormal basis of the block Krylov subspace spanned by
``{C, A C, A^2 C, ...}`` together with the block Hessenberg matrix H and the
boundary block coupling the last kept block to the next one, so that

    A @ U_m = U_m @ H_m + U_{m+1} @ H_boundary @ E_m.T

holds to working precision.  Orthogonalization is classical block
Gram-Schmidt with one full reorthogonalization pass (two projection sweeps),
which keeps the basis orthonormal to near machine precision; the intra-block
step is an economy QR.

Rank deficiency of the incoming block is not deflated: a deficient starting
block raises, and a deficient extension signals :class:`HappyBreakdown`
carrying the decomposition whose range is (numerically) invariant under A.
"""

import numpy as np

from .errors import MemoryExhaustedError, RankDeficientBlockError
from .linalg import qr_economy
from .sparse import spmm

__all__ = ["ArnoldiDecomposition", "HappyBreakdown", "arnoldi_init", "arnoldi_extend"]


class HappyBreakdown(Exception):
    """The new block vanished after orthogonalization: the basis is invariant.

    The attached decomposition is left at the step whose H column was just
    completed; its boundary block holds the (tiny) remainder, so residual
    formulas evaluate to (near) zero contributions from this side.
    """

    def __init__(self, decomposition):
        super().__init__(
            f"Krylov basis became invariant after {decomposition.m} block steps"
        )
        self.decomposition = decomposition


class ArnoldiDecomposition:
    """Single-owner session state of a running block Arnoldi process."""

    def __init__(self, operator, counter, Q0, R0, max_steps):
        self.operator = operator
        self.counter = counter
        self.n, self.s = Q0.shape
        self.max_steps = int(max_steps)
        cap = (self.max_steps + 1) * self.s
        self._Q = np.zeros((self.n, cap))
        self._Q[:, : self.s] = Q0
        self._Hbar = np.zeros((cap, self.max_steps * self.s))
        self.r0 = R0
        self.m = 0
        self.breakdown = False
        self._tiny_boundary = None
        self._remainder = None
        self.op_norm_est = 0.0

    @property
    def basis(self):
        """Orthonormal basis of the first m blocks (n x m*s)."""
        return self._Q[:, : self.m * self.s]

    @property
    def extended_basis(self):
        """Orthonormal basis of the first m+1 blocks, [U_m, U_{m+1}]; before a breakdown only."""
        return self._Q[:, : (self.m + 1) * self.s]

    @property
    def next_block(self):
        """The (m+1)-th block; None after a breakdown."""
        if self.breakdown:
            return None
        return self._Q[:, self.m * self.s : (self.m + 1) * self.s]

    @property
    def H(self):
        """Block upper-Hessenberg projection, (m*s) x (m*s)."""
        ms = self.m * self.s
        return self._Hbar[:ms, :ms]

    @property
    def boundary(self):
        """Boundary block H_{m+1,m}; the tiny remainder's R after a breakdown."""
        if self.breakdown:
            return self._tiny_boundary
        ms = self.m * self.s
        return self._Hbar[ms : ms + self.s, ms - self.s : ms]

    def boundary_image(self):
        """The full-size product U_{m+1} @ H_{m+1,m} (n x s).

        After a breakdown this is the stored remainder block itself, which is
        exact even when its QR was rank deficient and U_{m+1} does not exist.
        """
        if self.breakdown:
            return self._remainder
        return self.next_block @ self.boundary

    @property
    def materialized_columns(self):
        """Basis columns currently held (budget instrumentation)."""
        blocks = self.m if self.breakdown else self.m + 1
        return blocks * self.s


def arnoldi_init(A, C, counter, max_steps):
    """Start a block Arnoldi session from the raw block C.

    The starting block is orthonormalized by economy QR; its R factor is kept
    on the decomposition (``r0``) because the basis projection of C is just
    the first block of the identity times R.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] < 1:
        raise ValueError(f"starting block must be n x s with s >= 1, got {C.shape}")
    Q0, R0 = qr_economy(C)
    sig = np.linalg.svd(R0, compute_uv=False)
    if sig[-1] < 1e-12 * sig[0]:
        raise RankDeficientBlockError(
            f"starting block is numerically rank deficient (sigma_min/sigma_max = {sig[-1] / sig[0]:.3e})"
        )
    return ArnoldiDecomposition(A, counter, Q0, R0, max_steps)


def arnoldi_extend(dec):
    """Advance the decomposition by one block step (exactly one spmm).

    Fills H's next block column, orthonormalizes the new block against the
    whole basis, and appends it.  Raises :class:`HappyBreakdown` when the new
    block is numerically rank deficient after orthogonalization; the H column
    completed in this call remains valid.
    """
    if dec.breakdown:
        raise HappyBreakdown(dec)
    if dec.m >= dec.max_steps:
        raise MemoryExhaustedError(
            f"decomposition capacity of {dec.max_steps} block steps exhausted"
        )
    s = dec.s
    j = dec.m  # extending from block j to block j+1 (0-based storage)
    W = spmm(dec.operator, dec._Q[:, j * s : (j + 1) * s], dec.counter)
    dec.op_norm_est = max(dec.op_norm_est, float(np.linalg.norm(W, axis=0).max()))
    U = dec._Q[:, : (j + 1) * s]
    col = slice(j * s, (j + 1) * s)
    proj = U.T @ W
    W = W - U @ proj
    corr = U.T @ W  # one full reorthogonalization pass
    W = W - U @ corr
    dec._Hbar[: (j + 1) * s, col] = proj + corr
    Qn, Rn = qr_economy(W)
    dec.m = j + 1
    if np.abs(np.diagonal(Rn)).min() <= 1e-12 * dec.op_norm_est:
        dec.breakdown = True
        dec._tiny_boundary = Rn
        dec._remainder = W
        raise HappyBreakdown(dec)
    dec._Hbar[(j + 1) * s : (j + 2) * s, col] = Rn
    dec._Q[:, (j + 1) * s : (j + 2) * s] = Qn
    return dec
