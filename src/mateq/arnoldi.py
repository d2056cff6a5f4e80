"""Incremental block Arnoldi process.

Builds an orthonormal basis of the block Krylov subspace spanned by
``{C, A C, A^2 C, ...}`` together with the block Hessenberg matrix H and the
boundary block coupling the last kept block to the next one, so that

    A @ U_m = U_m @ H_m + U_{m+1} @ H_boundary @ E_m.T

holds to working precision.  Each step orthonormalizes A's image of the
newest block in place, in one preallocated Fortran-ordered basis, with
:func:`linalg.orthonormalize_block` (project, two Cholesky-QR passes, project
once more, and a third pass only where that projection removed more than a
negligible lean or the block was ill-conditioned; Householder QR only where
Cholesky fails).  Its two projections read the basis in row panels of
512 KiB once it holds 2 MiB (about 33 columns at n = 8000); on one BLAS
thread they read it that way about twice as fast.  The basis stays
orthonormal to roundoff even when the image falls nearly inside it: the
tests hold ``||E.T E - I||_F <= 1e-12`` for the extended basis E in that
case, and over a 96-column basis projected in panels.

Rank deficiency of the incoming block is not deflated: a deficient starting
block raises, and a deficient extension is a happy breakdown, reported only
through the session's ``breakdown`` flag: the basis is then (numerically)
invariant under A and the session takes no further steps.  A new block whose
R factor has ``sigma_min <= sqrt(u) ||A||`` (:func:`_near_breakdown`) may end
the Krylov space within roundoff before that flag is set, so the solvers
solve their projected equation at such a step too.
"""

import numpy as np

from .errors import MemoryBudgetError, RankDeficientBlockError
from .linalg import orthonormalize_block, qr_economy
from .sparse import spmm

__all__ = ["ArnoldiDecomposition", "arnoldi_init", "arnoldi_extend"]


class ArnoldiDecomposition:
    """Single-owner session state of a running block Arnoldi process."""

    def __init__(self, operator, counter, Q0, R0, max_steps):
        self.operator = operator
        self.counter = counter
        self.n, self.s = Q0.shape
        self.max_steps = int(max_steps)
        cap = (self.max_steps + 1) * self.s
        self._Q = np.zeros((self.n, cap), order="F")
        self._Q[:, : self.s] = Q0
        self._Hbar = np.zeros((cap, self.max_steps * self.s))
        self.r0 = R0
        self.m = 0
        self.breakdown = False
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
    def H(self):
        """Block upper-Hessenberg projection, (m*s) x (m*s)."""
        ms = self.m * self.s
        return self._Hbar[:ms, :ms]

    @property
    def Hbar(self):
        """H with the boundary block stacked below it, ((m+1)*s) x (m*s)."""
        ms = self.m * self.s
        return self._Hbar[: ms + self.s, :ms]

    @property
    def boundary(self):
        """Boundary block H_{m+1,m}; the tiny remainder's R after a breakdown."""
        ms = self.m * self.s
        return self._Hbar[ms : ms + self.s, ms - self.s : ms]

    def boundary_image(self):
        """The full-size product U_{m+1} @ H_{m+1,m} (n x s).

        After a breakdown U_{m+1} does not exist, but the remainder is stored
        as its QR factors in its place; their product is the out-of-space
        part of the last image, exact to roundoff even when R is singular.
        """
        ms = self.m * self.s
        return self._Q[:, ms : ms + self.s] @ self.boundary

    @property
    def materialized_columns(self):
        """Basis columns currently held (budget instrumentation)."""
        blocks = self.m if self.breakdown else self.m + 1
        return blocks * self.s


def arnoldi_init(A, C, counter, max_steps, r0=None):
    """Start a block Arnoldi session from the raw block C.

    The starting block is orthonormalized by economy QR; its R factor is kept
    on the decomposition (``r0``) because the basis projection of C is just
    the first block of the identity times R.  A C with orthonormal columns
    comes with the starting block's R as ``r0`` and is used without a QR.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] < 1:
        raise ValueError(f"starting block must be n x s with s >= 1, got {C.shape}")
    Q0, R0 = qr_economy(C) if r0 is None else (C, r0)
    _check_full_rank(R0)
    return ArnoldiDecomposition(A, counter, Q0, R0, max_steps)


def _check_full_rank(R):
    """Raise :class:`RankDeficientBlockError` unless a starting block's R factor has full rank.

    The rank is numerical: the smallest singular value of ``R`` must be at
    least ``1e-12`` times its largest.  A zero R passes, so a zero block is
    left to its caller.
    """
    sig = np.linalg.svd(R, compute_uv=False)
    if sig[-1] < 1e-12 * sig[0]:
        raise RankDeficientBlockError(
            f"starting block is numerically rank deficient (sigma_min/sigma_max = {sig[-1] / sig[0]:.3e})"
        )


def _near_breakdown(R, norm):
    """Whether a new block's R factor has ``sigma_min(R) <= sqrt(u) * norm``, u the unit roundoff.

    ``norm`` estimates the operator's norm.  The Krylov space may end within
    roundoff at such a block, and the residual collapse in one step, before
    the breakdown test on R's diagonal fires; the solvers solve their
    projected equation there.
    """
    return np.linalg.svd(R, compute_uv=False)[-1] <= np.sqrt(np.finfo(float).eps / 2) * norm


def arnoldi_extend(dec):
    """Advance the decomposition by one block step (exactly one spmm).

    Fills H's next block column, orthonormalizes the new block against the
    whole basis, and appends it.  A new block that is numerically rank
    deficient after orthogonalization is a happy breakdown: ``dec.breakdown``
    is set and the H column completed in this call remains valid, with the
    (tiny) remainder as its boundary block.  A call on a session that has
    broken down returns at once and applies no operator.
    """
    if dec.breakdown:
        return dec
    if dec.m >= dec.max_steps:
        raise MemoryBudgetError(
            f"decomposition capacity of {dec.max_steps} block steps exhausted"
        )
    s, j = dec.s, dec.m  # extending from block j to block j+1 (0-based storage)
    U = dec._Q[:, : (j + 1) * s]
    W = dec._Q[:, (j + 1) * s : (j + 2) * s]
    W[...] = spmm(dec.operator, U[:, j * s :], dec.counter)
    col = slice(j * s, (j + 1) * s)
    P, Rn = orthonormalize_block(U, W)
    Hcol = dec._Hbar[: (j + 2) * s, col]
    Hcol[...] = np.vstack([P, Rn])
    # the image is U P + Q Rn with [U, Q] orthonormal, so [P; Rn] has the
    # image's column norms, without another pass over the n x s image
    dec.op_norm_est = max(dec.op_norm_est, float(np.linalg.norm(Hcol, axis=0).max()))
    dec.m = j + 1
    if np.abs(np.diagonal(Rn)).min() <= 1e-12 * dec.op_norm_est:
        dec.breakdown = True
    return dec
