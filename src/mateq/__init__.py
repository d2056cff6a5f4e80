"""Memory-budgeted low-rank solvers for large Sylvester and Lyapunov equations.

The core solvers (:func:`restarted_sylv`, :func:`restarted_lyap`) run the
block Krylov projection method in restart cycles under a hard cap on stored
basis columns, compressing the low-rank residual and solution factors between
cycles.  Baselines (extended Krylov with inexact inner solves, two-pass block
Lanczos), problem generators, and a benchmark CLI round out the package.
"""

from .arnoldi import ArnoldiDecomposition, arnoldi_extend, arnoldi_init
from .baselines import (
    InnerSolverConfig,
    block_cg,
    block_gmres,
    eksm_lyap,
    eksm_sylv,
    sksm_two_pass,
)
from .compression import (
    LowRankFactorPair,
    SymLowRankFactor,
    TruncationRule,
    compress,
    compress_sym,
    psd_project,
)
from .dense_eq import kron_oracle, solve_lyapunov_ldlt, solve_sylvester_dense
from .linalg import eig_sym, qr_economy, svd
from .mmio import (
    read_dense_matrix_market,
    read_matrix_market,
    write_dense_matrix_market,
    write_matrix_market,
)
from .problems import convdiff_3d, laplacian_2d, random_rhs
from .residuals import (
    explicit_residual_lyap,
    explicit_residual_sylv,
    residual_norm_lyap,
    residual_norm_sylv,
    true_residual_lyap,
    true_residual_sylv,
)
from .restarted import (
    SolveReport,
    SolverConfig,
    eval_error_bound_normal,
    eval_residual_bound,
    restarted_lyap,
    restarted_sylv,
)
from .sparse import KERNEL_BACKEND, OpCounter, SparseOperator, estimate_norm2, spmm

__version__ = "0.1.0"
