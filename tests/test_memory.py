"""The Krylov solvers' allocated memory against the budget stated in README.

README ("Memory") states the bound

    peak <= operator bytes + 8 n (memmax + solution columns + c * s_max)

for the ``tracemalloc`` peak of one solve: operator bytes are the CSR arrays
of the coefficients, solution columns the widest solution factors (both
factors for Sylvester), and ``s_max`` the widest right-hand side or restart
residual.  The measured ``c`` is about 1 to 4, and 7.4 on the Sylvester
problem here, where the default residual cut keeps ``s_max`` at 5; the check
allows 8.
``eksm_lyap`` is held to the same bound with ``2 max_dim`` in place of
``memmax``, for its preallocated basis and operator images.  The
block Gram-Schmidt step that every Krylov basis grows by is held to one
scratch block of its own size, and compression to its output plus one row
slice of a product.  ``sksm_two_pass``'s first pass is held to terms in
k^2 (its projected arrays, k the basis dimension) and n s (its three live
Lanczos blocks).
"""

import tracemalloc

import numpy as np
import pytest

from mateq import (
    InnerSolverConfig,
    SolverConfig,
    baselines,
    eksm_lyap,
    problems,
    restarted_lyap,
    restarted_sylv,
    sksm_two_pass,
)
from mateq.compression import (BasisFactor, LowRankFactorPair, SymLowRankFactor,
                               TruncationRule, compress, compress_sym)
from mateq.linalg import orthonormalize_block
from mateq.residuals import _SLICE_COLUMNS

from conftest import rng_for

C_PER_RESIDUAL_COLUMN = 8


def _csr_bytes(*ops):
    return sum(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes for op in ops)


def _traced_peak(solve):
    """``solve()``'s result and the bytes it held at its peak, beyond what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = solve()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _lyap():
    A = problems.laplacian_2d(40)
    C = problems.random_rhs(A.n, 3, seed=0)
    return (A,), 1, lambda: restarted_lyap(A, C, SolverConfig(memmax=72, tol_res=1e-6))


def _sylv(**settings):
    A = problems.convdiff_3d(12, 0.01, "wA")
    B = problems.convdiff_3d(12, 0.01, "wB")
    C, D = problems.random_rhs(A.n, 3, seed=0, pair=True)
    cfg = SolverConfig(memmax=198, tol_res=1e-6, **settings)
    return (A, B), 2, lambda: restarted_sylv(A, B, C, D, cfg)


@pytest.mark.parametrize("problem", [_lyap, _sylv], ids=["lyap-laplacian2d", "sylv-convdiff3d"])
def test_peak_memory_within_stated_budget(problem):
    ops, factors, solve = problem()
    (_, report), peak = _traced_peak(solve)
    assert report.converged and report.restarts >= 1
    solution_columns = factors * max(report.solution_ranks)
    s_max = max([report.s, *report.residual_ranks])
    budget = _csr_bytes(*ops) + 8 * report.n * (
        report.memmax + solution_columns + C_PER_RESIDUAL_COLUMN * s_max
    )
    assert peak <= budget, (
        f"peak {peak / (8 * report.n):.1f} n-columns > budget {budget / (8 * report.n):.1f}"
    )


def test_eksm_lyap_peak_memory_within_stated_budget():
    # the basis and its images are preallocated, 2 max_dim columns in place of
    # memmax; the outer residual norm is taken in row slices, so no n x dim
    # temporary (about 1.4 dim columns here) comes on top of them
    A = problems.laplacian_2d(40)
    C = problems.random_rhs(A.n, 3, seed=0)
    inner = InnerSolverConfig(kind="block-cg", tol=1e-8)
    (_, report), peak = _traced_peak(lambda: eksm_lyap(A, C, inner, 1e-6, 96))
    assert report.converged and report.basis_dim >= 48
    budget = _csr_bytes(A) + 8 * report.n * (
        2 * report.memmax + report.solution_rank + C_PER_RESIDUAL_COLUMN * report.s
    )
    assert peak <= budget, (
        f"peak {peak / (8 * report.n):.1f} n-columns > budget {budget / (8 * report.n):.1f}"
    )


def test_restarted_sylv_holds_no_operator_copy_nor_both_restart_blocks():
    # the budget with no operator bytes and c = 5: B.T is a view of B's
    # arrays, and each side's restart block is formed just before that side's
    # basis is released.  A transposed copy of B (14 n-columns here) and the
    # second side's restart block beside the first side's basis (10 more)
    # would take the peak to about 363 to 365 n-columns, above 358.  The
    # residual cut is pinned at 1e-9, the fixed default it was sized at: the
    # default rule's coarser cuts halve s_max and with it this budget's slack
    _, factors, solve = _sylv(tol_comp_res=1e-9)
    (_, report), peak = _traced_peak(solve)
    assert report.converged and report.restarts >= 1
    s_max = max([report.s, *report.residual_ranks])
    budget = 8 * report.n * (report.memmax + factors * max(report.solution_ranks) + 5 * s_max)
    assert peak <= budget, (
        f"peak {peak / (8 * report.n):.1f} n-columns > budget {budget / (8 * report.n):.1f}"
    )


def test_eksm_lyap_releases_images_before_the_solution_factor():
    # 2 max_dim + 13 s, no solution-rank term: block CG's blocks beside U and
    # A U set the peak (about 223 n-columns here).  Forming the solution
    # factor U W while A U is still held would add its rank, 31, to about 238
    A = problems.laplacian_2d(40)
    C = problems.random_rhs(A.n, 3, seed=0)
    inner = InnerSolverConfig(kind="block-cg", tol=1e-8)
    (_, report), peak = _traced_peak(lambda: eksm_lyap(A, C, inner, 1e-6, 96))
    assert report.converged and report.basis_dim >= 48
    budget = 8 * report.n * (2 * report.memmax + 13 * report.s)
    assert peak <= budget, (
        f"peak {peak / (8 * report.n):.1f} n-columns > budget {budget / (8 * report.n):.1f}"
    )


def test_sksm_first_pass_holds_its_projected_matrix_once(monkeypatch):
    # the peak up to the end of pass one, read when the projected solution is
    # factored.  63 steps of width 3 end at k = 189, one step past the size
    # where a buffer that doubles when full grows from 186 to 378 rows: 4 k^2
    # doubles for H alone.  Pass one holds H, the last step's eigh workspace
    # and projected solution arrays (about 4.7 k^2 here) and its Lanczos
    # blocks and right-hand side (a few n s).  The check allows 6 k^2 + 8 n s;
    # the doubled buffer takes the peak to about 7.9 k^2 + 8 n s
    A = problems.laplacian_2d(30)
    C = problems.random_rhs(A.n, 3, seed=0)
    marks = []  # bytes live before the solve, then the peak at pass one's end

    def solve():
        marks.append(tracemalloc.get_traced_memory()[0])
        return sksm_two_pass(A, C, 1e-14, 63)

    def at_pass_one_end(*args):
        marks.append(tracemalloc.get_traced_memory()[1])
        return factor(*args)

    factor = baselines._eig_by_magnitude
    monkeypatch.setattr(baselines, "_eig_by_magnitude", at_pass_one_end)
    (_, report), _ = _traced_peak(solve)
    assert not report.converged and report.iterations == 63 and len(marks) == 2
    peak = marks[1] - marks[0]
    k, ns = report.basis_dim, report.n * report.s
    budget = 8 * (6 * k**2 + 8 * ns)
    assert peak <= budget, f"pass one peak {peak / (8 * k**2):.2f} k^2 > {budget / (8 * k**2):.2f}"


@pytest.mark.parametrize("delta", [1.0, 1e-9])
def test_orthonormalize_block_holds_one_scratch_block(delta):
    # beyond W, one block step may hold one n x s scratch block, its k x s
    # projection coefficients (P and the second sweep's G) and small s x s
    # matrices; a Householder QR of W would hold a second n x s block.  At
    # n = 7000 the projections run over row panels of U: their partial
    # products are k x s, and a copy of one panel would break the budget
    rng = rng_for(7)
    k, s = 40, 18
    for n in (2000, 7000):
        U, _ = np.linalg.qr(rng.standard_normal((n, k)))
        U = np.asfortranarray(U)
        W = np.asfortranarray(U @ rng.standard_normal((k, s)) + delta * rng.standard_normal((n, s)))
        _, peak = _traced_peak(lambda: orthonormalize_block(U, W))
        assert peak <= 8 * (n * s + 2 * k * s + 10 * s * s), f"{peak / (8 * n * s):.2f} n x s blocks"


@pytest.mark.parametrize("sym", [True, False], ids=["compress_sym", "compress"])
def test_compression_holds_one_output_sized_block(sym):
    # factors shaped like a lyap-lap2d solution update: an orthonormal old
    # solution Q (45 columns) and new columns Z (27).  Beyond its inputs and
    # outputs, compression may hold one row slice of the Q2 product
    # (_SLICE_COLUMNS n-columns) and small (q + z)-square matrices; a whole
    # Q2 @ W temporary would add another output's worth
    rng = rng_for(8)
    n, q, z = 6400, 45, 27

    def factor():
        Q, _ = np.linalg.qr(rng.standard_normal((n, q)))
        Z = np.asfortranarray(rng.standard_normal((n, z)))
        return BasisFactor(np.asfortranarray(Q), Z, np.eye(q + z))

    rule = TruncationRule(1e-12)
    if sym:
        fac = (factor(), np.diag(np.geomspace(1.0, 1e-6, q + z)))
        (C, lam, _), peak = _traced_peak(lambda: compress_sym(fac, rule))
        widths = C.shape[1]
        assert lam.shape == (widths,)
    else:
        pair = (factor(), factor())
        (U, _, V, _), peak = _traced_peak(lambda: compress(pair, rule))
        widths = U.shape[1] + V.shape[1]
    assert widths >= q + z
    budget = 8 * n * (widths + _SLICE_COLUMNS) + 8 * 12 * (q + z) ** 2
    assert peak <= budget, (
        f"peak {peak / (8 * n) - widths:.1f} n-columns beyond the outputs, "
        f"budget {budget / (8 * n) - widths:.1f}"
    )


@pytest.mark.parametrize("sym", [True, False], ids=["SymLowRankFactor", "LowRankFactorPair"])
def test_factor_finiteness_check_allocates_no_mask(sym):
    # an entry-sized boolean mask would be n * w bytes; min and max hold scalars
    n, w = 100000, 8
    C = rng_for(9).standard_normal((n, w))
    if sym:
        S = np.diag(np.arange(1.0, w + 1))
        _, peak = _traced_peak(lambda: SymLowRankFactor(C, S))
    else:
        D = C[::-1].copy()
        _, peak = _traced_peak(lambda: LowRankFactorPair(C, D))
    assert peak <= n * w // 64, f"peak {peak} bytes for an {n} x {w} factor"
