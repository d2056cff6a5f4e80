"""The restarted solvers' allocated memory against the budget stated in README.

README ("Memory") states the bound

    peak <= operator bytes + 8 n (memmax + solution columns + c * s_max)

for the ``tracemalloc`` peak of one solve: operator bytes are the CSR arrays
of the coefficients, solution columns the widest solution factors (both
factors for Sylvester), and ``s_max`` the widest right-hand side or restart
residual.  The measured ``c`` is about 3 to 5; the check allows 8.
"""

import tracemalloc

import pytest

from mateq import SolverConfig, problems, restarted_lyap, restarted_sylv

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


def _sylv():
    A = problems.convdiff_3d(12, 0.01, "wA")
    B = problems.convdiff_3d(12, 0.01, "wB")
    C, D = problems.random_rhs(A.n, 3, seed=0, pair=True)
    return (A, B), 2, lambda: restarted_sylv(A, B, C, D, SolverConfig(memmax=198, tol_res=1e-6))


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
