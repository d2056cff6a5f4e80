import os

import numpy as np
import pytest

from mateq import (
    OpCounter,
    SparseOperator,
    estimate_norm2,
    read_dense_matrix_market,
    read_matrix_market,
    spmm,
    write_dense_matrix_market,
    write_matrix_market,
)
from mateq.errors import DimensionMismatchError

from conftest import rng_for


def random_sparse(rng, n, density=0.1):
    M = rng.standard_normal((n, n))
    M[rng.random((n, n)) > density] = 0.0
    return M


def test_spmm_identity():
    rng = rng_for(1)
    V = rng.standard_normal((7, 3))
    cnt = OpCounter()
    out = spmm(SparseOperator.identity(7), V, cnt)
    assert np.array_equal(out, V)
    assert (cnt.a_calls, cnt.matvecs) == (1, 3)


def test_spmm_diagonal_column():
    n = 6
    A = SparseOperator.from_dense(np.diag(np.arange(1.0, n + 1)))
    out = spmm(A, np.ones((n, 1)), OpCounter())
    assert np.array_equal(out[:, 0], np.arange(1.0, n + 1))


def test_spmm_against_dense_oracle():
    rng = rng_for(2)
    general = random_sparse(rng, 50)
    # an interior empty row and an empty trailing row
    empty_rows = random_sparse(rng, 40, density=0.15)
    empty_rows[[7, -1], :] = 0.0
    for M, s in ((general, 3), (empty_rows, 5)):
        A = SparseOperator.from_dense(M)
        V = rng.standard_normal((M.shape[0], s))
        out = spmm(A, V, OpCounter())
        assert np.linalg.norm(out - M @ V) <= 1e-13 * max(np.linalg.norm(M @ V), 1)
        v = V[:, 0]
        assert A.apply(v).shape == v.shape
        assert np.linalg.norm(A.apply(v) - M @ v) <= 1e-13 * max(np.linalg.norm(M @ v), 1)


def test_spmm_linearity():
    rng = rng_for(3)
    M = random_sparse(rng, 30)
    A = SparseOperator.from_dense(M)
    V, W = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
    a, b = 1.7, -0.3
    lhs = spmm(A, a * V + b * W, OpCounter())
    rhs = a * spmm(A, V, OpCounter()) + b * spmm(A, W, OpCounter())
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(rhs), 1)


def test_spmm_dimension_mismatch():
    A = SparseOperator.identity(4)
    with pytest.raises(DimensionMismatchError):
        spmm(A, np.ones((5, 2)), OpCounter())


def test_from_coo_sums_duplicates():
    A = SparseOperator.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    assert A.nnz == 2
    assert np.allclose(A.to_dense(), [[0, 5], [1, 0]])


def test_from_coo_keeps_explicit_zero():
    A = SparseOperator.from_coo(2, [0, 1, 1], [0, 0, 1], [1.0, 0.0, 2.0])
    assert A.nnz == 3
    assert list(A.indptr) == [0, 1, 3] and list(A.indices) == [0, 0, 1]
    assert list(A.data) == [1.0, 0.0, 2.0]


# 3x3 CSR inputs, each broken in one way; the valid base is
# indptr [0, 2, 3, 5], indices [0, 2, 1, 0, 2]
@pytest.mark.parametrize("indptr,indices,data,symmetric", [
    ([0, 2, 3, 5], [2, 0, 1, 0, 2], [1.0] * 5, False),  # unsorted columns
    ([0, 2, 3, 5], [0, 0, 1, 0, 2], [1.0] * 5, False),  # duplicated column
    ([0, 2, 3, 5], [0, 3, 1, 0, 2], [1.0] * 5, False),  # column index >= n
    ([0, 2, 3, 5], [-1, 2, 1, 0, 2], [1.0] * 5, False),  # negative column index
    ([0, 3, 2, 5], [0, 2, 1, 0, 2], [1.0] * 5, False),  # decreasing indptr
    ([0, 2, 3, 4], [0, 2, 1, 0, 2], [1.0] * 5, False),  # indptr[-1] != nnz
    ([0, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, np.nan, 1.0, 1.0, 1.0], False),  # non-finite
    ([0, 2, 3, 4], [0, 2, 1, 2], [1.0, 0.0, 1.0, 1.0], True),  # unmirrored explicit zero
], ids=["unsorted", "duplicate", "col-too-large", "col-negative", "indptr-decreasing",
        "indptr-nnz-mismatch", "non-finite", "unmirrored-zero"])
def test_malformed_csr_rejected(indptr, indices, data, symmetric):
    with pytest.raises(ValueError):
        SparseOperator(3, indptr, indices, data, symmetric=symmetric)


def test_symmetric_flag_verified():
    with pytest.raises(ValueError):
        SparseOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), symmetric=True)
    A = SparseOperator.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]), symmetric=True)
    assert A.symmetric


def test_transpose():
    rng = rng_for(6)
    M = random_sparse(rng, 25)
    At = SparseOperator.from_dense(M).transpose()
    assert np.array_equal(At.to_dense(), M.T)


def test_operator_is_immutable():
    A = SparseOperator.identity(3)
    with pytest.raises(AttributeError):
        A.n = 5


def test_counter_monotone():
    cnt = OpCounter()
    A = SparseOperator.identity(5)
    widths = [1, 3, 2]
    for w in widths:
        spmm(A, np.ones((5, w)), cnt)
    assert cnt.a_calls == 3
    assert cnt.matvecs == sum(widths)


def test_estimate_norm2_scaled_identity():
    assert estimate_norm2(SparseOperator.identity(8, 3.0), iters=1) == pytest.approx(3.0)


def test_estimate_norm2_diagonal():
    A = SparseOperator.from_dense(np.diag(np.arange(1.0, 11.0)))
    est = estimate_norm2(A, iters=50)
    assert 9.99 <= est <= 10.0 + 1e-12


def test_estimate_norm2_zero():
    A = SparseOperator.from_coo(4, [], [], [])
    assert estimate_norm2(A) == 0.0


def test_estimate_norm2_is_lower_bound_and_deterministic():
    rng = rng_for(7)
    M = random_sparse(rng, 30)
    A = SparseOperator.from_dense(M)
    est = estimate_norm2(A, iters=20, seed=42)
    assert est == estimate_norm2(A, iters=20, seed=42)
    assert est <= np.linalg.norm(M, 2) * (1 + 1e-12)


def test_mm_roundtrip_exact(tmp_path):
    rng = rng_for(8)
    M = random_sparse(rng, 30, density=0.1)
    A = SparseOperator.from_dense(M)
    path = os.path.join(tmp_path, "a.mtx")
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_mm_identity_file(tmp_path):
    path = os.path.join(tmp_path, "i.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n")
    A = read_matrix_market(path)
    assert A.nnz == 2
    assert np.array_equal(A.to_dense(), np.eye(2))


def test_mm_symmetric_expansion(tmp_path):
    path = os.path.join(tmp_path, "s.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n"
                 "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.0\n")
    A = read_matrix_market(path)
    assert A.symmetric
    ref = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(A.to_dense(), ref)


def test_mm_symmetric_writer_stores_lower_triangle(tmp_path):
    A = SparseOperator.from_dense(
        np.array([[2.0, -1.0], [-1.0, 2.0]]), symmetric=True
    )
    path = os.path.join(tmp_path, "w.mtx")
    write_matrix_market(A, path)
    lines = open(path).read().splitlines()
    assert lines[0].endswith("symmetric")
    assert lines[1].split() == ["2", "2", "3"]
    back = read_matrix_market(path)
    assert np.array_equal(back.to_dense(), A.to_dense())


@pytest.mark.parametrize("header,err", [
    ("%%MatrixMarket matrix coordinate complex general", "real"),
    ("%%MatrixMarket matrix coordinate real hermitian", "symmetry"),
    ("%%NotMatrixMarket matrix coordinate real general", "header"),
])
def test_mm_rejects_bad_headers(tmp_path, header, err):
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write(header + "\n1 1 1\n1 1 1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_mm_rejects_nonsquare(tmp_path):
    path = os.path.join(tmp_path, "rect.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_dense_mm_roundtrip(tmp_path):
    rng = rng_for(9)
    M = rng.standard_normal((7, 3))
    path = os.path.join(tmp_path, "c.mtx")
    write_dense_matrix_market(M, path)
    back = read_dense_matrix_market(path)
    assert np.array_equal(M, back)
