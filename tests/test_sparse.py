import os

import numpy as np
import pytest

from mateq import (
    OpCounter,
    SparseOperator,
    estimate_norm2,
    problems,
    read_dense_matrix_market,
    read_matrix_market,
    spmm,
    write_dense_matrix_market,
    write_matrix_market,
)
from mateq import sparse
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


@pytest.mark.parametrize("call, match", [
    (lambda A: spmm(A, np.ones((4, 0)), OpCounter()), "s >= 1"),
    (lambda A: spmm(A, np.ones(4), OpCounter()), "s >= 1"),
    (lambda A: A.apply(np.ones((5, 2))), "block has 5 rows"),
    (lambda A: A.apply_rows(np.ones((5, 2)), slice(0, 2)), "block has 5 rows"),
], ids=["spmm-width-0", "spmm-1d", "apply", "apply_rows"])
def test_products_reject_misshapen_blocks(call, match):
    with pytest.raises(DimensionMismatchError, match=match):
        call(SparseOperator.identity(4))


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
    ([1, 2, 3, 5], [0, 2, 1, 0, 2], [1.0] * 5, False),  # indptr[0] != 0
    ([0, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, np.nan, 1.0, 1.0, 1.0], False),  # non-finite
    ([0, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, 1.0, np.inf, 1.0, 1.0], False),  # +inf
    ([0, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, 1.0, 1.0, -np.inf, 1.0], False),  # -inf
    ([0, 2, 3, 4], [0, 2, 1, 2], [1.0, 0.0, 1.0, 1.0], True),  # unmirrored explicit zero
], ids=["unsorted", "duplicate", "col-too-large", "col-negative", "indptr-decreasing",
        "indptr-nnz-mismatch", "indptr-start", "non-finite", "pos-inf", "neg-inf",
        "unmirrored-zero"])
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


_NONSYMMETRIC = [lambda: problems.convdiff_3d(6, 0.01, "wB"),
                 lambda: SparseOperator.from_dense(random_sparse(rng_for(21), 40))]


@pytest.mark.parametrize("build", _NONSYMMETRIC, ids=["convdiff3d", "random"])
def test_transpose_reports_csr_arrays_and_round_trips(tmp_path, build):
    A = build()
    At = A.transpose()
    ref = SparseOperator.from_dense(A.to_dense().T)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(At, name), getattr(ref, name)), name
    path = os.path.join(tmp_path, "at.mtx")
    write_matrix_market(At, path)
    back = read_matrix_market(path)
    assert not back.symmetric
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back, name), getattr(ref, name)), name


@pytest.mark.parametrize("build", _NONSYMMETRIC, ids=["convdiff3d", "random"])
def test_transpose_shares_the_operators_arrays(build):
    A = build()
    Att = A.transpose().transpose()
    for name in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(Att, name), getattr(A, name)), name
    assert np.array_equal(Att.to_dense(), A.to_dense())


@pytest.mark.parametrize("width", [1, 3, 18])
@pytest.mark.parametrize("build", _NONSYMMETRIC, ids=["convdiff3d", "random"])
def test_transpose_products_match_a_csr_copy_bitwise(build, width):
    A = build()
    At = A.transpose()
    copy = SparseOperator(At.n, At.indptr, At.indices, At.data)
    V = np.asfortranarray(rng_for(22).standard_normal((A.n, width)))
    assert np.array_equal(spmm(At, V, OpCounter()), spmm(copy, V, OpCounter()))
    assert np.array_equal(At.apply(V), copy.apply(V))
    rows = slice(A.n // 3, A.n // 3 + 17)
    assert np.array_equal(At.apply_rows(V, rows), copy.apply_rows(V, rows))


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


def test_estimate_norm2_scaled_identity(monkeypatch):
    monkeypatch.setattr(sparse, "_NORM_EST_ITERS", 1)
    assert estimate_norm2(SparseOperator.identity(8, 3.0)) == pytest.approx(3.0)


def test_estimate_norm2_diagonal(monkeypatch):
    monkeypatch.setattr(sparse, "_NORM_EST_ITERS", 50)
    A = SparseOperator.from_dense(np.diag(np.arange(1.0, 11.0)))
    est = estimate_norm2(A)
    assert 9.99 <= est <= 10.0 + 1e-12


def test_estimate_norm2_zero():
    A = SparseOperator.from_coo(4, [], [], [])
    assert estimate_norm2(A) == 0.0


@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e300])
def test_estimate_norm2_is_scale_safe(scale):
    """Unscaled dot products would under- or overflow here and return 0.0 or nan."""
    est = estimate_norm2(SparseOperator.identity(8, scale))
    assert est == pytest.approx(scale, rel=1e-14, abs=0)


def test_from_dense_rejects_bad_input():
    with pytest.raises(DimensionMismatchError, match="operator must be square"):
        SparseOperator.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="operator entries must be finite"):
        SparseOperator.from_dense(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_estimate_norm2_is_lower_bound_and_deterministic():
    rng = rng_for(7)
    M = random_sparse(rng, 30)
    A = SparseOperator.from_dense(M)
    est = estimate_norm2(A)
    assert est == estimate_norm2(A)
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


_COO = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("read,text", [
    (read_matrix_market, _COO + "2 2 1\n1 1 1.0\n2 2 1.0\n"),  # more entries than declared
    (read_matrix_market, _COO + "2 2 3\n1 1 1.0\n2 2 1.0\n"),  # fewer entries
    (read_matrix_market, _COO + "2 2 2\n1 1\n2 2 1.0\n"),  # two-token entry line
    (read_matrix_market, _COO + "2 2 2\n1 1 1.0\n3 2 1.0\n"),  # row index out of range
    (read_matrix_market, "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 1\n"),
    (read_dense_matrix_market, "%%MatrixMarket matrix array real general\n3 2\n1.0\n2.0\n3.0\n"),
], ids=["more", "fewer", "two-token", "row-range", "integer", "dense-truncated"])
def test_mm_rejects_malformed_body(tmp_path, read, text):
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError):
        read(path)


def test_dense_reader_rejects_a_coordinate_file(tmp_path):
    path = os.path.join(tmp_path, "sparse.mtx")
    with open(path, "w") as fh:
        fh.write(_COO + "2 2 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="expected array format, got 'coordinate'"):
        read_dense_matrix_market(path)


# what the reader accepts on purpose (mmio's docstring): scipy's leniency, pinned
# so that a change in scipy shows
@pytest.mark.parametrize("text", [
    _COO + "2 2 2\n1 1 1.0 5\n2 2 2.0\n",  # tokens after an entry's value are ignored
    _COO.replace("general", "general extra") + "2 2 2\n1 1 1.0\n2 2 2.0\n",  # sixth header word
    _COO + "2 2 2\n1 1 1.0 3.0\n2 2 2.0 -4.0\n",  # complex entries read as their real part
], ids=["extra-token", "sixth-header-word", "complex-under-real"])
def test_mm_accepts_documented_leniencies(tmp_path, text):
    path = os.path.join(tmp_path, "lenient.mtx")
    with open(path, "w") as fh:
        fh.write(text)
    A = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), np.diag([1.0, 2.0])) and not A.symmetric


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


@pytest.mark.parametrize("shape", [(0, 0), (0, 2), (3, 0)])
def test_dense_mm_empty_block_roundtrip(tmp_path, shape):
    path = os.path.join(tmp_path, "e.mtx")
    write_dense_matrix_market(np.zeros(shape), path)
    assert read_dense_matrix_market(path).shape == shape


@pytest.mark.parametrize("build", [lambda: problems.convdiff_3d(10, 0.01, "wA"),
                                   lambda: problems.laplacian_2d(30)],
                         ids=["convdiff3d", "laplacian2d"])
def test_estimate_norm2_applies_transpose_without_a_copy(monkeypatch, build):
    # the reference power iteration applies a transposed CSR copy of A
    A = build()
    rng = np.random.Generator(np.random.PCG64(42))
    At = A.transpose()
    v = rng.standard_normal(A.n)
    v /= np.linalg.norm(v)
    for _ in range(20):
        w = A.apply(v)
        ref = np.linalg.norm(w)
        u = At.apply(w)
        v = u / np.linalg.norm(u)

    def no_copy(self):
        raise AssertionError("estimate_norm2 built a transposed copy")

    monkeypatch.setattr(SparseOperator, "transpose", no_copy)
    assert estimate_norm2(A) == ref
