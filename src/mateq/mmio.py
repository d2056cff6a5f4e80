"""Matrix Market I/O for the operators and dense right-hand-side blocks.

Coordinate files are real, 1-based, ``general`` or ``symmetric`` (lower
triangle stored).  Values are written with 17 significant digits so a
write/read round trip reproduces ``float64`` data exactly.  Dense blocks use
the ``array`` format (column-major).

Reading goes through :func:`scipy.io.mminfo` and :func:`scipy.io.mmread`;
this module adds only what mateq requires of a file on top: a square
operator, the ``real`` field, ``general``/``symmetric`` coordinate operators
and ``general`` dense blocks.  The reader is as lenient as scipy's: a
header with a sixth word after the symmetry is accepted, tokens after an
entry's value are ignored (``1 1 1.0 5`` reads as 1.0), and a complex-valued
file mislabelled ``real`` reads as its real part.  Writing is mateq's own so
the size line follows the banner directly.
"""

import numpy as np
import scipy.io

from .sparse import SparseOperator

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_dense_matrix_market",
    "write_dense_matrix_market",
]

_HEADER_PREFIX = "%%MatrixMarket"


def _info(path, fmt, symmetries):
    """Header ``(nrows, ncols, symmetry)`` after checking format, field and symmetry."""
    nrows, ncols, _, got_fmt, field, symmetry = scipy.io.mminfo(path)
    if got_fmt != fmt:
        raise ValueError(f"{path}: expected {fmt} format, got {got_fmt!r}")
    if field != "real":
        raise ValueError(f"{path}: only the 'real' field is supported, got {field!r}")
    if symmetry not in symmetries:
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
    return nrows, ncols, symmetry


def _write(path, header, size, fmt, *columns):
    """Write the banner, the size line and one ``fmt`` line per table row."""
    table = np.column_stack(columns).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX} matrix {header}\n{size}\n")
        fh.write((fmt * len(columns[0])) % tuple(table))


def read_matrix_market(path):
    """Read a coordinate Matrix Market file into a :class:`SparseOperator`."""
    nrows, ncols, symmetry = _info(path, "coordinate", ("general", "symmetric"))
    if nrows != ncols:
        raise ValueError(f"{path}: operator must be square, got {nrows}x{ncols}")
    # scipy mirrors the stored triangle of a symmetric file itself; its int32
    # indices are widened to the int64 that the generators' operators carry
    coo = scipy.io.mmread(path, spmatrix=False)
    return SparseOperator.from_coo(nrows, coo.row.astype(np.int64), coo.col.astype(np.int64),
                                   coo.data, symmetric=(symmetry == "symmetric"))


def write_matrix_market(A, path):
    """Write a :class:`SparseOperator` in coordinate format.

    Symmetric operators store the lower triangle under a ``symmetric`` header.
    """
    rows = np.repeat(np.arange(A.n), np.diff(A.indptr))
    keep = A.indices <= rows if A.symmetric else slice(None)
    rows, cols, vals = rows[keep], A.indices[keep], A.data[keep]
    symmetry = "symmetric" if A.symmetric else "general"
    _write(path, f"coordinate real {symmetry}", f"{A.n} {A.n} {vals.size}",
           "%d %d %.16e\n", rows + 1, cols + 1, vals)


def read_dense_matrix_market(path):
    """Read an array-format Matrix Market file into an (n, s) ndarray."""
    nrows, ncols, _ = _info(path, "array", ("general",))
    if nrows * ncols == 0:  # scipy's reader dies on an empty array body
        return np.zeros((nrows, ncols))
    return scipy.io.mmread(path, spmatrix=False)


def write_dense_matrix_market(M, path):
    M = np.asarray(M, dtype=np.float64)
    _write(path, "array real general", f"{M.shape[0]} {M.shape[1]}", "%.16e\n", M.T.ravel())
