import numpy as np
import pytest

from mateq import SparseOperator, convdiff_3d, laplacian_2d, random_rhs
from mateq.problems import _FIELDS


def _laplacian_2d_loop(n_g):
    """Reference assembly: one node at a time, as the generator once did."""
    h2 = (n_g + 1.0) ** 2
    rows, cols, vals = [], [], []
    for ix in range(n_g):
        for iy in range(n_g):
            i = ix * n_g + iy
            rows.append(i)
            cols.append(i)
            vals.append(4.0 * h2)
            for jx, jy in ((ix - 1, iy), (ix + 1, iy), (ix, iy - 1), (ix, iy + 1)):
                if 0 <= jx < n_g and 0 <= jy < n_g:
                    rows.append(i)
                    cols.append(jx * n_g + jy)
                    vals.append(-h2)
    return SparseOperator.from_coo(n_g * n_g, rows, cols, vals, symmetric=True)


def _convdiff_3d_loop(n_g, eps, field):
    """Reference assembly: one node at a time, as the generator once did."""
    wfun = _FIELDS[field]
    h = 1.0 / (n_g + 1.0)
    dif = eps * (n_g + 1.0) ** 2
    rows, cols, vals = [], [], []
    for ix in range(n_g):
        x = (ix + 1) * h
        for iy in range(n_g):
            y = (iy + 1) * h
            for iz in range(n_g):
                z = (iz + 1) * h
                i = (ix * n_g + iy) * n_g + iz
                w1, w2, w3 = wfun(x, y, z)
                rows.append(i)
                cols.append(i)
                vals.append(6.0 * dif)
                for (jx, jy, jz), w in (
                    ((ix - 1, iy, iz), -w1),
                    ((ix + 1, iy, iz), w1),
                    ((ix, iy - 1, iz), -w2),
                    ((ix, iy + 1, iz), w2),
                    ((ix, iy, iz - 1), -w3),
                    ((ix, iy, iz + 1), w3),
                ):
                    if 0 <= jx < n_g and 0 <= jy < n_g and 0 <= jz < n_g:
                        rows.append(i)
                        cols.append((jx * n_g + jy) * n_g + jz)
                        vals.append(-dif + w / (2.0 * h))
    return SparseOperator.from_coo(n_g ** 3, rows, cols, vals, symmetric=(field == "none"))


def _assert_same_operator(A, ref):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name
    assert A.symmetric == ref.symmetric


@pytest.mark.parametrize("n_g", range(2, 8))
def test_laplacian_matches_loop_reference(n_g):
    _assert_same_operator(laplacian_2d(n_g), _laplacian_2d_loop(n_g))


@pytest.mark.parametrize("field", ["wA", "wB", "none"])
@pytest.mark.parametrize("eps", [0.01, 1.0])
@pytest.mark.parametrize("n_g", range(2, 6))
def test_convdiff_matches_loop_reference(n_g, eps, field):
    _assert_same_operator(convdiff_3d(n_g, eps, field), _convdiff_3d_loop(n_g, eps, field))


def test_laplacian_smallest_grid_stencil():
    A = laplacian_2d(2)  # h = 1/3, 1/h^2 = 9
    M = A.to_dense()
    assert M.shape == (4, 4)
    assert np.allclose(np.diagonal(M), 36.0)
    off = M[~np.eye(4, dtype=bool)]
    assert set(np.round(off[off != 0], 12)) == {-9.0}


def test_laplacian_symmetry_exact():
    A = laplacian_2d(7)
    assert A.symmetric
    M = A.to_dense()
    assert np.array_equal(M, M.T)


@pytest.mark.parametrize("n_g", [3, 6, 10])
def test_laplacian_eigenvalues_match_closed_form(n_g):
    A = laplacian_2d(n_g)
    h = 1.0 / (n_g + 1)
    modes = (2.0 - 2.0 * np.cos(np.arange(1, n_g + 1) * np.pi * h)) / h ** 2
    ref = np.sort((modes[:, None] + modes[None, :]).ravel())
    lam = np.sort(np.linalg.eigvalsh(A.to_dense()))
    assert np.allclose(lam, ref, rtol=1e-10)
    assert lam[0] == pytest.approx(2 * (1 / h ** 2) * (1 - np.cos(np.pi * h)) * 2)


def test_convdiff_center_node_stencil():
    n_g, eps = 3, 0.01
    h = 1.0 / (n_g + 1)
    A = convdiff_3d(n_g, eps, "wA").to_dense()
    # center node (ix, iy, iz) = (1, 1, 1), coordinates (0.5, 0.5, 0.5)
    i = (1 * n_g + 1) * n_g + 1
    x = y = z = 0.5
    w1, w2, w3 = x * np.sin(x), y * np.cos(y), np.exp(z * z - 1.0)
    dif = eps / h ** 2
    assert A[i, i] == pytest.approx(6 * dif)
    assert A[i, i + n_g * n_g] == pytest.approx(-dif + w1 / (2 * h))  # x+ neighbor
    assert A[i, i - n_g * n_g] == pytest.approx(-dif - w1 / (2 * h))
    assert A[i, i + n_g] == pytest.approx(-dif + w2 / (2 * h))
    assert A[i, i - n_g] == pytest.approx(-dif - w2 / (2 * h))
    assert A[i, i + 1] == pytest.approx(-dif + w3 / (2 * h))
    assert A[i, i - 1] == pytest.approx(-dif - w3 / (2 * h))


def test_convdiff_zero_field_is_scaled_laplacian_3d():
    n_g, eps = 4, 0.05
    A = convdiff_3d(n_g, eps, "none")
    assert A.symmetric
    # independent 3D Laplacian assembly via Kronecker sums
    h2 = (n_g + 1.0) ** 2
    T = (np.diag(2.0 * np.ones(n_g)) + np.diag(-np.ones(n_g - 1), 1)
         + np.diag(-np.ones(n_g - 1), -1)) * h2
    I = np.eye(n_g)
    lap3 = (np.kron(np.kron(T, I), I) + np.kron(np.kron(I, T), I)
            + np.kron(np.kron(I, I), T))
    assert np.array_equal(A.to_dense(), eps * lap3)


def test_convdiff_spectrum_in_right_half_plane():
    A = convdiff_3d(6, 0.01, "wA")
    ev = np.linalg.eigvals(A.to_dense())
    assert ev.real.min() > 0


def test_convdiff_wb_field_nonsymmetric():
    A = convdiff_3d(3, 0.01, "wB")
    M = A.to_dense()
    assert not np.array_equal(M, M.T)


def test_rhs_normalization_pair():
    C, D = random_rhs(200, 3, seed=11, normalize=True, pair=True)
    assert abs(np.linalg.norm(C @ D.T) - 1.0) <= 1e-13


def test_rhs_normalization_single():
    C = random_rhs(150, 3, seed=5, normalize=True)
    assert abs(np.linalg.norm(C @ C.T) - 1.0) <= 1e-13


def test_rhs_determinism():
    a = random_rhs(50, 2, seed=7, normalize=False)
    b = random_rhs(50, 2, seed=7, normalize=False)
    assert np.array_equal(a, b)
    c = random_rhs(50, 2, seed=8, normalize=False)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("make, match", [
    (lambda: laplacian_2d(1), "at least 2 interior"),
    (lambda: convdiff_3d(1, 0.01), "at least 2 interior"),
    (lambda: convdiff_3d(3, 0.0), "viscosity must be positive"),
    (lambda: convdiff_3d(3, 0.01, "wC"), "unknown convection field 'wC'"),
    (lambda: random_rhs(9, 0, seed=1), "block width must be >= 1"),
], ids=["laplacian-grid", "convdiff-grid", "viscosity", "field", "rhs-width"])
def test_generators_reject_bad_arguments(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_generator_sizes_match_benchmarks():
    assert laplacian_2d(100).n == 10000
    assert convdiff_3d(25, 0.01, "wA").n == 15625
