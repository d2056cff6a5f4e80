"""Reproducible generators for the benchmark problems and right-hand sides.

Both differential operators are discretized with second-order centered finite
differences on interior nodes of the unit square/cube under homogeneous
Dirichlet boundary conditions, grid spacing ``h = 1/(n_g + 1)`` and nodes
``x_i = i h``.  The operators are emitted exactly as discretized; no sign
flip is applied anywhere.

Right-hand-side blocks come from a seeded PCG64 generator (numpy's stream
stability guarantees reproducibility across platforms), optionally scaled so
the low-rank product has unit Frobenius norm.
"""

import numpy as np

from .sparse import SparseOperator

__all__ = ["laplacian_2d", "convdiff_3d", "random_rhs"]

_FIELDS = {
    "wA": lambda x, y, z: (x * np.sin(x), y * np.cos(y), np.exp(z * z - 1.0)),
    "wB": lambda x, y, z: (y * z * (1.0 - x * x), 0.0 * x, np.exp(z)),
    "none": lambda x, y, z: (0.0 * x, 0.0 * y, 0.0 * z),
}


def laplacian_2d(n_g):
    """Five-point discretization of -(u_xx + u_yy) on the unit square.

    Returns the symmetric positive definite operator of size ``n_g**2`` with
    diagonal ``4/h**2`` and neighbor couplings ``-1/h**2``.
    """
    if n_g < 2:
        raise ValueError("need at least 2 interior grid points per direction")
    h2 = (n_g + 1.0) ** 2  # 1/h^2
    n = n_g * n_g
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
    return SparseOperator.from_coo(n, rows, cols, vals, symmetric=True)


def convdiff_3d(n_g, eps, field="wA"):
    """Seven-point convection-diffusion stencil on the unit cube.

    Discretizes ``-eps * lap(u) + w . grad(u)`` with centered differences for
    both terms, the convection field evaluated at each grid node.  Fields:
    ``wA = (x sin x, y cos y, exp(z^2 - 1))``, ``wB = (y z (1 - x^2), 0,
    exp(z))``, or ``none`` (pure diffusion, symmetric).
    """
    if n_g < 2:
        raise ValueError("need at least 2 interior grid points per direction")
    if eps <= 0:
        raise ValueError("viscosity must be positive")
    if field not in _FIELDS:
        raise ValueError(f"unknown convection field {field!r}")
    wfun = _FIELDS[field]
    h = 1.0 / (n_g + 1.0)
    dif = eps * (n_g + 1.0) ** 2  # exact for integer widths, unlike eps/h/h
    n = n_g ** 3
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
    return SparseOperator.from_coo(n, rows, cols, vals, symmetric=(field == "none"))


def random_rhs(n, s, seed, normalize=True, pair=False):
    """Standard normal right-hand-side block(s) from a seeded PCG64 stream.

    With ``pair=True`` returns ``(C, D)`` scaled so ``||C D*||_F = 1`` (when
    normalizing); otherwise a single ``C`` with ``||C C*||_F = 1``.  The
    scaling is split evenly between the factors.
    """
    if s < 1:
        raise ValueError("block width must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    C = rng.standard_normal((n, s))
    if pair:
        D = rng.standard_normal((n, s))
        if normalize:
            f = np.sqrt(np.trace((C.T @ C) @ (D.T @ D)))
            C = C / np.sqrt(f)
            D = D / np.sqrt(f)
        return C, D
    if normalize:
        G = C.T @ C
        f = np.sqrt(np.trace(G @ G))
        C = C / np.sqrt(f)
    return C
