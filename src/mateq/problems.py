"""Reproducible generators for the benchmark problems and right-hand sides.

Both differential operators are discretized with second-order centered finite
differences on interior nodes of the unit square/cube under homogeneous
Dirichlet boundary conditions, grid spacing ``h = 1/(n_g + 1)`` and nodes
``x_i = i h``.  The operators are emitted exactly as discretized; no sign
flip is applied anywhere.  Both are assembled by one stencil builder that
takes whole-grid arrays of couplings, so no loop runs per node.

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


def _stencil(n_g, dim, diag, coupling, symmetric):
    """Assemble a ``2*dim + 1``-point stencil on the ``n_g**dim`` interior grid.

    Nodes are numbered with axis 0 varying slowest.  ``coupling`` broadcasts
    to shape ``(dim, 2) + (n_g,) * dim``: entry ``[a, 0]`` at a node is its
    coupling to the neighbour one step down axis ``a``, ``[a, 1]`` the one
    step up.  Couplings that would cross the boundary are dropped, which is
    the homogeneous Dirichlet condition.
    """
    grid = (n_g,) * dim
    node = np.arange(n_g ** dim).reshape(grid)
    coupling = np.broadcast_to(coupling, (dim, 2) + grid)
    rows, cols, vals = [node.ravel()], [node.ravel()], [np.full(node.size, diag)]
    for a in range(dim):
        lead = (slice(None),) * a
        for d, (here, there) in enumerate(((slice(1, None), slice(None, -1)),
                                           (slice(None, -1), slice(1, None)))):
            rows.append(node[lead + (here,)].ravel())
            cols.append(node[lead + (there,)].ravel())
            vals.append(coupling[a, d][lead + (here,)].ravel())
    return SparseOperator.from_coo(n_g ** dim, np.concatenate(rows), np.concatenate(cols),
                                   np.concatenate(vals), symmetric=symmetric)


def laplacian_2d(n_g):
    """Five-point discretization of -(u_xx + u_yy) on the unit square.

    Returns the symmetric positive definite operator of size ``n_g**2`` with
    diagonal ``4/h**2`` and neighbor couplings ``-1/h**2``.
    """
    if n_g < 2:
        raise ValueError("need at least 2 interior grid points per direction")
    h2 = (n_g + 1.0) ** 2  # 1/h^2
    return _stencil(n_g, 2, 4.0 * h2, -h2, symmetric=True)


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
    h = 1.0 / (n_g + 1.0)
    dif = eps * (n_g + 1.0) ** 2  # exact for integer widths, unlike eps/h/h
    x = np.arange(1, n_g + 1) * h
    w = _FIELDS[field](*np.meshgrid(x, x, x, indexing="ij"))
    coupling = [(-dif - wa / (2.0 * h), -dif + wa / (2.0 * h)) for wa in w]
    return _stencil(n_g, 3, 6.0 * dif, coupling, symmetric=(field == "none"))


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
