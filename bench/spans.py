"""Layer spans for the benchmark's traced pass, recorded from outside mateq.

The solver drivers call their layers through module-level names (for example
``mateq.restarted.compress_sym`` or ``mateq.arnoldi.spmm``).  A
:class:`Tracer` replaces exactly those names with wrappers that record one
span per call and puts the originals back when it is uninstalled, so the
package itself is never edited and untraced passes run the original code.

Names are patched in the module that calls them, not where they are defined:
``solve_lyapunov_ldlt`` calls ``solve_sylvester_dense`` inside
``mateq.dense_eq``, and leaving that inner name alone keeps the Schur work in
``dense_eq.solve_lyapunov_ldlt``'s self time.
"""

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

from mateq import arnoldi, baselines, problems, restarted
from mateq.sparse import SparseOperator


def _spmm_work(A, V, counter):
    """Columns applied and flops of one counted block product."""
    return V.shape[1], 2.0 * A.nnz * V.shape[1]


# (owner, attribute, span name, (columns, flops) of one call or None)
PATCHES = [
    (arnoldi, "spmm", "sparse.spmm", _spmm_work),
    (baselines, "spmm", "sparse.spmm", _spmm_work),
    (SparseOperator, "transpose", "sparse.transpose", None),
    (SparseOperator, "apply", "sparse.apply", None),
    (restarted, "estimate_norm2", "sparse.estimate_norm2", None),
    (baselines, "estimate_norm2", "sparse.estimate_norm2", None),
    (restarted, "arnoldi_init", "arnoldi.arnoldi_init", None),
    (baselines, "arnoldi_init", "arnoldi.arnoldi_init", None),
    (restarted, "arnoldi_extend", "arnoldi.arnoldi_extend", None),
    (baselines, "arnoldi_extend", "arnoldi.arnoldi_extend", None),
    (arnoldi, "qr_economy", "linalg.qr_economy", None),
    (baselines, "qr_economy", "linalg.qr_economy", None),
    (restarted, "compress", "compression.compress", None),
    (restarted, "compress_sym", "compression.compress_sym", None),
    (restarted, "solve_lyapunov_ldlt", "dense_eq.solve_lyapunov_ldlt", None),
    (baselines, "solve_lyapunov_ldlt", "dense_eq.solve_lyapunov_ldlt", None),
    (restarted, "solve_sylvester_dense", "dense_eq.solve_sylvester_dense", None),
    (baselines, "solve_sylvester_dense", "dense_eq.solve_sylvester_dense", None),
    (restarted, "residual_norm_sylv", "residuals.cheap", None),
    (restarted, "residual_norm_lyap", "residuals.cheap", None),
    (baselines, "residual_norm_lyap", "residuals.cheap", None),
    (restarted, "true_residual_sylv", "residuals.true", None),
    (restarted, "true_residual_lyap", "residuals.true", None),
    (baselines, "true_residual_sylv", "residuals.true", None),
    (baselines, "true_residual_lyap", "residuals.true", None),
    (baselines, "block_cg", "baselines.block_cg", None),
    (problems, "laplacian_2d", "problems.operator", None),
    (problems, "convdiff_3d", "problems.operator", None),
    (problems, "random_rhs", "problems.random_rhs", None),
]


def current(owner, attribute):
    """The object bound to ``owner.attribute``, without method binding."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


def bound_objects():
    """What each patched name is bound to right now, in ``PATCHES`` order."""
    return [current(owner, attribute) for owner, attribute, _, _ in PATCHES]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    solve: int | None
    cols: int = 0
    flops: float = 0.0


class Tracer:
    """Keeps spans in memory; ``solve`` tags the spans of one solver call."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self._open = []
        self._originals = []

    def _begin(self, name, cols=0, flops=0.0):
        parent = self._open[-1] if self._open else None
        self.spans.append(
            Span(name, time.perf_counter(), float("nan"), parent, self.solve, cols, flops)
        )
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()].end = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def _wrapper(self, original, name, work):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._begin(name, *(work(*args, **kwargs) if work else ()))
            try:
                return original(*args, **kwargs)
            finally:
                self._end()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every patched name for the duration of the block."""
        try:
            for owner, attribute, name, work in PATCHES:
                original = current(owner, attribute)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrapper(original, name, work))
            yield self
        finally:
            self._restore()

    def _restore(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
            if current(owner, attribute) is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attribute}")

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for sp in self.spans:
                rec = {"name": sp.name, "start": sp.start - t0, "end": sp.end - t0,
                       "parent": sp.parent, "solve": sp.solve}
                fh.write(json.dumps(rec) + "\n")


def layer_times(spans):
    """Aggregate spans by name: calls, self and total seconds, columns, flops.

    Self time is a span's duration minus the durations of its direct children.
    Total time counts only spans without an ancestor of the same name, so a
    layer that re-enters itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    out = {}
    for i, sp in enumerate(spans):
        dur = sp.end - sp.start
        agg = out.setdefault(
            sp.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "cols": 0, "flops": 0.0}
        )
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        agg["cols"] += sp.cols
        agg["flops"] += sp.flops
        up = sp.parent
        while up is not None and spans[up].name != sp.name:
            up = spans[up].parent
        if up is None:
            agg["total_s"] += dur
    return out
