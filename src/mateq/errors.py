"""Exception types shared across the solver modules."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class NonConvergenceError(RuntimeError):
    """An iterative kernel or solver did not converge within its budget."""


class RankDeficientBlockError(ValueError):
    """A starting block is numerically rank deficient (deflation unsupported)."""


class SingularOperatorError(RuntimeError):
    """The (projected) matrix-equation operator is numerically singular."""


class MemoryBudgetError(RuntimeError):
    """The basis-column budget cannot accommodate a single iteration."""


class IndefiniteOperatorError(RuntimeError):
    """Block CG detected an indefinite coefficient matrix."""
