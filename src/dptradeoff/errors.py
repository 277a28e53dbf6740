"""Exception hierarchy shared across the package."""


class ProblemError(ValueError):
    """Invalid problem data: shapes, signs, normalization, metric axioms."""


class SolverError(RuntimeError):
    """Numerical solver failure (singular basis, inconsistent system, ...)."""


class IterationLimitError(SolverError):
    """Pivot budget exhausted before reaching a terminal simplex state."""


class BudgetExceededError(SolverError):
    """A combinatorial enumeration would exceed its configured budget."""
