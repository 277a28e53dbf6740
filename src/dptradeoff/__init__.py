"""Distortion-perception tradeoff curves for finite-alphabet channels.

Compute the minimal expected distortion achievable at every perception
level (transport distance between source and reconstruction marginals),
as an exact piecewise-linear curve with optimal estimators: by linear
programming, by dual vertex enumeration, or in closed form for binary
sources.

``import dptradeoff`` loads the solver core; ``verify``, whose
cross-checks no solve, curve or closed form calls, loads on first use of
one of its names.
"""

from .binary import (
    BinaryAnalysis,
    analyze,
    breakpoint_estimators,
    closed_form_curve,
    estimator_at,
    reduced_dual_objective,
    reduced_dual_optimum,
    zero_perception_estimator,
)
from .curve import (
    CurveReport,
    PiecewiseLinearCurve,
    assemble_curve,
    curve_by_sweep,
    curve_by_vertices,
    estimator_on_curve,
    hull_extremes,
)
from .errors import (
    BudgetExceededError,
    IterationLimitError,
    ProblemError,
    SolverError,
)
from .lp import HPolyhedron, LPSolution, StandardLP, enumerate_vertices, solve
from .model import (
    Coupling,
    DistortionMatrix,
    Distribution,
    Estimator,
    GroundMetric,
    JointChannel,
    Problem,
    make_problem,
    output_distribution,
    tv_distance,
    wasserstein1,
)
from .programs import (
    DualSolution,
    FlowLayout,
    SolveReport,
    build_ot_form,
    build_tv_form,
    solve_dp_at,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryAnalysis",
    "BudgetExceededError",
    "Coupling",
    "CurveReport",
    "DistortionMatrix",
    "Distribution",
    "DualSolution",
    "Estimator",
    "FlowLayout",
    "GroundMetric",
    "HPolyhedron",
    "IterationLimitError",
    "JointChannel",
    "LPSolution",
    "PiecewiseLinearCurve",
    "Problem",
    "ProblemError",
    "SolveReport",
    "SolverError",
    "StandardLP",
    "VerifyReport",
    "analyze",
    "assemble_curve",
    "breakpoint_estimators",
    "build_ot_form",
    "build_tv_form",
    "closed_form_curve",
    "cross_verify",
    "curve_by_sweep",
    "curve_by_vertices",
    "enumerate_vertices",
    "estimator_at",
    "estimator_on_curve",
    "grid_oracle",
    "hull_extremes",
    "make_problem",
    "output_distribution",
    "reduced_dual_objective",
    "reduced_dual_optimum",
    "solve",
    "solve_dp_at",
    "tv_distance",
    "wasserstein1",
    "zero_perception_estimator",
]


def __getattr__(name: str):
    """``verify`` and its exported names, imported on first access (PEP 562)."""
    if name not in ("verify", "VerifyReport", "cross_verify", "grid_oracle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .verify import VerifyReport, cross_verify, grid_oracle  # binds ``verify`` as well

    globals().update(VerifyReport=VerifyReport, cross_verify=cross_verify, grid_oracle=grid_oracle)
    return globals()[name]
