"""Slow, independent oracles used by the test suite and the CLI.

``grid_oracle`` minimizes the expected distortion over a uniform grid of
column-stochastic matrices, checking perception feasibility per grid
point.  It brackets rather than matches the exact value: grid search
cannot certify an optimum, only an upper bound within a declared
Lipschitz band, and the report keeps that honest.

``cross_verify`` runs every applicable construction (closed form for
binary sources, vertex enumeration when affordable, the sweep's
parametric walk always, the grid oracle when tiny) on a shared grid of
perception levels and compares the results pairwise.  Its pointwise
column solves each level's flow program (``build_ot_form``) by phase one, on
purpose: the sweep and every ``solve_dp_at`` walk the right-hand side
from the closed-form optimal basis at P = 1 or an earlier level's, and
a phase-one solve shares no basis with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import lp as lpmod
from .binary import closed_form_curve
from .curve import _by_vertices, _sweep
from .errors import BudgetExceededError, ProblemError
from .model import Problem, check_level, wasserstein1
from .programs import build_ot_form


def _simplex_grid(steps: int, parts: int) -> np.ndarray:
    """All compositions of ``steps`` into ``parts`` bins, scaled to sum 1."""
    if parts == 1:
        return np.ones((1, 1))
    rows: list[list[int]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], steps, parts)
    return np.asarray(rows, dtype=float) / steps


def _require_steps(steps: int) -> None:
    if steps < 1:
        raise ProblemError(f"grid oracle needs at least 1 step, got {steps}")


def grid_oracle(problem: Problem, p_level: float, steps_per_dof: int = 50) -> float:
    """Upper bound on the curve value from exhaustive grid search.

    Guards: at most 9 free degrees of freedom after stochasticity and at
    most 1e8 grid points.  Returns ``inf`` when no grid point is
    feasible (possible at very tight perception levels, where the exact
    output marginal is unreachable on the grid).

    The returned value is never below the true optimum, and is within
    ``n_y * (max d - min d) / steps`` of it whenever a near-optimal
    feasible grid point exists.
    """
    check_level(p_level)
    _require_steps(steps_per_dof)
    n_x, n_y = problem.n_x, problem.n_y
    dof = (n_x - 1) * n_y
    if dof > 9:
        raise BudgetExceededError(f"grid oracle limited to 9 degrees of freedom, got {dof}")
    if (steps_per_dof + 1) ** dof > 10**8:
        raise BudgetExceededError(
            f"grid of ({steps_per_dof}+1)^{dof} points exceeds the 1e8 budget"
        )

    # k = C(steps + n_x - 1, n_x - 1) <= (steps + 1)^(n_x - 1) columns, so
    # the k^n_y grid points are within the budget just checked
    columns = _simplex_grid(steps_per_dof, n_x)  # (k, n_x)
    k = columns.shape[0]

    cost = problem.cost
    p_y, p_x = problem.p_y, problem.p_x
    col_cost = [columns @ cost[:, y] for y in range(n_y)]  # (k,) each
    col_mass = [columns * p_y[y] for y in range(n_y)]  # (k, n_x) each

    distortion = reduce(np.add.outer, col_cost).reshape(-1)
    out_mass = [
        reduce(np.add.outer, [col_mass[y][:, x] for y in range(n_y)]).reshape(-1)
        for x in range(n_x)
    ]
    tv = 0.5 * sum(np.abs(out_mass[x] - p_x[x]) for x in range(n_x))

    if n_x == 1:
        c_lo = c_hi = 0.0
    else:
        off = problem.metric.h[~np.eye(n_x, dtype=bool)]
        c_lo, c_hi = float(off.min()), float(off.max())

    # transport cost is sandwiched between c_lo * TV and c_hi * TV, so most
    # grid points are decided without a transport solve; ties go to the LP
    slack = 1e-12
    order = np.argsort(distortion, kind="stable")
    strides = [k ** (n_y - 1 - j) for j in range(n_y)]
    for flat in order:
        t = tv[flat]
        if c_lo * t > p_level + slack:
            continue
        if c_hi * t <= p_level + slack:
            return float(distortion[flat])
        digits = [(flat // strides[j]) % k for j in range(n_y)]
        q = np.column_stack([columns[d] for d in digits])
        out = q @ p_y
        w1, _ = wasserstein1(p_x, out / out.sum(), problem.metric)
        if w1 <= p_level + slack:
            return float(distortion[flat])
    return math.inf


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """Cross-method comparison over a grid of perception levels."""

    instance: str
    p_values: np.ndarray
    values: dict[str, np.ndarray]
    max_discrepancy: float
    tolerance: float
    grid_band: float | None
    passed: bool
    failures: tuple[str, ...] = field(default=())

    def render(self) -> str:
        methods = sorted(self.values)
        lines = [f"instance: {self.instance}"]
        header = "      P " + "".join(f"{m:>16}" for m in methods)
        lines.append(header)
        for i, p in enumerate(self.p_values):
            row = f"{p:7.4f} "
            for m in methods:
                v = self.values[m][i]
                row += f"{v:16.10f}" if np.isfinite(v) else f"{'-':>16}"
            lines.append(row)
        lines.append(
            f"max exact-method discrepancy: {self.max_discrepancy:.3e}"
            f" (tolerance {self.tolerance:.1e})"
        )
        if self.grid_band is not None:
            lines.append(f"grid oracle band: {self.grid_band:.3e}")
        for f in self.failures:
            lines.append(f"FAIL: {f}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def cross_verify(
    problem: Problem,
    p_grid=None,
    *,
    instance: str = "",
    exact_tol: float = 1e-8,
    grid_steps: int | None = None,
    inject_slope_error: float = 0.0,
) -> VerifyReport:
    """Compare every applicable method on a shared perception grid.

    Failures are collected in the report instead of raised.  The
    ``inject_slope_error`` knob perturbs the sweep values ahead of the
    comparison (as if one segment slope were off by that much); it exists
    so the failure path itself can be exercised and observed.  Raises
    ProblemError on an empty grid or a negative or non-finite ``exact_tol``.
    """
    if not 0.0 <= exact_tol < math.inf:  # a NaN tolerance would pass every comparison
        raise ProblemError(f"exact_tol must be finite and nonnegative, got {exact_tol}")
    ps = np.asarray(p_grid if p_grid is not None else np.linspace(0.0, 1.0, 21), dtype=float)
    if ps.size == 0:
        raise ProblemError("perception grid is empty")
    if grid_steps is not None:
        _require_steps(grid_steps)
    values: dict[str, np.ndarray] = {}

    walked = _sweep(problem)  # the vertex column enumerates from this walk's last basis
    sweep = walked[0]
    sweep_vals = np.asarray(sweep.curve.value(ps), dtype=float)
    if inject_slope_error:
        ramp = np.maximum(sweep.curve.p_star - ps, 0.0)
        sweep_vals = sweep_vals + inject_slope_error * ramp
    values["sweep"] = sweep_vals

    if problem.is_binary:
        closed = closed_form_curve(problem)
        values["closed_form"] = np.asarray(closed.value(ps), dtype=float)

    try:
        vertex = _by_vertices(walked)
        values["vertex"] = np.asarray(vertex.curve.value(ps), dtype=float)
    except BudgetExceededError:
        pass

    values["pointwise"] = np.asarray(
        [lpmod.solve(build_ot_form(problem, p)[0]).value for p in ps]
    )

    band = None
    if grid_steps is not None:
        try:
            values["grid_oracle"] = np.asarray([grid_oracle(problem, p, grid_steps) for p in ps])
            spread = float(problem.distortion.d.max() - problem.distortion.d.min())
            band = problem.n_y * spread / grid_steps
        except BudgetExceededError:
            pass

    exact = [m for m in values if m != "grid_oracle"]
    failures: list[str] = []
    worst = 0.0
    for i, m1 in enumerate(exact):
        for m2 in exact[i + 1 :]:
            diff = np.abs(values[m1] - values[m2])
            worst = max(worst, float(diff.max()))
            for j in np.nonzero(diff > exact_tol)[0]:
                failures.append(
                    f"{m1} vs {m2} differ by {diff[j]:.3e} at P={ps[j]:.6f}"
                )

    if "grid_oracle" in values:
        ref = values["pointwise"]
        gv = values["grid_oracle"]
        # below this level the optimum cannot be rounded onto the grid
        # without risking feasibility, so only the lower bracket is binding
        h_max = float(problem.metric.h.max())
        band_floor = h_max * problem.n_x / grid_steps
        for j in range(ps.size):
            if not np.isfinite(gv[j]):
                continue  # no feasible grid point at this level
            if gv[j] < ref[j] - 1e-9:
                failures.append(
                    f"grid oracle below exact by {ref[j] - gv[j]:.3e} at P={ps[j]:.6f}"
                )
            if ps[j] >= band_floor and gv[j] > ref[j] + band + 1e-9:
                failures.append(
                    f"grid oracle above the band by {gv[j] - ref[j] - band:.3e}"
                    f" at P={ps[j]:.6f}"
                )

    return VerifyReport(
        instance=instance,
        p_values=ps,
        values=values,
        max_discrepancy=worst,
        tolerance=exact_tol,
        grid_band=band,
        passed=not failures,
        failures=tuple(failures),
    )
