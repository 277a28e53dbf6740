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
column solves each level's flow program (``build_ot_form``) by the primal
simplex from another start, on purpose: the sweep and every
``solve_dp_at`` walk the right-hand side by dual pivots from the MAP
basis at P = 1, and the pointwise column pivots primal from the
staircase of joint masses from ``p_y`` to ``p_x``, with zero flow and
the slack at P, so it shares neither the start nor the pivots with them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import lp as lpmod
from .binary import closed_form_curve
from .curve import _by_vertices, _sweep
from .errors import BudgetExceededError, ProblemError
from .model import Problem, _staircase, check_level, wasserstein1
from .programs import build_ot_form

EXACT_TOL = 1e-9  # cost: largest gap allowed between exact methods; ``dp verify --tol``'s default
_GRID_TOL = 1e-9  # cost: how far the grid oracle may fall below exact, or rise above its band
_SCAN_TOL = 1e-12  # level: a grid point this far past the level is still within it


def _simplex_grid(steps: int, parts: int) -> np.ndarray:
    """All compositions of ``steps`` into ``parts`` bins, scaled to sum 1.

    Stars and bars: ``parts - 1`` bars among ``steps + parts - 1`` slots,
    the bins being the gaps between them, in lexicographic order.
    """
    slots = steps + parts - 1
    bars = np.asarray(list(itertools.combinations(range(slots), parts - 1)))
    return (np.diff(bars, axis=1, prepend=-1, append=slots) - 1) / steps


def _require_steps(steps: int) -> None:
    if not lpmod._is_count(steps):
        raise ProblemError(f"grid oracle steps must be an integer, got {lpmod._plain(steps)!r}")
    if steps < 1:
        raise ProblemError(f"grid oracle needs at least 1 step, got {steps}")


def grid_oracle(problem: Problem, p_level: float, steps_per_dof: int = 50) -> float:
    """Upper bound on the curve value from exhaustive grid search.

    Guards: at most 9 free degrees of freedom after stochasticity and at
    most 1e7 grid points, about 0.5 GB at 48 bytes a point.  Returns
    ``inf`` when no grid point is feasible (possible at very tight
    perception levels, where the exact output marginal is unreachable on
    the grid).

    The returned value is never below the true optimum, and is within
    ``n_y * (max d - min d) / steps`` of it whenever a near-optimal
    feasible grid point exists.
    """
    check_level(p_level)
    return _scan(problem, _grid(problem, steps_per_dof), p_level, {})


def _grid(problem: Problem, steps: int):
    """The guards, then ``(columns, distortion, tv, order)``: a grid point's
    flat index picks one of the k columns per observation symbol, and
    ``order`` sorts the points by distortion."""
    _require_steps(steps)
    n_x, n_y = problem.n_x, problem.n_y
    dof = (n_x - 1) * n_y
    if dof > 9:
        raise BudgetExceededError(f"grid oracle limited to 9 degrees of freedom, got {dof}")
    if (steps + 1) ** dof > 10**7:
        raise BudgetExceededError(f"grid of ({steps}+1)^{dof} points exceeds the 1e7 budget")

    # k = C(steps + n_x - 1, n_x - 1) <= (steps + 1)^(n_x - 1) columns, so
    # the k^n_y grid points are within the budget just checked
    columns = _simplex_grid(steps, n_x)  # (k, n_x)
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
    return columns, distortion, tv, np.argsort(distortion, kind="stable")


def _scan(problem: Problem, grid, p_level: float, w1: dict[int, float]) -> float:
    """The least distortion on ``grid`` within ``p_level``; ``w1`` caches the
    transport solves by flat index for scans of the same grid at other levels."""
    columns, distortion, tv, order = grid
    n_x, n_y, k = problem.n_x, problem.n_y, columns.shape[0]
    if n_x == 1:
        c_lo = c_hi = 0.0
    else:
        off = problem.metric.h[~np.eye(n_x, dtype=bool)]
        c_lo, c_hi = float(off.min()), float(off.max())

    # transport cost is sandwiched between c_lo * TV and c_hi * TV, so most
    # grid points are decided without a transport solve; ties go to the LP
    limit = p_level + _SCAN_TOL
    for flat in order:
        t = tv[flat]
        if c_lo * t > limit:
            continue
        if c_hi * t <= limit:
            return float(distortion[flat])
        if flat not in w1:
            q = np.column_stack(columns[list(np.unravel_index(flat, (k,) * n_y))])
            out = q @ problem.p_y
            w1[flat] = wasserstein1(problem.p_x, out / out.sum(), problem.metric)[0]
        if w1[flat] <= limit:
            return float(distortion[flat])
    return math.inf


@dataclass(frozen=True, eq=False)
class VerifyReport:
    """Cross-method comparison over a grid of perception levels; passed with no failures."""

    instance: str
    p_values: np.ndarray
    values: dict[str, np.ndarray]
    max_discrepancy: float
    tolerance: float
    grid_band: float | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

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


def _pointwise(problem: Problem, ps) -> np.ndarray:
    """D at each level of ``ps`` by the primal simplex from the transport
    staircase: each observation's mass goes to the source symbols in
    north-west-corner order, so the output law is ``p_x`` and the start is
    feasible with zero flow and the slack at P."""
    cells = _staircase(problem.p_y.tolist(), problem.p_x.tolist())
    values = []
    for p in ps:
        lp, lay = build_ot_form(problem, p)
        start = sorted(lay.ix_w(x, y) for y, x in cells) + [lay.ix_slack]
        values.append(lpmod.solve(lp, start).value)
    return np.asarray(values)


def cross_verify(
    problem: Problem,
    p_grid=None,
    *,
    instance: str = "",
    exact_tol: float = EXACT_TOL,
    grid_steps: int | None = None,
) -> VerifyReport:
    """Compare every applicable method on a shared perception grid.

    Failures are collected in the report instead of raised.  Raises
    ProblemError, before any solve, on a grid that is empty, not
    one-dimensional or holds a level that ``check_level`` rejects, a
    negative or non-finite ``exact_tol``, or a ``grid_steps`` that is not
    an integer of at least 1.
    """
    if not 0.0 <= exact_tol < math.inf:  # a NaN tolerance would pass every comparison
        raise ProblemError(f"exact_tol must be finite and nonnegative, got {exact_tol}")
    ps = np.asarray(p_grid if p_grid is not None else np.linspace(0.0, 1.0, 21), dtype=float)
    if ps.ndim != 1:
        raise ProblemError(f"perception grid must be one-dimensional, got shape {ps.shape}")
    if ps.size == 0:
        raise ProblemError("perception grid is empty")
    for level in ps.tolist():
        check_level(level)
    if grid_steps is not None:
        _require_steps(grid_steps)
    values: dict[str, np.ndarray] = {}

    # the vertex column's walk takes this walk's bases as seeds (lp.enumerate_vertices)
    walked = _sweep(problem)
    values["sweep"] = np.asarray(walked[0].curve.value(ps), dtype=float)

    if problem.is_binary:
        closed = closed_form_curve(problem)
        values["closed_form"] = np.asarray(closed.value(ps), dtype=float)

    try:
        vertex = _by_vertices(walked)
        values["vertex"] = np.asarray(vertex.curve.value(ps), dtype=float)
    except BudgetExceededError:
        pass

    values["pointwise"] = _pointwise(problem, ps)

    band = None
    if grid_steps is not None:
        try:
            grid, w1 = _grid(problem, grid_steps), {}
            values["grid_oracle"] = np.asarray([_scan(problem, grid, p, w1) for p in ps])
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
            if gv[j] < ref[j] - _GRID_TOL:
                failures.append(
                    f"grid oracle below exact by {ref[j] - gv[j]:.3e} at P={ps[j]:.6f}"
                )
            if ps[j] >= band_floor and gv[j] > ref[j] + band + _GRID_TOL:
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
        failures=tuple(failures),
    )
