"""Whole-curve construction for the distortion-perception function.

D(P) equals the upper envelope, over vertices of the dual feasible set,
of the lines ``intercept + slope * P`` obtained by projecting each vertex
to two numbers: its inner product with the P-independent part of the dual
right-hand side, and minus its perception price.  Both constructions
use the flow program over every pair of symbols (``build_ot_form``),
whose dual has one coordinate per observation, one potential per symbol
but the last, and the price:

* ``curve_by_sweep``: walk the program's optimal bases from P = 1 down
  to 0 by the parametric dual simplex; each basis is optimal on one
  segment and gives its line.  No enumeration, so it reaches problems
  whose dual polyhedron is too large to enumerate.
* ``curve_by_vertices``: take the same walk, enumerate all dual vertices
  by a basis walk from its last basis, and project them to lines.

Both build the envelope on [0, 1] with ``assemble_curve``, one stack
pass over the lines sorted by slope, and take their estimators from the
bases of the one walk.  They return the same breakpoints and slopes up
to solver tolerance; the terminal plateau is pinned bitwise to the
unconstrained floor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .errors import ProblemError
from .model import Estimator, Problem, _readonly, _require_finite, check_level
from .programs import _crash_basis, _flow_dual, _stochastic_estimator, build_ot_form

_SLOPE_MERGE_TOL = 1e-12  # lines within this slope gap collapse to one
_ZERO_LEN_TOL = 1e-12  # minimum breakpoint spacing kept in a curve


def project_vertex(vertex, problem: Problem) -> np.ndarray:
    """Project dual vertices to the lines ``intercept + slope * P``.

    ``vertex`` is one vertex of ``dual_polyhedron`` (n_y + n_x
    coordinates) or a stack of them, one per row; the result is one
    (intercept, slope) pair or an ``(n, 2)`` array to match.
    """
    coords = np.asarray(vertex, dtype=float)
    if coords.ndim not in (1, 2) or coords.shape[-1] != problem.n_y + problem.n_x:
        raise ProblemError("vertex has the wrong dimension for this problem")
    return _lines(coords, _flow_dual(*build_ot_form(problem, 0.0))[1])


def _lines(coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(intercept, slope) rows: ``weights``, the kept right-hand side of
    the flow program at P = 0, give the intercept."""
    return np.stack([coords @ weights, -coords[..., -1]], axis=-1)


# ---------------------------------------------------------------------------
# Piecewise-linear curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PiecewiseLinearCurve:
    """The tradeoff curve on [0, 1] as ordered segments.

    ``segments[i]`` is the (intercept, slope) pair active between
    ``breakpoints[i-1]`` and ``breakpoints[i]`` (domain ends implied).
    The final segment is exactly ``(d_star, 0.0)``: the plateau where the
    perception budget stops binding, starting at ``p_star``.
    """

    breakpoints: np.ndarray
    segments: np.ndarray
    p_star: float
    d_star: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        seg = np.asarray(self.segments, dtype=float).reshape(-1, 2)
        if seg.shape[0] != bp.size + 1:
            raise ProblemError("segment count must be breakpoint count + 1")
        if bp.size and (np.any(np.diff(bp) <= 0) or bp[0] <= 0 or bp[-1] > 1 + 1e-12):
            raise ProblemError("breakpoints must increase strictly within (0, 1]")
        slopes = seg[:, 1]
        if np.any(slopes > 1e-10):
            raise ProblemError("curve slopes must be nonpositive")
        if np.any(np.diff(slopes) < -1e-9):
            raise ProblemError("curve slopes must be non-decreasing (convexity)")
        jumps = np.abs((seg[:-1, 0] + seg[:-1, 1] * bp) - (seg[1:, 0] + seg[1:, 1] * bp)) > 1e-9
        if jumps.any():
            raise ProblemError(f"curve discontinuous at breakpoint {bp[jumps.argmax()]!r}")
        if seg[-1, 1] != 0.0 or seg[-1, 0] != self.d_star:
            raise ProblemError("final segment must be the exact plateau")
        expected_p_star = float(bp[-1]) if bp.size else 0.0
        if self.p_star != expected_p_star:
            raise ProblemError("p_star must equal the last breakpoint")
        object.__setattr__(self, "breakpoints", _readonly(bp))
        object.__setattr__(self, "segments", _readonly(seg))

    def value(self, p):
        """Curve value; exact plateau (bitwise d_star) for p >= p_star."""
        parr = np.atleast_1d(np.asarray(p, dtype=float))
        idx = np.searchsorted(self.breakpoints, parr, side="right")
        out = self.segments[idx, 0] + self.segments[idx, 1] * parr
        out[parr >= self.p_star] = self.d_star
        return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out

    def slope(self, p):
        parr = np.atleast_1d(np.asarray(p, dtype=float))
        idx = np.searchsorted(self.breakpoints, parr, side="right")
        out = self.segments[idx, 1]
        return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out

    @property
    def slopes(self) -> np.ndarray:
        return self.segments[:, 1]


def assemble_curve(lines, d_star: float) -> PiecewiseLinearCurve:
    """Upper envelope of candidate lines on [0, 1] as a validated curve.

    The exact plateau line ``(d_star, 0)`` is always injected: it is a
    feasible dual value at every level, and carrying it verbatim keeps
    the plateau bitwise equal to the unconstrained floor.  Lines with a
    slope within 1e-11 of 0 become it; positive slopes are dropped.

    One pass over the lines sorted by (slope, intercept) keeps a stack of
    ``(intercept, slope, level where the line takes over)``.  A line
    within ``_SLOPE_MERGE_TOL`` of the top's slope replaces the top only
    if its intercept is larger.  The top is popped while the line takes
    over within ``_ZERO_LEN_TOL`` of where the top took over (or of 0).
    Levels are clipped at 1, so a line that would take over only at
    P >= 1 has no length there: the plateau, last in the order, pops it.
    """
    arr = np.vstack([np.asarray(lines, dtype=float).reshape(-1, 2), [d_star, 0.0]])
    _require_finite(arr, "lines")
    arr[np.abs(arr[:, 1]) <= 1e-11] = d_star, 0.0
    arr = arr[arr[:, 1] <= 0.0]
    stack: list[tuple[float, float, float]] = []
    for b, m in arr[np.lexsort((arr[:, 0], arr[:, 1]))].tolist():
        if stack and m - stack[-1][1] <= _SLOPE_MERGE_TOL:
            if b <= stack[-1][0]:
                continue
            stack.pop()
        while stack:
            top_b, top_m, top_start = stack[-1]
            start = min((top_b - b) / (m - top_m), 1.0)
            if start > top_start + _ZERO_LEN_TOL:
                break
            stack.pop()
        stack.append((b, m, start if stack else 0.0))
    env = np.array(stack)  # the plateau is last, and starts at 0 on a flat curve
    return PiecewiseLinearCurve(env[1:, 2], env[:, :2], float(env[-1, 2]), float(d_star))


# ---------------------------------------------------------------------------
# Reports and constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurveReport:
    """A constructed curve plus the evidence behind it.

    ``s2_points`` holds the projected lines the envelope was built from
    (all dual vertices for the vertex method, one line per basis walked
    for the sweep).  ``estimators`` hold one estimator per segment
    endpoint, so querying an estimator anywhere on the curve later needs
    no further solves.  ``solve_count`` is the number of LP solves: 1,
    the walk from P = 1 to 0, for both methods.
    """

    curve: PiecewiseLinearCurve
    method: str
    s2_points: np.ndarray
    estimators: tuple[tuple[float, Estimator], ...]
    solve_count: int = 0
    vertices: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def hull_extreme_indices(self) -> np.ndarray:
        """``hull_extremes(s2_points)``, computed when first read."""
        return hull_extremes(self.s2_points)


def hull_extremes(points) -> np.ndarray:
    """Indices of the extreme points of the 2-D convex hull.

    Monotone chain with collinear points excluded: interior points of a
    hull edge are convex combinations of its ends and never required.
    Duplicate coordinates report their first occurrence.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return np.empty(0, dtype=int)
    uniq, first = np.unique(pts, axis=0, return_index=True)
    if uniq.shape[0] == 1:
        return np.array([int(first[0])])
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    ordered = uniq[order]

    def chain(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2:
                o, a = ordered[out[-2]], ordered[out[-1]]
                b = ordered[i]
                if (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    idx = list(range(ordered.shape[0]))
    lower = chain(idx)
    upper = chain(idx[::-1])
    hull_local = lower[:-1] + upper[:-1]
    if not hull_local:  # all points collinear: the chain keeps only ends
        hull_local = [0, ordered.shape[0] - 1]
    return np.sort(first[order][np.asarray(hull_local, dtype=int)])


def curve_by_vertices(problem: Problem, *, budget: int = lpmod.VERTEX_BUDGET) -> CurveReport:
    """Exact curve from full dual vertex enumeration.

    The vertices are those of the flow program's dual over its kept rows
    (``dual_polyhedron``), read off the one build the walk uses.
    The enumeration starts at the last basis of ``curve_by_sweep``'s
    walk, optimal at P = 0: dual row j is program column j, and the walk
    drops the row the dual drops, so that basis is d rows of a dual
    vertex.  The estimators come from the bases on that walk, as for the
    sweep, so no level is solved.

    Raises ProblemError when ``budget`` is below 1 and BudgetExceededError
    when the enumeration finds more bases; use ``curve_by_sweep`` then.
    """
    lp, lay = build_ot_form(problem, 0.0)
    sol, path = lpmod.walk(lp, _crash_basis(problem, lay), lay.level_direction, 1.0)
    poly, weights = _flow_dual(lp, lay)
    verts = lpmod.enumerate_vertices(poly, sol.basis, budget=budget)
    return _report(problem, "vertex", _lines(verts, weights), lp, lay, path, verts)


def curve_by_sweep(problem: Problem) -> CurveReport:
    """Curve from one parametric walk of the flow program, P from 1 to 0.

    Only the perception entry of the right-hand side depends on P, so an
    optimal basis gives the curve one line on the levels where it stays
    optimal.  ``lp.walk``, the walk every ``solve_dp_at`` takes, starts
    at the closed-form optimal basis at P = 1 (``_crash_basis``) and
    meets an optimal basis at every level down to 0, so the envelope of
    their lines is the curve.  A basis's value at its walk level is
    ``c_B . xb``, which gives its line's intercept.
    """
    lp, lay = build_ot_form(problem, 0.0)
    path = lpmod.walk(lp, _crash_basis(problem, lay), lay.level_direction, 1.0)[1]
    lines = np.asarray([(lp.c[basis] @ xb - slope * s, slope) for s, basis, xb, slope in path])
    return _report(problem, "sweep", lines, lp, lay, path)


def _report(problem: Problem, method: str, lines, lp, lay, path, vertices=None) -> CurveReport:
    """The envelope of ``lines``, with estimators from the bases on ``path``.

    A breakpoint's estimator is the point of the basis whose walk level
    is nearest it, the first such on a tie; level 0's is the last basis's.
    One broadcast picks these path entries, their basic values are
    scattered into one stack of points, and one stacked pass of
    ``_stochastic_estimator`` reads the estimators off it.  Where the
    optimum is not unique, the pivot rule picks the estimator; the curve
    is the same.
    """
    curve = assemble_curve(lines, problem.distortion_floor)
    levels = np.asarray([entry[0] for entry in path])
    at = np.concatenate([[0.0], curve.breakpoints])
    _, bases, values, _ = zip(*(path[i] for i in np.argmin(np.abs(levels - at[:, None]), axis=1)))
    points = np.zeros((at.size, lp.n))
    points[np.arange(at.size)[:, None], bases] = values
    tol = lpmod.FEAS_TOL * max(1.0, float(np.abs(lp.b).max()))
    estimators = _stochastic_estimator(problem, lay.extract_q(points), tol)
    return CurveReport(
        curve=curve,
        method=method,
        s2_points=lines,
        estimators=tuple(zip(at.tolist(), estimators)),
        solve_count=1,
        vertices=vertices,
    )


def mix_supports(levels, rule, p_level: float) -> Estimator:
    """An optimal estimator at ``p_level`` from rules optimal at ``levels``.

    ``levels`` is sorted, and ``rule(i)`` builds the rule optimal at
    ``levels[i]``; only the one or two rules around ``p_level`` are
    built.  At or past the last level its rule is returned; between two
    levels their rules are mixed linearly.  Mean distortion is linear in
    the rule and the perception index is convex, so on a segment of the
    curve the mixture stays feasible and lands exactly on the segment.
    """
    check_level(p_level)
    if p_level >= levels[-1]:
        return rule(len(levels) - 1)
    hi = bisect_right(levels, p_level)
    p0, p1 = levels[hi - 1], levels[hi]
    if p_level <= p0:
        return rule(hi - 1)
    alpha = (p_level - p0) / (p1 - p0)
    return Estimator((1.0 - alpha) * rule(hi - 1).q + alpha * rule(hi).q)


def estimator_on_curve(problem: Problem, report: CurveReport, p_level: float) -> Estimator:
    """An estimator achieving the curve value at ``p_level``, solver-free.

    Segment endpoints carry precomputed estimators, mixed by
    ``mix_supports`` inside a segment; from level 1 on, the unconstrained
    optimum.
    """
    if 1.0 <= p_level < np.inf:
        return problem.minimum[1]
    supports = report.estimators
    return mix_supports([p for p, _ in supports], lambda i: supports[i][1], p_level)
