"""Whole-curve construction for the distortion-perception function.

D(P) is piecewise linear, one optimal basis of the flow program over
every pair of symbols (``build_ot_form``) per piece.  Projecting a dual
point (one coordinate per observation, one potential per symbol but the
last, and the price) gives a line ``intercept + slope * P``: its inner
product with the P-independent right-hand side, and minus its price.

* ``curve_by_sweep``: walk the optimal bases from P = 1 down to 0 by the
  parametric dual simplex (``lp.walk``) and read the pieces, breakpoints
  and estimators off that path.  No enumeration, so it reaches problems
  whose dual polyhedron is too large to enumerate.
* ``curve_by_vertices``: take the same walk, enumerate all dual vertices
  by a basis walk from its last basis, and take the upper envelope of
  their lines (``assemble_curve``).  Its estimators are the sweep's.

The two share the walk but not the code that turns bases or lines into
a curve, so each checks the other.  They agree up to solver tolerance;
both pin the plateau bitwise to the unconstrained floor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .errors import ProblemError
from .model import Estimator, Problem, _readonly, _require_finite, check_level
from .programs import _crash_basis, _flow_dual, _stochastic_estimator, build_ot_form

_SLOPE_MERGE_TOL = 1e-12  # lines within this slope gap collapse to one
_ZERO_LEN_TOL = 1e-12  # minimum breakpoint spacing kept in a curve
_FLAT_TOL = 1e-11  # slopes within this of 0 are the plateau


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
    slope within ``_FLAT_TOL`` of 0 become it; positive slopes are dropped.

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
    arr[np.abs(arr[:, 1]) <= _FLAT_TOL] = d_star, 0.0
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

    ``s2_points`` holds the projected lines the curve was built from
    (all dual vertices for the vertex method, one line per basis walked
    for the sweep).  ``estimators`` hold one estimator at 0 and at each
    of the walk's breakpoints (for the vertex method too), so querying
    an estimator anywhere on the curve later needs no further solves.
    """

    curve: PiecewiseLinearCurve
    method: str
    s2_points: np.ndarray
    estimators: tuple[tuple[float, Estimator], ...]
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
    vertex.  The curve is the envelope of the vertices' lines; the rest
    of the report is the sweep's, estimators too, so no level is solved.

    Raises ProblemError when ``budget`` is below 1 and BudgetExceededError
    when the enumeration finds more bases; use ``curve_by_sweep`` then.
    """
    return _by_vertices(_sweep(problem), budget)


def _by_vertices(walked, budget: int = lpmod.VERTEX_BUDGET) -> CurveReport:
    """``curve_by_vertices`` from ``_sweep``'s result, so a caller that
    already has the sweep walks once."""
    sweep, lp, lay, last_basis = walked
    poly, weights = _flow_dual(lp, lay)
    verts = lpmod.enumerate_vertices(poly, last_basis, budget=budget)
    lines = _lines(verts, weights)
    curve = assemble_curve(lines, sweep.curve.d_star)
    return replace(sweep, curve=curve, method="vertex", s2_points=lines, vertices=verts)


def curve_by_sweep(problem: Problem) -> CurveReport:
    """Curve from one parametric walk of the flow program, P from 1 to 0.

    ``lp.walk``, the walk every ``solve_dp_at`` takes, starts at the
    closed-form optimal basis at P = 1 (``_crash_basis``), on the plateau,
    and passes the optimal bases in order, each with the level s where
    it stops being optimal: entry i is optimal from its s up to entry
    i-1's, on the line ``c_B . xb - slope * s + slope * P``.  Entries
    shorter than ``_ZERO_LEN_TOL`` are skipped, a slope within
    ``_FLAT_TOL`` of 0 is the exact plateau, and an entry within
    ``_SLOPE_MERGE_TOL`` of its piece's slope joins the piece.  A
    breakpoint is the s of the last entry before the slope changes; its
    estimator is that entry's point, and level 0's the last entry's.
    Where the optimum is not unique, the pivot rule picks the estimator.
    """
    return _sweep(problem)[0]


def _sweep(problem: Problem):
    """``curve_by_sweep``'s report, the program it walked, and the walk's last basis."""
    d_star = problem.distortion_floor
    lp, lay = build_ot_form(problem, 0.0)
    sol, path = lpmod.walk(lp, _crash_basis(problem, lay), lay.level_direction, 1.0)
    lines = np.asarray([(lp.c[basis] @ xb - slope * s, slope) for s, basis, xb, slope in path])
    levels = [entry[0] for entry in path]
    pieces, picks, last = [(d_star, 0.0)], [], 0  # the walk starts on the plateau
    for i, (b, m) in enumerate(lines.tolist()):
        if (levels[i - 1] if i else 1.0) - levels[i] < _ZERO_LEN_TOL:
            continue
        if abs(m) <= _FLAT_TOL:
            b, m = d_star, 0.0
        if abs(m - pieces[-1][1]) > _SLOPE_MERGE_TOL:
            pieces.append((b, m))
            picks.append(last)
        last = i
    picks = [len(path) - 1] + picks[::-1]  # level 0, then the breakpoints upwards
    at = [levels[i] for i in picks]
    curve = PiecewiseLinearCurve(np.array(at[1:]), np.array(pieces[::-1]), at[-1], d_star)
    points = np.stack([lpmod.basic_point(lp.n, path[i][1], path[i][2]) for i in picks])
    tol = lpmod.FEAS_TOL * max(1.0, float(np.abs(lp.b).max()))
    estimators = _stochastic_estimator(problem, lay.extract_q(points), tol)
    return CurveReport(curve, "sweep", lines, tuple(zip(at, estimators))), lp, lay, sol.basis


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
