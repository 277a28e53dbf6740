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
  by a basis walk from its last basis and its bases of nondegenerate
  vertices, and take the upper envelope of their lines
  (``assemble_curve``).  Its estimators are the sweep's.

The two share the walk but not the code that turns bases or lines into
a curve, so each checks the other.  They agree up to solver tolerance;
both pin the plateau bitwise to the unconstrained floor.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .errors import ProblemError, SolverError
from .model import Estimator, Problem, _readonly, _require_finite, check_level
from .programs import _crash_basis, _flow_dual, _stochastic_estimator, build_ot_form

_SLOPE_MERGE_TOL = 1e-12  # slope (cost per level): lines within this slope gap collapse to one
_ZERO_LEN_TOL = 1e-12  # level: minimum breakpoint spacing kept in a curve
_FLAT_TOL = 1e-11  # slope: slopes within this of 0 are the plateau
_PAST_ONE_TOL = 1e-12  # level: how far past 1 a curve's last breakpoint may lie
_SLOPE_SIGN_TOL = 1e-10  # slope: the largest positive slope a curve accepts
_CONVEXITY_TOL = 1e-9  # slope: the largest drop from one piece's slope to the next's
_CONTINUITY_TOL = 1e-9  # cost: the largest gap between two pieces at their breakpoint


def _lines(coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(intercept, slope) rows: ``weights``, the right-hand side of the
    flow program at P = 0, give the intercept."""
    return np.stack([coords @ weights, -coords[..., -1]], axis=-1)


# ---------------------------------------------------------------------------
# Piecewise-linear curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PiecewiseLinearCurve:
    """The tradeoff curve on [0, 1] as ordered segments.

    ``segments[i]`` is the (intercept, slope) pair active between
    ``breakpoints[i-1]`` and ``breakpoints[i]`` (domain ends implied).
    The final segment has slope exactly 0: the plateau where the
    perception budget stops binding, at ``d_star``, its intercept, from
    ``p_star``, the last breakpoint (0 if there is none), on.
    """

    breakpoints: np.ndarray
    segments: np.ndarray

    def __post_init__(self):
        """Past the finiteness checks, the checks run on Python floats: a
        curve has a few dozen pieces, and each operation rounds as numpy's."""
        bp = np.asarray(self.breakpoints, dtype=float)
        seg = np.asarray(self.segments, dtype=float).reshape(-1, 2)
        _require_finite(bp, "breakpoint vector")
        _require_finite(seg, "segment table")
        at, flat = bp.ravel().tolist(), seg.ravel().tolist()
        if seg.shape[0] != bp.size + 1:
            raise ProblemError("segment count must be breakpoint count + 1")
        if at and (any(map(operator.ge, at, at[1:])) or at[0] <= 0 or at[-1] > 1 + _PAST_ONE_TOL):
            raise ProblemError("breakpoints must increase strictly within (0, 1]")
        intercepts, slopes = flat[::2], flat[1::2]
        if max(slopes) > _SLOPE_SIGN_TOL:
            raise ProblemError("curve slopes must be nonpositive")
        if min(map(operator.sub, slopes[1:], slopes), default=0.0) < -_CONVEXITY_TOL:
            raise ProblemError("curve slopes must be non-decreasing (convexity)")
        for p, b0, m0, b1, m1 in zip(at, intercepts, slopes, intercepts[1:], slopes[1:]):
            if abs((b0 + m0 * p) - (b1 + m1 * p)) > _CONTINUITY_TOL:
                raise ProblemError(f"curve discontinuous at breakpoint {p!r}")
        if slopes[-1] != 0.0:
            raise ProblemError("final segment must be the exact plateau")
        object.__setattr__(self, "breakpoints", _readonly(bp))
        object.__setattr__(self, "segments", _readonly(seg))

    @property
    def p_star(self) -> float:
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0

    @property
    def d_star(self) -> float:
        return float(self.segments[-1, 0])

    def value(self, p):
        """Curve value; exact plateau (bitwise d_star) for p >= p_star."""
        parr, idx = self._locate(p)
        out = self.segments[idx, 0] + self.segments[idx, 1] * parr
        out[parr >= self.p_star] = self.d_star
        return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out

    def slope(self, p):
        out = self.segments[self._locate(p)[1], 1]
        return float(out[0]) if np.isscalar(p) or np.ndim(p) == 0 else out

    def _locate(self, p):
        """The levels ``p``, each checked by ``check_level``, and the segment of each."""
        parr = np.atleast_1d(np.asarray(p, dtype=float))
        for level in parr.ravel().tolist():
            check_level(level)
        return parr, np.searchsorted(self.breakpoints, parr, side="right")

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
    return PiecewiseLinearCurve(env[1:, 2], env[:, :2])


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
    uniq, first = np.unique(pts, axis=0, return_index=True)  # rows in lexicographic order
    if uniq.shape[0] == 1:
        return np.array([int(first[0])])

    def chain(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2:
                o, a = uniq[out[-2]], uniq[out[-1]]
                b = uniq[i]
                if (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    idx = list(range(uniq.shape[0]))
    lower = chain(idx)
    upper = chain(idx[::-1])
    return np.sort(first[lower[:-1] + upper[:-1]])  # each chain keeps both ends


def curve_by_vertices(problem: Problem, *, budget: int = lpmod.VERTEX_BUDGET) -> CurveReport:
    """Exact curve from full dual vertex enumeration.

    The vertices are those of the flow program's dual
    (``programs._flow_dual``), read off the one build the walk uses.  The
    enumeration starts at the last basis of ``curve_by_sweep``'s walk,
    optimal at P = 0: dual row j is program column j, so that basis is
    d rows of a dual vertex.  It also starts from the walk's other bases
    of nondegenerate dual vertices: such a vertex has one basis, which
    the walk from the last basis reaches anyway, so the bases found and
    their count against ``budget`` stay the same, in fewer blocks.  The
    curve is the envelope of the vertices' lines; the rest of the report
    is the sweep's, estimators too, so no level is solved.

    Raises ProblemError unless ``budget`` is an integer >= 1, and
    BudgetExceededError past 16 dual dimensions (n_y + n_x), both before
    the sweep, or when the enumeration finds more bases; use
    ``curve_by_sweep`` then.
    """
    lpmod._check_walk(budget, problem.n_y + problem.n_x)
    return _by_vertices(_sweep(problem), budget)


def _by_vertices(walked, budget: int = lpmod.VERTEX_BUDGET) -> CurveReport:
    """``curve_by_vertices`` from ``_sweep``'s result, so a caller that
    already has the sweep walks once.  ``lp._walk_vertices`` takes the
    walk's bases as extra starts and keeps those of nondegenerate
    vertices, each the one basis of a vertex the walk reaches anyway."""
    sweep, lp, last_basis, path = walked
    verts = lpmod._walk_vertices(_flow_dual(lp), last_basis, path, budget)
    lines = _lines(verts, lp.b)
    try:
        curve = assemble_curve(lines, sweep.curve.d_star)
    except ProblemError as exc:  # the enumerated vertices' envelope fails the curve's checks
        raise SolverError(str(exc)) from exc
    return replace(sweep, curve=curve, method="vertex", s2_points=lines, vertices=verts)


def curve_by_sweep(problem: Problem) -> CurveReport:
    """Curve from one parametric walk of the flow program, P from 1 to 0.

    ``lp.walk``, the walk every ``solve_dp_at`` takes, starts at the
    closed-form optimal basis at P = 1 (``_crash_basis``), on the plateau,
    and passes the optimal bases in order, each with the level s where
    it stops being optimal: entry i is optimal from its s up to entry
    i-1's, on the line ``c_B B^-1 b + P c_B B^-1 e_m``.  Entries
    shorter than ``_ZERO_LEN_TOL`` are skipped, a slope within
    ``_FLAT_TOL`` of 0 is the exact plateau, and an entry within
    ``_SLOPE_MERGE_TOL`` of its piece's slope joins the piece.  A
    breakpoint is the s of the last entry before the slope changes; its
    estimator is that entry's point, and level 0's the last entry's.
    Where the optimum is not unique, the pivot rule picks the estimator.
    """
    return _sweep(problem)[0]


def _sweep(problem: Problem):
    """``curve_by_sweep``'s report, the program it walked, the walk's last
    basis, and every basis of the walk, one row each: ``_by_vertices``
    starts its vertex walk at the last basis and from those of the rest
    whose dual vertex is nondegenerate, which that walk reaches anyway."""
    d_star = problem.distortion_floor
    lp, lay = build_ot_form(problem, 0.0)
    sol, path = lpmod.walk(lp, _crash_basis(problem, lay), 1.0)
    levels, bases, xbs, rates = zip(*path)
    # values[i, 0] and values[i, 1]: entry i's B^-1 b and B^-1 e_m
    bases, values = np.array(bases), np.array((xbs, rates)).transpose(1, 0, 2)
    # (k, 1, 1, m) @ (k, 2, m, 1): per entry, the dot products c_B @ xb and c_B @ rate, bit for bit
    lines = (lp.c[bases][:, None, None] @ values[..., None]).reshape(-1, 2)
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
    kept = [len(path) - 1] + picks[::-1]  # level 0, then the breakpoints upwards
    at = np.array(levels)[kept]
    try:
        curve = PiecewiseLinearCurve(at[1:], np.array(pieces[::-1]))
    except ProblemError as exc:  # the walk's own lines fail the curve's checks: a numeric failure
        raise SolverError(str(exc)) from exc
    points = np.zeros((len(kept), lp.n))
    vals = values[kept]
    points[np.arange(len(kept))[:, None], bases[kept]] = vals[:, 0] + at[:, None] * vals[:, 1]
    tol = lpmod.FEAS_TOL * max(1.0, float(np.abs(lp.b).max()))
    estimators = _stochastic_estimator(problem, lay.extract_w(points), tol)
    report = CurveReport(curve, "sweep", lines, tuple(zip(at.tolist(), estimators)))
    return report, lp, sol.basis, bases


def mix_supports(levels, rules, p_level: float) -> Estimator:
    """An optimal estimator at ``p_level`` from rules optimal at ``levels``.

    ``levels`` is sorted, and ``rules[i]`` is the estimator optimal at
    ``levels[i]``.  At or past the last level its rule is returned;
    between two levels their rules are mixed linearly.  Mean distortion
    is linear in the rule and the perception index is convex, so on a
    segment of the curve the mixture stays feasible and lands exactly on
    the segment.
    """
    check_level(p_level)
    if p_level >= levels[-1]:
        return rules[-1]
    hi = bisect_right(levels, p_level)
    p0, p1 = levels[hi - 1], levels[hi]
    if p_level <= p0:
        return rules[hi - 1]
    alpha = (p_level - p0) / (p1 - p0)
    return Estimator((1.0 - alpha) * rules[hi - 1].q + alpha * rules[hi].q)


def estimator_on_curve(problem: Problem, report: CurveReport, p_level: float) -> Estimator:
    """An estimator achieving the curve value at ``p_level``, solver-free.

    Segment endpoints carry precomputed estimators, mixed by
    ``mix_supports`` inside a segment; from level 1 on, the unconstrained
    optimum.
    """
    if 1.0 <= p_level < np.inf:
        return problem.minimum[1]
    return mix_supports(*zip(*report.estimators), p_level)
