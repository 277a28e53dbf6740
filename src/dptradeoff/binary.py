"""Solver-free tradeoff curves for binary source alphabets.

With two source symbols, every ground metric is a positive multiple of
the Hamming metric, so after rescaling the perception axis the analysis
runs in total-variation units.  The key quantity per observation symbol
is half the conditional cost gap of reconstructing it as the first
symbol instead of the second:

    gap(y) = (E[d(X, x1) | y] - E[d(X, x2) | y]) / 2.

Sorting observations by this gap and accumulating their probabilities
gives a step CDF; the curve's breakpoints are differences between the
first-symbol mass and values of that CDF, and each linear piece has
slope minus twice the gap level being traded at that point.  Three
regimes exist, depending on whether the greedy rule leaves the first
symbol short of mass, over target, or exactly on it (curve constant).

Optimal estimators are deterministic threshold rules at breakpoints and
linear mixtures of the neighboring threshold rules in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import PiecewiseLinearCurve, mix_supports
from .errors import ProblemError
from .model import Estimator, Problem

CASE_UNDER = "x1_underallocated"
CASE_OVER = "x1_overallocated"
CASE_BALANCED = "balanced"

_TIE_TOL = 1e-12  # gap values closer than this are the same cost level


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous step CDF over finitely many jump locations."""

    points: np.ndarray  # sorted distinct jump locations
    cumulative: np.ndarray  # mass at or below each location

    @classmethod
    def from_samples(cls, values, masses) -> "StepCdf":
        values = np.asarray(values, dtype=float)
        masses = np.asarray(masses, dtype=float)
        order = np.argsort(values, kind="stable")
        pts: list[float] = []
        acc: list[float] = []
        for v, m in zip(values[order], masses[order]):
            if pts and v - pts[-1] <= _TIE_TOL:
                acc[-1] += m
            else:
                pts.append(float(v))
                acc.append(float(m))
        return cls(np.asarray(pts), np.cumsum(acc))

    def at(self, u: float) -> float:
        """Mass of levels <= u (levels within _TIE_TOL of u count as equal)."""
        idx = int(np.searchsorted(self.points, u + _TIE_TOL, side="right"))
        return float(self.cumulative[idx - 1]) if idx else 0.0

    def left(self, u: float) -> float:
        """Left limit: mass of levels strictly below u."""
        idx = int(np.searchsorted(self.points, u - _TIE_TOL, side="left"))
        return float(self.cumulative[idx - 1]) if idx else 0.0


@dataclass(frozen=True, eq=False)
class BinaryAnalysis:
    """Everything the closed form needs, precomputed once.

    ``breakpoints`` is the raw non-increasing sequence (perception
    units), one entry per admitted gap level counted with symbol
    multiplicity; repeated entries are degenerate intervals that the
    curve collapses.  ``thresholds`` holds the gap cutoff whose
    deterministic rule is optimal at the matching raw breakpoint.
    ``segment_table`` rows are (left, right, gap) in total-variation
    units, ordered from the plateau downward: the curve has slope
    ``-2 * gap`` between those endpoints.
    """

    gaps: np.ndarray
    order: np.ndarray
    case: str
    breakpoints: np.ndarray
    thresholds: np.ndarray
    segment_table: np.ndarray
    i_max: int
    d_star: float
    cdf: StepCdf
    p_first: float
    metric_scale: float


def _require_binary(problem: Problem) -> None:
    if problem.n_x != 2:
        raise ProblemError("closed-form analysis requires a binary source alphabet")


def _distinct_levels(values: np.ndarray) -> np.ndarray:
    out: list[float] = []
    for v in np.sort(values):
        if not out or v - out[-1] > _TIE_TOL:
            out.append(float(v))
    return np.asarray(out)


def analyze(problem: Problem) -> BinaryAnalysis:
    """Classify a binary problem and precompute its breakpoint structure."""
    _require_binary(problem)
    scale = float(problem.metric.h[0, 1])
    cond = problem.conditional
    gaps = 0.5 * (cond[0] - cond[1])
    order = np.argsort(gaps, kind="stable")
    cdf = StepCdf.from_samples(gaps, problem.p_y)
    p1 = float(problem.p_x[0])
    at0, below0 = cdf.at(0.0), cdf.left(0.0)

    if at0 >= p1 - _TIE_TOL and p1 >= below0 - _TIE_TOL:
        case = CASE_BALANCED
    elif p1 >= at0 - _TIE_TOL:
        case = CASE_UNDER
    else:
        case = CASE_OVER

    raw_bps: list[float] = []
    raw_thr: list[float] = []
    segments: list[tuple[float, float, float]] = []

    if case == CASE_BALANCED:
        raw_bps, raw_thr = [0.0], [0.0]
    elif case == CASE_UNDER:
        raw_bps, raw_thr = [max(0.0, p1 - at0)], [0.0]
        for v in np.sort(gaps[gaps > _TIE_TOL]):
            if p1 >= cdf.at(v) - _TIE_TOL:
                raw_bps.append(max(0.0, p1 - cdf.at(v)))
                raw_thr.append(float(v))
            else:
                break
        prev = raw_bps[0]
        for v in _distinct_levels(gaps[gaps > _TIE_TOL]):
            if prev <= _TIE_TOL:
                break
            if p1 >= cdf.at(v) - _TIE_TOL:
                nxt = max(0.0, p1 - cdf.at(v))
                segments.append((nxt, prev, float(v)))
                prev = nxt
            else:
                segments.append((0.0, prev, float(v)))
                prev = 0.0
                break
    else:
        levels = _distinct_levels(gaps[gaps < -_TIE_TOL])[::-1]  # toward -inf
        for v in np.sort(gaps[gaps < -_TIE_TOL])[::-1]:
            bp = cdf.at(v) - p1
            if bp >= -_TIE_TOL:
                raw_bps.append(max(0.0, bp))
                raw_thr.append(float(v))
            else:
                break
        if not raw_bps:
            raw_bps, raw_thr = [max(0.0, below0 - p1)], [-np.inf]
        if levels.size:
            prev = cdf.at(levels[0]) - p1
            right_v = levels[0]
            for v in levels[1:]:
                if prev <= _TIE_TOL:
                    break
                nxt = cdf.at(v) - p1
                if nxt > _TIE_TOL:
                    segments.append((nxt, prev, abs(right_v)))
                    prev, right_v = nxt, v
                else:
                    break
            if prev > _TIE_TOL:
                segments.append((0.0, prev, abs(right_v)))

    return BinaryAnalysis(
        gaps=gaps,
        order=order,
        case=case,
        breakpoints=np.asarray(raw_bps) * scale,
        thresholds=np.asarray(raw_thr),
        segment_table=np.asarray(segments).reshape(-1, 3),
        i_max=len(raw_bps) - 1,
        d_star=problem.distortion_floor,
        cdf=cdf,
        p_first=p1,
        metric_scale=scale,
    )


def closed_form_curve(problem: Problem, analysis: BinaryAnalysis | None = None) -> PiecewiseLinearCurve:
    """The exact curve assembled from the precomputed segment table."""
    an = analysis if analysis is not None else analyze(problem)
    scale = an.metric_scale
    d_star = an.d_star

    pieces: list[tuple[float, float]] = []  # (intercept, slope), plateau first
    bps: list[float] = []
    value_right = d_star
    for left, right, gap in an.segment_table:
        if right - left <= _TIE_TOL:
            continue
        left_h, right_h = left * scale, right * scale
        slope = -2.0 * gap / scale
        intercept = value_right - slope * right_h
        pieces.append((intercept, slope))
        bps.append(right_h)
        value_right = intercept + slope * left_h

    segments = np.asarray(list(reversed(pieces)) + [(d_star, 0.0)])
    breakpoints = np.asarray(sorted(bps))
    p_star = float(breakpoints[-1]) if breakpoints.size else 0.0
    return PiecewiseLinearCurve(breakpoints, segments, p_star, d_star)


def _threshold_rule(an: BinaryAnalysis, threshold: float) -> Estimator:
    """Deterministic rule sending y to the first symbol iff gap(y) <= threshold."""
    first = (an.gaps <= threshold + _TIE_TOL).astype(float)
    return Estimator(np.vstack([first, 1.0 - first]))


def _distinct_breakpoints(an: BinaryAnalysis) -> list[tuple[float, float]]:
    """Nonzero raw breakpoints with their thresholds, each repeat once."""
    out: list[tuple[float, float]] = []
    for bp, thr in zip(an.breakpoints, an.thresholds):
        if bp <= _TIE_TOL:
            continue
        if out and abs(bp - out[-1][0]) <= _TIE_TOL:
            continue
        out.append((float(bp), float(thr)))
    return out


def breakpoint_estimators(
    problem: Problem, analysis: BinaryAnalysis | None = None
) -> list[tuple[float, Estimator]]:
    """Deterministic optimal estimators at every nonzero breakpoint.

    Repeated raw breakpoints (degenerate intervals) share one threshold
    rule and are reported once.
    """
    an = analysis if analysis is not None else analyze(problem)
    return [(bp, _threshold_rule(an, thr)) for bp, thr in _distinct_breakpoints(an)]


def zero_perception_estimator(problem: Problem, analysis: BinaryAnalysis | None = None) -> Estimator:
    """Optimal rule whose output marginal matches the source exactly.

    Greedy: start from the symbols that strictly prefer the first
    reconstruction, then trade the cheapest remaining mass (by absolute
    gap) until the first-symbol output probability hits its target,
    going fractional on the marginal symbol.
    """
    an = analysis if analysis is not None else analyze(problem)
    p_y = problem.p_y
    first = (an.gaps < -_TIE_TOL).astype(float)
    deficit = an.p_first - float(first @ p_y)
    if deficit > _TIE_TOL:
        for y in sorted(range(len(an.gaps)), key=lambda i: (an.gaps[i], i)):
            if first[y] >= 1.0 or an.gaps[y] < -_TIE_TOL:
                continue
            take = min(p_y[y] * (1.0 - first[y]), deficit)
            first[y] += take / p_y[y]
            deficit -= take
            if deficit <= 1e-15:
                break
    elif deficit < -_TIE_TOL:
        surplus = -deficit
        for y in sorted(range(len(an.gaps)), key=lambda i: (-an.gaps[i], i)):
            if first[y] <= 0.0:
                continue
            give = min(p_y[y] * first[y], surplus)
            first[y] -= give / p_y[y]
            surplus -= give
            if surplus <= 1e-15:
                break
    return Estimator(np.vstack([first, 1.0 - first]))


def estimator_at(
    problem: Problem, analysis: BinaryAnalysis | None = None, p_level: float = 0.0
) -> Estimator:
    """Optimal estimator at any perception level, without solving anything.

    The supports are the exact-marginal rule at level 0 and the threshold
    rules at the breakpoints; ``mix_supports`` builds only the one or two
    around ``p_level`` and mixes them.
    """
    an = analysis if analysis is not None else analyze(problem)
    thresholds = sorted(_distinct_breakpoints(an), key=lambda t: t[0])
    levels = [0.0] + [bp for bp, _ in thresholds]

    def rule(i: int) -> Estimator:
        if i == 0:
            return zero_perception_estimator(problem, an)
        return _threshold_rule(an, thresholds[i - 1][1])

    return mix_supports(levels, rule, p_level)


def reduced_dual_objective(
    problem: Problem,
    p_level: float,
    gap_value: float,
    analysis: BinaryAnalysis | None = None,
) -> float:
    """Dual objective collapsed to a single scalar decision variable.

    For binary sources the dual reduces to a concave function of one
    number (the tested gap cutoff); evaluating it at a cutoff u gives

        sum of first-symbol costs over {gap <= u}
        + sum of second-symbol costs over {gap > u}
        + 2 (p_first - cdf(u)) u - 2 P |u|,

    with the perception level measured in total-variation units.
    """
    _require_binary(problem)
    an = analysis if analysis is not None else analyze(problem)
    p_tv = p_level / an.metric_scale
    cost = problem.cost
    included = an.gaps <= gap_value + _TIE_TOL
    base = float(cost[0, included].sum() + cost[1, ~included].sum())
    return base + 2.0 * (an.p_first - an.cdf.at(gap_value)) * gap_value - 2.0 * p_tv * abs(
        gap_value
    )


def reduced_dual_optimum(
    problem: Problem, p_level: float, analysis: BinaryAnalysis | None = None
) -> float:
    """Curve value as the best reduced dual candidate.

    The reduced objective is concave in the cutoff and piecewise linear
    between observed gap levels, so scanning zero plus every per-symbol
    gap is exhaustive.  Independent of both the LP route and the closed
    form.
    """
    _require_binary(problem)
    an = analysis if analysis is not None else analyze(problem)
    candidates = np.concatenate([[0.0], an.gaps])
    return max(
        reduced_dual_objective(problem, p_level, float(u), an) for u in candidates
    )
