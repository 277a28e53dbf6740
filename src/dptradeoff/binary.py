"""Solver-free tradeoff curves for binary source alphabets.

With two source symbols, every ground metric is a positive multiple of
the Hamming metric, so after rescaling the perception axis the analysis
runs in total-variation units.  The key quantity per observation symbol
is half the conditional cost gap of reconstructing it as the first
symbol instead of the second:

    gap(y) = (E[d(X, x1) | y] - E[d(X, x2) | y]) / 2.

Accumulating the observation probabilities in ascending gap order gives
a step CDF, and each of its knots is a threshold rule: "first symbol iff
gap <= level" puts the CDF's value at that level on the first symbol.
The greedy rules "gap <= 0" and "gap < 0" are knots.  If the first one
leaves the first symbol short of its probability p_first, one walk
starts there and steps up knot by knot; if the second overfills it, the
same walk starts there and steps down; otherwise a mixture of the two
fits and the curve is constant.  The walk stops before the mass crosses
p_first.  Each knot it visits gives a breakpoint, its distance from
p_first, and from there toward P = 0 the curve has slope minus twice the
gap level of the step's higher-mass knot: the cost rate of the traded
mass.

Optimal estimators are deterministic threshold rules at breakpoints and
linear mixtures of the neighboring threshold rules in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import PiecewiseLinearCurve, mix_supports
from .errors import ProblemError
from .model import Estimator, Problem, _estimator_stack, check_level

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
        for v, m in zip(values[order].tolist(), masses[order].tolist()):
            if pts and v - pts[-1] <= _TIE_TOL:
                acc[-1] += m
            else:
                pts.append(v)
                acc.append(m)
        return cls(np.asarray(pts), np.cumsum(acc))


@dataclass(frozen=True, eq=False)
class BinaryAnalysis:
    """Everything the closed form needs, computed once per problem.

    ``breakpoints`` (perception units), ``thresholds`` and ``rates`` hold
    one entry per knot of the walk, in walk order from the greedy rule's
    knot toward ``p_first``: the knot's distance from ``p_first``, its
    gap level, and the gap level its piece trades (see ``_walk``).  The
    knot's threshold rule is optimal at that distance.  A balanced
    problem walks no knot.  The optimal rules themselves are built on
    first use, in ``supports``.
    """

    gaps: np.ndarray
    case: str
    breakpoints: np.ndarray
    thresholds: np.ndarray
    rates: np.ndarray
    d_star: float
    p_first: float
    metric_scale: float
    p_y: np.ndarray

    @cached_property
    def supports(self) -> tuple[list[float], list[Estimator]]:
        """``(levels, rules)``: the optimal rule at each level, ascending,
        built and checked as one stack on first use.

        Level 0 holds the exact-marginal rule, a greedy fill of the first
        reconstruction in ascending gap order (ties in symbol order) up to
        mass ``p_first``, fractional on the marginal symbol: ``short[i]``
        is the mass missing before the i-th symbol, and the symbols it
        finds short by more than 1e-15 are taken, a prefix, since it only
        falls.  Then come the breakpoints that end a piece of the curve,
        in reverse walk order, each with its rule "first iff gap <=
        threshold".
        """
        kept = _pieces(self)
        order = np.argsort(self.gaps, kind="stable")
        mass = self.p_y[order]
        short = np.cumsum(np.concatenate([[self.p_first], -mass]))[:-1]
        live = short > 1e-15
        q = np.zeros((np.count_nonzero(kept) + 1, 2, self.gaps.size))
        q[0, 0, order[live]] = np.minimum(mass[live], short[live]) / mass[live]
        np.less_equal(self.gaps, self.thresholds[kept][::-1, None] + _TIE_TOL, out=q[1:, 0])
        np.subtract(1.0, q[:, 0], out=q[:, 1])
        return [0.0] + self.breakpoints[kept][::-1].tolist(), _estimator_stack(q)


def _require_binary(problem: Problem) -> None:
    if problem.n_x != 2:
        raise ProblemError("closed-form analysis requires a binary source alphabet")


def _walk(cdf: StepCdf, p1: float):
    """The knot walk: ``(case, thresholds, rates, distances)``, per walked knot.

    Knot k is the rule "first iff gap <= levels[k]", which puts mass
    ``mass[k]`` on the first symbol; knot 0 (level -inf, mass 0) is the
    all-second rule.  The walk starts at a greedy rule's knot and steps
    (+1 when short, -1 when overfilled) while the mass stays on its side
    of ``p1``.  Per knot: its level, the gap its piece toward P = 0
    trades (the step's higher-mass knot's level, unsigned), and its
    distance from ``p1`` in total-variation units.
    """
    levels = np.concatenate([[-np.inf], cdf.points])
    mass = np.concatenate([[0.0], cdf.cumulative])
    # the greedy rules' knots: first iff gap <= 0, and first iff gap < 0
    le0 = int(np.count_nonzero(levels <= _TIE_TOL)) - 1
    lt0 = int(np.count_nonzero(levels < -_TIE_TOL)) - 1
    if p1 - mass[le0] > _TIE_TOL:
        case, step, k = CASE_UNDER, 1, le0
    elif mass[lt0] - p1 > _TIE_TOL:
        case, step, k = CASE_OVER, -1, lt0
    else:
        return CASE_BALANCED, np.zeros(0), np.zeros(0), np.zeros(0)
    knots = [k]
    masses = mass.tolist()
    while 0 <= k + step < len(masses) and step * (p1 - masses[k + step]) >= -_TIE_TOL:
        k += step
        knots.append(k)
    knots = np.asarray(knots)
    # a piece past the last knot is empty and its rate unread: keep the index in range
    rates = np.abs(levels[np.minimum(np.maximum(knots, knots + step), levels.size - 1)])
    return case, levels[knots], rates, np.maximum(step * (p1 - mass[knots]), 0.0)


def analyze(problem: Problem) -> BinaryAnalysis:
    """Classify a binary problem and walk its knots."""
    _require_binary(problem)
    scale = float(problem.metric.h[0, 1])
    cond = problem.conditional
    gaps = 0.5 * (cond[0] - cond[1])
    p1 = float(problem.p_x[0])
    case, thresholds, rates, distances = _walk(StepCdf.from_samples(gaps, problem.p_y), p1)
    return BinaryAnalysis(
        gaps=gaps,
        case=case,
        breakpoints=distances * scale,
        thresholds=thresholds,
        rates=rates,
        d_star=problem.distortion_floor,
        p_first=p1,
        metric_scale=scale,
        p_y=problem.p_y,
    )


def _pieces(an: BinaryAnalysis) -> np.ndarray:
    """Which walked knots end a piece of the curve: those whose piece, from
    the knot's breakpoint to the next one (the last runs on to 0), is
    longer than _TIE_TOL in total-variation units."""
    ends = np.append(an.breakpoints, 0.0)
    return ends[:-1] - ends[1:] > _TIE_TOL * an.metric_scale


def closed_form_curve(problem: Problem, analysis: BinaryAnalysis | None = None) -> PiecewiseLinearCurve:
    """The exact curve: one linear piece per step of the knot walk."""
    an = analysis if analysis is not None else analyze(problem)
    scale, d_star, rates = an.metric_scale, an.d_star, an.rates.tolist()
    ends = np.append(an.breakpoints, 0.0).tolist()

    pieces: list[tuple[float, float]] = []  # (intercept, slope), plateau first
    bps: list[float] = []
    value_right = d_star
    for i in np.flatnonzero(_pieces(an)).tolist():
        left_h, right_h = ends[i + 1], ends[i]
        slope = -2.0 * rates[i] / scale
        intercept = value_right - slope * right_h
        pieces.append((intercept, slope))
        bps.append(right_h)
        value_right = intercept + slope * left_h

    segments = np.asarray(list(reversed(pieces)) + [(d_star, 0.0)])
    return PiecewiseLinearCurve(np.asarray(sorted(bps)), segments)


def breakpoint_estimators(
    problem: Problem, analysis: BinaryAnalysis | None = None
) -> list[tuple[float, Estimator]]:
    """The analysis's stored deterministic rules at every nonzero breakpoint:
    the walked knots that end a piece of ``closed_form_curve``, in walk order."""
    an = analysis if analysis is not None else analyze(problem)
    levels, rules = an.supports
    return list(zip(levels[:0:-1], rules[:0:-1]))


def zero_perception_estimator(problem: Problem, analysis: BinaryAnalysis | None = None) -> Estimator:
    """The analysis's stored optimal rule whose output marginal matches the
    source exactly: the greedy fill of ``BinaryAnalysis.supports``."""
    an = analysis if analysis is not None else analyze(problem)
    return an.supports[1][0]


def estimator_at(
    problem: Problem, analysis: BinaryAnalysis | None = None, p_level: float = 0.0
) -> Estimator:
    """Optimal estimator at any perception level, without solving anything.

    ``mix_supports`` mixes the analysis's two stored rules around
    ``p_level``, or returns the stored rule itself at a level or past the
    last one.
    """
    an = analysis if analysis is not None else analyze(problem)
    return mix_supports(*an.supports, p_level)


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
        + 2 (p_first - the mass of {gap <= u}) u - 2 P |u|,

    with the perception level measured in total-variation units.
    """
    _require_binary(problem)
    check_level(p_level)
    an = analysis if analysis is not None else analyze(problem)
    p_tv = p_level / an.metric_scale
    cost = problem.cost
    included = an.gaps <= gap_value + _TIE_TOL
    base = float(cost[0, included].sum() + cost[1, ~included].sum())
    mass = float(an.p_y[included].sum())
    return base + 2.0 * (an.p_first - mass) * gap_value - 2.0 * p_tv * abs(gap_value)


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
    check_level(p_level)
    an = analysis if analysis is not None else analyze(problem)
    candidates = np.concatenate([[0.0], an.gaps])
    return max(
        reduced_dual_objective(problem, p_level, float(u), an) for u in candidates
    )
