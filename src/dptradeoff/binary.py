"""Solver-free tradeoff curves for binary source alphabets.

With two source symbols, every ground metric is a positive multiple of
the Hamming metric, so after rescaling the perception axis the analysis
runs in total-variation units.  The key quantity per observation symbol
is half the conditional cost gap of reconstructing it as the first
symbol instead of the second:

    gap(y) = (E[d(X, x1) | y] - E[d(X, x2) | y]) / 2.

Gaps within ``_TIE_TOL`` of each other are one level.  Each level is a
knot: the threshold rule "first symbol iff gap <= level", which puts the
observation mass at or below that level on the first symbol.  The
greedy rules "gap <= 0" and "gap < 0" are knots.  If the first one
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

_TIE_TOL = 1e-12  # cost: gap values closer than this are the same cost level
_MASS_TIE_TOL = 1e-12  # mass: a knot's mass this near p_first counts as equal to it
_PIECE_TOL = 1e-12  # level: in total variation, times the metric's scale, a shorter piece drops
_SHORT_TOL = 1e-15  # mass: the exact-marginal fill takes a symbol it finds short by more


@dataclass(frozen=True, eq=False)
class BinaryAnalysis:
    """Everything the closed form needs, computed once per problem.

    ``breakpoints`` (perception units), ``thresholds`` and ``slopes`` hold
    one entry per linear piece of the curve below its plateau, in walk
    order from the greedy rule's knot toward ``p_first``: the distance
    from ``p_first`` of the knot that ends the piece on the right, that
    knot's gap level, and the piece's slope.  The knot's threshold rule
    is optimal at that distance.  A balanced problem has no piece.  The
    optimal rules themselves are built on first use, in ``supports``.
    """

    gaps: np.ndarray
    case: str
    breakpoints: np.ndarray
    thresholds: np.ndarray
    slopes: np.ndarray
    d_star: float
    p_first: float
    p_y: np.ndarray

    @cached_property
    def supports(self) -> tuple[list[float], list[Estimator]]:
        """``(levels, rules)``: the optimal rule at each level, ascending,
        built and checked as one stack on first use.

        Level 0 holds the exact-marginal rule, a greedy fill of the first
        reconstruction in ascending gap order (ties in symbol order) up to
        mass ``p_first``, fractional on the marginal symbol: ``short[i]``
        is the mass missing before the i-th symbol, and the symbols it
        finds short by more than ``_SHORT_TOL`` are taken, a prefix, since it only
        falls.  Then come the breakpoints, in reverse walk order, each
        with its rule "first iff gap <= threshold".
        """
        order = np.argsort(self.gaps, kind="stable")
        mass = self.p_y[order]
        short = np.cumsum(np.concatenate([[self.p_first], -mass]))[:-1]
        live = short > _SHORT_TOL
        q = np.zeros((self.breakpoints.size + 1, 2, self.gaps.size))
        q[0, 0, order[live]] = np.minimum(mass[live], short[live]) / mass[live]
        np.less_equal(self.gaps, self.thresholds[::-1, None] + _TIE_TOL, out=q[1:, 0])
        np.subtract(1.0, q[:, 0], out=q[:, 1])
        return [0.0] + self.breakpoints[::-1].tolist(), _estimator_stack(q)


def _require_binary(problem: Problem) -> None:
    if problem.n_x != 2:
        raise ProblemError("closed-form analysis requires a binary source alphabet")


def analyze(problem: Problem) -> BinaryAnalysis:
    """Classify a binary problem and walk its knots to the curve's pieces.

    Knot k is the rule "first iff gap <= levels[k]", which puts mass
    ``mass[k]`` on the first symbol; knot 0 (level -inf, mass 0) is the
    all-second rule.  The walk starts at a greedy rule's knot and steps
    (+1 when short, -1 when overfilled) while the mass stays on its side
    of ``p_first``.  Each walked knot's piece runs from its distance to
    the next knot's (the last one's to 0) and trades the gap level of the
    step's higher-mass knot; only pieces longer than ``_PIECE_TOL`` in
    total-variation units are kept.  Masses are judged against ``p_first``
    within ``_MASS_TIE_TOL``, and gap levels within ``_TIE_TOL``.
    """
    _require_binary(problem)
    scale = float(problem.metric.h[0, 1])
    cond = problem.conditional
    gaps = 0.5 * (cond[0] - cond[1])
    p1 = float(problem.p_x[0])
    order = np.argsort(gaps, kind="stable")
    levels, group = [-np.inf], [0.0]
    for v, m in zip(gaps[order].tolist(), problem.p_y[order].tolist()):
        if v - levels[-1] <= _TIE_TOL:
            group[-1] += m
        else:
            levels.append(v)
            group.append(m)
    levels, mass = np.asarray(levels), np.cumsum(group)

    # the greedy rules' knots: first iff gap <= 0, and first iff gap < 0
    le0 = int(np.count_nonzero(levels <= _TIE_TOL)) - 1
    lt0 = int(np.count_nonzero(levels < -_TIE_TOL)) - 1
    case, step, k = CASE_BALANCED, 0, -1
    if p1 - mass[le0] > _MASS_TIE_TOL:
        case, step, k = CASE_UNDER, 1, le0
    elif mass[lt0] - p1 > _MASS_TIE_TOL:
        case, step, k = CASE_OVER, -1, lt0
    knots = [k] if step else []
    masses = mass.tolist()
    while step and 0 <= k + step < len(masses) and step * (p1 - masses[k + step]) >= -_MASS_TIE_TOL:
        k += step
        knots.append(k)

    knots = np.asarray(knots, dtype=np.intp)
    ends = np.append(np.maximum(step * (p1 - mass[knots]), 0.0) * scale, 0.0)
    kept = ends[:-1] - ends[1:] > _PIECE_TOL * scale
    # the traded level is the step's higher-mass knot's, kept in range past the last
    traded = levels[np.minimum(knots[kept] + (step > 0), levels.size - 1)]
    return BinaryAnalysis(
        gaps=gaps,
        case=case,
        breakpoints=ends[:-1][kept],
        thresholds=levels[knots[kept]],
        slopes=-2.0 * np.abs(traded) / scale,
        d_star=problem.distortion_floor,
        p_first=p1,
        p_y=problem.p_y,
    )


def closed_form_curve(problem: Problem, analysis: BinaryAnalysis | None = None) -> PiecewiseLinearCurve:
    """The exact curve: one linear piece per stored breakpoint, plus the plateau."""
    an = analysis if analysis is not None else analyze(problem)
    ends = np.append(an.breakpoints, 0.0).tolist()
    pieces: list[tuple[float, float]] = []  # (intercept, slope), in walk order
    value_right = an.d_star
    for right_h, left_h, slope in zip(ends, ends[1:], an.slopes.tolist()):
        intercept = value_right - slope * right_h
        pieces.append((intercept, slope))
        value_right = intercept + slope * left_h
    segments = np.asarray(pieces[::-1] + [(an.d_star, 0.0)])
    return PiecewiseLinearCurve(an.breakpoints[::-1], segments)


def breakpoint_estimators(
    problem: Problem, analysis: BinaryAnalysis | None = None
) -> list[tuple[float, Estimator]]:
    """The analysis's stored deterministic rules at every nonzero breakpoint,
    in walk order."""
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
    p_tv = p_level / float(problem.metric.h[0, 1])
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
    an = analysis if analysis is not None else analyze(problem)
    candidates = np.concatenate([[0.0], an.gaps])
    return max(
        reduced_dual_objective(problem, p_level, float(u), an) for u in candidates
    )
