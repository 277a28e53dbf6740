"""Linear programs whose optimum is the distortion-perception value D(P).

Two equivalent primal builds are provided:

* transport form ("ot"): valid for any ground metric.  Variables are the
  estimator entries, a coupling between the source marginal and the
  reconstruction marginal, and one slack on the perception row.  The
  constraint blocks are, in order: column stochasticity (scaled by the
  observation marginal), coupling row marginals pinned to the source
  marginal, coupling column marginals tied to the reconstruction
  marginal, and the transported-mass budget ``pi . h + eps = P``.  One of
  these rows is linearly dependent by construction; the solve drops it.

* sign form ("tv"): valid only under the Hamming metric, where the
  perception index is total variation.  The absolute values are split
  (the standard L1 program): variables are the estimator entries, a
  positive and a negative part ``t+ - t-`` of the deviation of the
  reconstruction marginal from the source marginal, and one slack.  The
  rows are column stochasticity, one per reconstruction symbol tying its
  output mass to ``p_x + t+ - t-``, and the budget
  ``sum(t+ + t-) + slack = 2 P``.

The dual of the transport form is read off the built program, one
multiplier per kept row: every row but the last output marginal, which
depends on the others.  Dropping it prices it at 0, a chart of the
output block's gauge freedom, and every walk starts at a basis that
drops it (``_crash_basis``).  Dual constraint j is program column j.
The perception row's multiplier, negated, is a nonnegative price that
enters the dual objective as ``-price * P``, so optimal bases directly
expose the local slope of D(P).  The sign form's duals are reported in
the same blocks: its output-row duals are the output block, minus twice
its budget dual is the price, and the source block is the tightest
those two allow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import ProblemError, SolverError
from .model import Coupling, Estimator, Problem, check_level, output_distribution, tv_distance


@dataclass(frozen=True, eq=False)
class OtFormLayout:
    """Index bookkeeping for the transport-form program."""

    n_x: int
    n_y: int

    @property
    def n_vars(self) -> int:
        return self.n_x * (self.n_y + self.n_x) + 1

    @property
    def n_cons(self) -> int:
        return self.n_y + 2 * self.n_x + 1

    def ix_q(self, xhat: int, y: int) -> int:
        return xhat * self.n_y + y

    def ix_pi(self, x: int, xhat: int) -> int:
        return self.n_x * self.n_y + x * self.n_x + xhat

    @property
    def ix_eps(self) -> int:
        return self.n_vars - 1

    def row_source_marginal(self, x: int) -> int:
        return self.n_y + x

    def row_output_marginal(self, xhat: int) -> int:
        return self.n_y + self.n_x + xhat

    @property
    def row_perception(self) -> int:
        return self.n_cons - 1

    @property
    def level_direction(self) -> np.ndarray:
        """The right-hand side's change per unit of perception level."""
        return (np.arange(self.n_cons) == self.row_perception).astype(float)

    def extract_q(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n_x * self.n_y].reshape(self.n_x, self.n_y)

    def extract_pi(self, x: np.ndarray) -> np.ndarray:
        return x[self.n_x * self.n_y : self.n_x * (self.n_y + self.n_x)].reshape(
            self.n_x, self.n_x
        )


@dataclass(frozen=True, eq=False)
class TvFormLayout:
    """Index bookkeeping for the sign-form program.

    Variables: the estimator block, ``t+`` and ``t-`` (one per
    reconstruction symbol each) and the budget slack.  Rows: one per
    observation symbol, one per reconstruction symbol, and the budget.
    """

    n_x: int
    n_y: int

    @property
    def n_vars(self) -> int:
        return self.n_x * (self.n_y + 2) + 1

    @property
    def n_cons(self) -> int:
        return self.n_y + self.n_x + 1

    def ix_q(self, xhat: int, y: int) -> int:
        return xhat * self.n_y + y

    def ix_plus(self, xhat: int) -> int:
        return self.n_x * self.n_y + xhat

    def ix_minus(self, xhat: int) -> int:
        return self.n_x * (self.n_y + 1) + xhat

    @property
    def ix_slack(self) -> int:
        return self.n_vars - 1

    @property
    def level_direction(self) -> np.ndarray:
        """The right-hand side's change per unit of level: 2 on the budget row."""
        return 2.0 * (np.arange(self.n_cons) == self.n_cons - 1)

    def extract_q(self, x: np.ndarray) -> np.ndarray:
        return x[: self.n_x * self.n_y].reshape(self.n_x, self.n_y)


def build_ot_form(problem: Problem, p_level: float) -> tuple[lpmod.StandardLP, OtFormLayout]:
    """Transport-form program in equality standard form.

    Cost vector: reconstruction cost on the estimator block, zero on the
    coupling and slack.  Right-hand side: observation marginal, source
    marginal, zeros, and the perception level (the only P-dependent
    entry, so the feasible region's right-hand side is affine in P).
    """
    check_level(p_level)
    n_x, n_y = problem.n_x, problem.n_y
    lay = OtFormLayout(n_x, n_y)
    p_y, p_x = problem.p_y, problem.p_x

    a = np.zeros((lay.n_cons, lay.n_vars))
    nq = n_x * n_y
    a[:n_y, :nq] = np.kron(np.ones((1, n_x)), np.diag(p_y))
    a[n_y : n_y + n_x, nq : nq + n_x * n_x] = np.kron(np.eye(n_x), np.ones((1, n_x)))
    a[n_y + n_x : n_y + 2 * n_x, :nq] = np.kron(np.eye(n_x), p_y[None, :])
    a[n_y + n_x : n_y + 2 * n_x, nq : nq + n_x * n_x] = -np.kron(
        np.ones((1, n_x)), np.eye(n_x)
    )
    a[-1, nq : nq + n_x * n_x] = problem.metric.h.reshape(-1)
    a[-1, -1] = 1.0

    b = np.concatenate([p_y, p_x, np.zeros(n_x), [p_level]])
    c = np.concatenate([problem.cost.reshape(-1), np.zeros(n_x * n_x + 1)])
    return lpmod.StandardLP(a, b, c), lay


def build_tv_form(problem: Problem, p_level: float) -> tuple[lpmod.StandardLP, TvFormLayout]:
    """Sign-form program (Hamming metric only) in equality standard form.

    Right-hand side: observation marginal, source marginal, and twice the
    perception level (the only P-dependent entry).
    """
    check_level(p_level)
    if not problem.metric.is_hamming:
        raise ProblemError("the sign form requires the Hamming ground metric")
    n_x, n_y = problem.n_x, problem.n_y
    lay = TvFormLayout(n_x, n_y)
    p_y = problem.p_y

    a = np.zeros((lay.n_cons, lay.n_vars))
    nq = n_x * n_y
    a[:n_y, :nq] = np.kron(np.ones((1, n_x)), np.diag(p_y))
    a[n_y:-1, :nq] = np.kron(np.eye(n_x), p_y[None, :])
    a[n_y:-1, nq:-1] = np.hstack([-np.eye(n_x), np.eye(n_x)])
    a[-1, nq:] = 1.0
    b = np.concatenate([p_y, problem.p_x, [2.0 * p_level]])
    c = np.concatenate([problem.cost.reshape(-1), np.zeros(2 * n_x + 1)])
    return lpmod.StandardLP(a, b, c), lay


# ---------------------------------------------------------------------------
# Dual handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DualSolution:
    """Block-split dual point of the transport form, with last output dual 0.

    Fields, by the primal constraint block they price:
        stochasticity: one value per observation symbol.
        source_marginal: one value per source symbol.
        output_marginal: one value per reconstruction symbol (last is 0).
        perception_price: nonnegative price of the perception budget; the
            local slope of D(P) is minus this price.
    """

    stochasticity: np.ndarray
    source_marginal: np.ndarray
    output_marginal: np.ndarray
    perception_price: float
    objective: float

    def coords(self) -> np.ndarray:
        """``dual_polyhedron``'s coordinates (stochasticity, source, output[:-1], price)."""
        return np.concatenate(
            [
                self.stochasticity,
                self.source_marginal,
                self.output_marginal[:-1],
                [self.perception_price],
            ]
        )

    def feasibility_violation(self, problem: Problem) -> float:
        """Largest excess ``g @ coords() - h`` over ``dual_polyhedron(problem)``."""
        poly = dual_polyhedron(problem)
        return float(np.max(poly.g @ self.coords() - poly.h))


def _pin_gauge(stoch, source, output, price):
    """Shift along the dual null direction so the last output dual is 0.

    Adding t to every stochasticity dual while subtracting t from the
    source and output blocks preserves every dual constraint and the
    objective; we spend that freedom on a reproducible chart.
    """
    shift = output[-1]
    return stoch + shift, source - shift, output - shift, price


def _dual_from_ot(problem: Problem, raw: np.ndarray, p_level: float) -> DualSolution:
    """Block duals from the transport form's row duals, in the chart: the
    walk keeps the crash basis's dropped row, the last output, at 0."""
    n_x, n_y = problem.n_x, problem.n_y
    stoch = raw[:n_y].copy()
    source = raw[n_y : n_y + n_x].copy()
    output = raw[n_y + n_x : n_y + 2 * n_x].copy()
    price = -float(raw[-1])
    objective = float(stoch @ problem.p_y + source @ problem.p_x - price * p_level)
    return DualSolution(stoch, source, output, price, objective)


def _dual_from_tv(problem: Problem, raw: np.ndarray, p_level: float) -> DualSolution:
    """Block duals from the sign form's row duals: stochasticity, output, budget."""
    n_x, n_y = problem.n_x, problem.n_y
    stoch = raw[:n_y].copy()
    output = raw[n_y : n_y + n_x].copy()
    price = -2.0 * float(raw[-1])
    # the t+ and t- columns bound every output dual by half the price, so
    # under Hamming the tightest source dual equals the output dual
    source = np.min(problem.metric.h * price + output[None, :], axis=1)
    stoch, source, output, price = _pin_gauge(stoch, source, output, price)
    objective = float(stoch @ problem.p_y + source @ problem.p_x - price * p_level)
    return DualSolution(stoch, source, output, price, objective)


def _transport_dual(lp: lpmod.StandardLP, lay: OtFormLayout) -> tuple[lpmod.HPolyhedron, np.ndarray]:
    """The dual of a built transport program over its kept rows.

    Returns the polyhedron ``{u : g u <= h}`` and the kept rows' ``b``;
    built at P = 0, ``u . b`` is the intercept of u's dual objective
    ``intercept - price * P``.  ``g`` is the transpose of the kept rows,
    so row j is column j's constraint ``w . a[:, j] <= c[j]`` on the row
    duals w, with two changes of units: an estimator column's row and
    bound are divided by its observation mass, so they read
    ``stochasticity[y] + output[xhat] <= conditional[xhat, y]``, and the
    perception coordinate is negated into the price.
    """
    kept = np.arange(lay.n_cons) != lay.row_output_marginal(lay.n_x - 1)
    mass = np.ones(lay.n_vars)
    mass[: lay.n_x * lay.n_y] = np.tile(lp.b[: lay.n_y], lay.n_x)
    # row-major, as the vertex walk gathers rows; + 0.0 clears the negated blocks' -0.0
    g = np.ascontiguousarray(lp.a[kept].T) / mass[:, None] + 0.0
    g[:, -1] = 0.0 - g[:, -1]
    return lpmod.HPolyhedron(g, lp.c / mass), lp.b[kept]


def dual_polyhedron(problem: Problem) -> lpmod.HPolyhedron:
    """H-representation of the transport form's dual over its kept rows.

    Coordinates: (stochasticity[n_y], source[n_x], output[n_x - 1],
    price), dimension n_y + 2 n_x: the last output row is dropped, so its
    dual is pinned to 0.  Rows follow the program's columns: one per
    (reconstruction, observation) pair, one per (source, reconstruction)
    pair, and the price nonnegativity row.
    """
    return _transport_dual(*build_ot_form(problem, 0.0))[0]


# ---------------------------------------------------------------------------
# Single-level solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything produced by one solve at a fixed perception level.

    ``perception`` certifies estimator feasibility: for the transport
    form it is the transported mass of the returned coupling (an upper
    bound on the true transport distance), for the sign form the exact
    total variation.  ``solution`` is the optimal LP solution the report
    was read from.  ``iterations`` counts the pivots of the walk from
    P = 1 to ``p_level`` plus those of the phase-two confirmation at
    ``p_level``, and ``refactorizations`` the times the walk factored its
    basis afresh.
    """

    p_level: float
    value: float
    estimator: Estimator
    coupling: Coupling
    dual: DualSolution
    gap: float
    form: str
    perception: float
    solution: lpmod.LPSolution = field(repr=False)
    iterations: int = 0
    refactorizations: int = 0


def _stochastic_estimator(problem: Problem, q: np.ndarray, tol: float) -> Estimator:
    """Column-stochastic estimator from the solver's estimator block.

    The solver meets each stochasticity row ``p_y * sum(q[:, y]) = p_y``
    within ``tol`` in mass units, so a column's own sum may be off by
    ``tol / p_y``: the column of a symbol with almost no mass can come
    back as zeros.  Residuals are judged in mass units; a column with a
    positive sum is renormalized, and one that sums to about 0 takes the
    column of the unconstrained optimum, which moves the distortion and
    the output law by at most that symbol's mass.
    """
    p_y = problem.p_y
    if np.any(p_y * q < -tol):
        raise SolverError("estimator entry negative beyond the solver tolerance")
    q = np.clip(q, 0.0, None)
    colsum = q.sum(axis=0)
    residual = p_y * np.abs(colsum - 1.0)
    if np.any(residual > tol):
        raise SolverError(
            f"estimator column off stochastic by mass {residual.max():g} (tolerance {tol:g})"
        )
    empty = colsum <= tol
    q = q / np.where(empty, 1.0, colsum)
    q[:, empty] = problem.minimum[1].q[:, empty]
    return Estimator(q)


def _crash_basis(problem: Problem, lay: OtFormLayout | TvFormLayout) -> lpmod.LPSolution:
    """The optimal basis of the program at P = 1, in closed form.

    Every metric entry is at most 1, so at P = 1 the budget is slack and
    the MAP estimator (``problem.minimum``, same ties) is optimal.  Its
    basis prices only the stochasticity rows, at the cheapest conditional
    cost, so every reduced cost is nonnegative whatever the level.

    Transport form: the MAP estimator entries, the ``2 n_x - 1`` cells of
    a diagonal-first plan from the source marginal to the MAP output
    marginal, and the budget slack.  The plan keeps ``min(p_x, r)`` in
    place on every diagonal cell and runs a north-west-corner staircase
    only from the source surplus to the output deficit: the symbols with
    ``p_x >= r`` on one side (a symbol with ``p_x == r`` joins with zero
    mass) and the rest on the other; if a side is empty, the last symbol
    alone forms the deficit side.  The diagonal pairs each source row
    with its output row and the staircase joins the two sides, so the
    cells span the source and output rows whatever the rounding.  Every
    validated metric obeys the triangle inequality, so some optimal plan
    keeps the shared mass in place: this one moves exactly ``W1(p_x, r)``
    under Hamming and nearly so under another metric, and the walk's
    first pivot is where the budget starts to bind rather than a
    re-routing of the plan.  The last output row depends on the others
    and is dropped, which prices it at 0, the pinned chart.  Sign form: the MAP estimator entries, for each
    reconstruction symbol ``t+`` if its MAP output mass is at least its
    source mass and ``t-`` otherwise, and the budget slack, which at
    P = 1 is ``2 - 2 TV >= 0``; the output rows are then priced at 0.
    """
    picks = np.argmin(problem.cost, axis=0)
    basis = [lay.ix_q(int(xhat), y) for y, xhat in enumerate(picks)]
    rm = np.bincount(picks, weights=problem.p_y, minlength=problem.n_x)
    if isinstance(lay, TvFormLayout):
        ups = rm >= problem.p_x
        basis += [lay.ix_plus(i) if up else lay.ix_minus(i) for i, up in enumerate(ups)]
        basis.append(lay.ix_slack)
        return lpmod.LPSolution(status="optimal", basis=tuple(sorted(basis)))
    basis += [lay.ix_pi(i, i) for i in range(problem.n_x)]
    kept = np.minimum(problem.p_x, rm)
    surplus, deficit = problem.p_x - kept, rm - kept
    src = np.flatnonzero(problem.p_x >= rm).tolist()
    dst = np.flatnonzero(problem.p_x < rm).tolist()
    if not src or not dst:  # the marginals agree up to rounding: any split spans
        src, dst = list(range(problem.n_x - 1)), [problem.n_x - 1]
    a = b = 0
    for _ in range(problem.n_x - 1):  # a staircase over n_x symbols has n_x - 1 cells
        i, j = src[a], dst[b]
        basis.append(lay.ix_pi(i, j))
        t = min(surplus[i], deficit[j])
        surplus[i] -= t
        deficit[j] -= t
        if (surplus[i] <= deficit[j] and a < len(src) - 1) or b == len(dst) - 1:
            a += 1
        else:
            b += 1
    basis.append(lay.ix_eps)
    return lpmod.LPSolution(
        status="optimal",
        basis=tuple(sorted(basis)),
        dropped_rows=(lay.row_output_marginal(problem.n_x - 1),),
    )


def solve_dp_at(problem: Problem, p_level: float, form: str = "ot") -> SolveReport:
    """Minimal expected distortion at one perception level, with certificates.

    Programs at two levels differ only in the right-hand side, which is
    affine in the level (``level_direction``), so the solve walks it
    (``lp.walk``) from the closed-form optimal basis at P = 1
    (``_crash_basis``), optimal at every level from 1 up, to
    ``p_level``, one basis per piece of the curve in between.
    """
    if form == "ot":
        lp, lay = build_ot_form(problem, p_level)
    elif form == "tv":
        lp, lay = build_tv_form(problem, p_level)
    else:
        raise ProblemError(f"unknown program form {form!r}")
    span = max(1.0, p_level) - p_level
    sol = lpmod.walk(lp, _crash_basis(problem, lay), lay.level_direction, span)[0]

    tol = lpmod.FEAS_TOL * max(1.0, float(np.abs(lp.b).max()))
    estimator = _stochastic_estimator(problem, lay.extract_q(sol.x), tol)
    out = output_distribution(estimator, problem.p_y)

    if form == "ot":
        plan = np.clip(lay.extract_pi(sol.x), 0.0, None)
        coupling = Coupling(plan, problem.p_x, out.p)
        perception = float(np.sum(plan * problem.metric.h))
        dual = _dual_from_ot(problem, sol.dual, p_level)
    else:
        perception = tv_distance(problem.p_x, out)
        # the maximal coupling, optimal under Hamming: it moves exactly the TV
        diag = np.minimum(problem.p_x, out.p)
        moved = np.outer(problem.p_x - diag, out.p - diag) / (perception or 1.0)
        coupling = Coupling(np.diag(diag) + moved, problem.p_x, out.p)
        dual = _dual_from_tv(problem, sol.dual, p_level)

    gap = abs(sol.value - dual.objective)
    return SolveReport(
        p_level=float(p_level),
        value=float(sol.value),
        estimator=estimator,
        coupling=coupling,
        dual=dual,
        gap=gap,
        form=form,
        perception=perception,
        iterations=sol.iterations,
        refactorizations=sol.refactorizations,
        solution=sol,
    )
