"""Linear programs whose optimum is the distortion-perception value D(P).

One flow program with two arc lists.  By Kantorovich-Rubinstein
duality the transport budget between the source marginal ``p_x`` and
the output marginal ``r`` is a flow between symbols: mass leaves a
symbol along arcs of weight ``h``, and ``W1(p_x, r)`` is the least
weight of a flow that turns ``p_x`` into ``r``.  Variables are the
estimator entries, one flow per arc and one slack.  Rows are, in order:
column stochasticity (scaled by the observation marginal); one balance
row per node, ``r[i] + out(i) - in(i) = p_x[i]`` (a centre node has no
output mass and no source mass); and the budget ``h . f + slack = P``.

* ``build_ot_form`` ("ot"), any metric: an arc for every ordered pair
  of distinct symbols, of weight ``h[i, j]``.
* ``build_tv_form`` ("tv"), the Hamming metric only: a star, one arc
  from each symbol to a centre node and one back, each of weight 1/2,
  so mass moved between two symbols costs 1 and the budget is total
  variation.

The node rows add up to the stochasticity rows, so one of them depends
on the others: every walk starts at a basis that drops the last
symbol's (``_crash_basis``), which prices it at 0.  The dual is read
off the kept rows, one multiplier per row, and dual constraint j is
program column j: ``stochasticity[y] + potential[xhat] <=
conditional[xhat, y]`` per estimator entry, ``potential[i] -
potential[j] <= price * weight`` per arc, and ``price >= 0``.  The
budget row's multiplier, negated, is that nonnegative price; it enters
the dual objective as ``-price * P``, so optimal bases directly expose
the local slope of D(P).  The star's symbol potentials are feasible for
the complete graph's dual, whose rows ``dual_polyhedron`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .errors import ProblemError, SolverError
from .model import (
    Coupling,
    Estimator,
    Problem,
    _estimator_stack,
    _flow_plan,
    check_level,
    output_distribution,
)


@dataclass(frozen=True, eq=False)
class FlowLayout:
    """Index bookkeeping for the flow program.

    Nodes are the ``n_x`` symbols and, past them, any centre node; arc
    ``k`` runs from node ``tail[k]`` to node ``head[k]``.  Columns: the
    estimator block ``q[xhat, y]``, the arcs, the slack.  Rows: the
    stochasticity rows, the node rows, the budget.
    """

    n_x: int
    n_y: int
    n_nodes: int
    tail: np.ndarray
    head: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.n_x * self.n_y + self.tail.size + 1

    @property
    def n_cons(self) -> int:
        return self.n_y + self.n_nodes + 1

    def ix_q(self, xhat: int, y: int) -> int:
        return xhat * self.n_y + y

    def ix_arc(self, tail: int, head: int) -> int:
        return self.n_x * self.n_y + self._arc_index[tail, head]

    @cached_property
    def _arc_index(self) -> dict[tuple[int, int], int]:
        """Arc number by (tail, head) node pair."""
        return {pair: k for k, pair in enumerate(zip(self.tail.tolist(), self.head.tolist()))}

    @property
    def ix_slack(self) -> int:
        return self.n_vars - 1

    @property
    def dropped_row(self) -> int:
        """The last symbol's node row, which depends on the others."""
        return self.n_y + self.n_x - 1

    @property
    def level_direction(self) -> np.ndarray:
        """The right-hand side's change per unit of perception level."""
        return (np.arange(self.n_cons) == self.n_cons - 1).astype(float)

    def extract_q(self, x: np.ndarray) -> np.ndarray:
        """The estimator block of a point, or of each row of a stack of points."""
        return x[..., : self.n_x * self.n_y].reshape(*x.shape[:-1], self.n_x, self.n_y)

    def extract_flow(self, x: np.ndarray) -> np.ndarray:
        return x[self.n_x * self.n_y : -1]


def _build(problem: Problem, p_level: float, n_nodes: int, tail, head, weight):
    """The flow program over the arcs ``tail[k] -> head[k]`` of ``weight[k]``.

    Cost vector: reconstruction cost on the estimator block, zero on the
    arcs and the slack.  Right-hand side: observation marginal, source
    marginal (0 at a centre node), and the perception level (the only
    P-dependent entry, so the right-hand side is affine in P).
    """
    check_level(p_level)
    n_x, n_y = problem.n_x, problem.n_y
    lay = FlowLayout(n_x, n_y, n_nodes, tail, head)
    p_y, nq = problem.p_y, n_x * n_y
    arcs = nq + np.arange(tail.size)

    a = np.zeros((lay.n_cons, lay.n_vars))
    a[:n_y, :nq] = np.tile(np.diag(p_y), n_x)
    a[n_y : n_y + n_x, :nq] = np.kron(np.eye(n_x), p_y[None, :])
    a[n_y + tail, arcs] = 1.0
    a[n_y + head, arcs] = -1.0
    a[-1, nq:-1] = weight
    a[-1, -1] = 1.0

    b = np.concatenate([p_y, problem.p_x, np.zeros(n_nodes - n_x), [p_level]])
    c = np.concatenate([problem.cost.reshape(-1), np.zeros(tail.size + 1)])
    return lpmod.StandardLP(a, b, c), lay


def build_ot_form(problem: Problem, p_level: float) -> tuple[lpmod.StandardLP, FlowLayout]:
    """The flow program over every ordered pair of distinct symbols, any metric."""
    tail, head = np.nonzero(~np.eye(problem.n_x, dtype=bool))
    return _build(problem, p_level, problem.n_x, tail, head, problem.metric.h[tail, head])


def build_tv_form(problem: Problem, p_level: float) -> tuple[lpmod.StandardLP, FlowLayout]:
    """The flow program over a star (Hamming metric only).

    Arcs: centre to each symbol, then each symbol to the centre, each of
    weight 1/2; the centre is node ``n_x``.
    """
    if not problem.metric.is_hamming:
        raise ProblemError('the star form ("tv") requires the Hamming ground metric')
    n_x = problem.n_x
    symbols, centre = np.arange(n_x), np.full(n_x, n_x)
    tail, head = np.concatenate([centre, symbols]), np.concatenate([symbols, centre])
    return _build(problem, p_level, n_x + 1, tail, head, np.full(2 * n_x, 0.5))


# ---------------------------------------------------------------------------
# Dual handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DualSolution:
    """Block-split dual point of the flow program, with last potential 0.

    Fields, by the primal rows they price:
        stochasticity: one value per observation symbol.
        potential: one value per symbol's node row (last is 0).
        perception_price: nonnegative price of the perception budget; the
            local slope of D(P) is minus this price.
    """

    stochasticity: np.ndarray
    potential: np.ndarray
    perception_price: float
    objective: float

    def coords(self) -> np.ndarray:
        """``dual_polyhedron``'s coordinates (stochasticity, potential[:-1], price)."""
        return np.concatenate([self.stochasticity, self.potential[:-1], [self.perception_price]])


def _dual(problem: Problem, raw: np.ndarray, p_level: float) -> DualSolution:
    """Block duals from the row duals of either arc list.

    The walk prices the dropped row, the last symbol's, at 0; a centre
    node's dual multiplies a zero right-hand side and is left out.
    """
    n_x, n_y = problem.n_x, problem.n_y
    stoch = raw[:n_y].copy()
    potential = raw[n_y : n_y + n_x].copy()
    price = -float(raw[-1])
    objective = float(stoch @ problem.p_y + potential @ problem.p_x - price * p_level)
    return DualSolution(stoch, potential, price, objective)


def _flow_dual(lp: lpmod.StandardLP, lay: FlowLayout) -> tuple[lpmod.HPolyhedron, np.ndarray]:
    """The dual of a built flow program over its kept rows.

    Returns the polyhedron ``{u : g u <= h}`` and the kept rows' ``b``;
    built at P = 0, ``u . b`` is the intercept of u's dual objective
    ``intercept - price * P``.  ``g`` is the transpose of the kept rows,
    so row j is column j's constraint ``w . a[:, j] <= c[j]`` on the row
    duals w, with two changes of units: an estimator column's row and
    bound are divided by its observation mass, so they read
    ``stochasticity[y] + potential[xhat] <= conditional[xhat, y]``, and
    the perception coordinate is negated into the price.
    """
    kept = np.arange(lay.n_cons) != lay.dropped_row
    mass = np.ones(lay.n_vars)
    mass[: lay.n_x * lay.n_y] = np.tile(lp.b[: lay.n_y], lay.n_x)
    # row-major, as the vertex walk gathers rows; + 0.0 clears the negated blocks' -0.0
    g = np.ascontiguousarray(lp.a[kept].T) / mass[:, None] + 0.0
    g[:, -1] = 0.0 - g[:, -1]
    return lpmod.HPolyhedron(g, lp.c / mass), lp.b[kept]


def dual_polyhedron(problem: Problem) -> lpmod.HPolyhedron:
    """H-representation of the complete graph's flow dual over its kept rows.

    Coordinates: (stochasticity[n_y], potential[n_x - 1], price),
    dimension n_y + n_x: the last symbol's row is dropped, so its
    potential is pinned to 0.  Rows follow the program's columns: one
    per (reconstruction, observation) pair, one per ordered pair of
    distinct symbols, and the price nonnegativity row.
    """
    return _flow_dual(*build_ot_form(problem, 0.0))[0]


# ---------------------------------------------------------------------------
# Single-level solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything produced by one solve at a fixed perception level.

    ``perception`` certifies estimator feasibility: it is the transported
    mass of the returned coupling, an upper bound on the true transport
    distance (under Hamming, the total variation up to rounding).
    ``solution`` is the optimal LP solution the report
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


def _stochastic_estimator(problem: Problem, q: np.ndarray, tol: float) -> list[Estimator]:
    """Column-stochastic estimators from a stack ``q[k, xhat, y]`` of estimator blocks.

    One array pass applies the rules, and raises the errors, for all k
    blocks at once: ``solve_dp_at`` passes a stack of one, and a curve
    (``curve._sweep``) the blocks of the path entries at its breakpoints, so its
    estimators come from one stacked pass, and ``model._estimator_stack``
    checks them once more, as ``Estimator`` does, without a copy.  The
    solver meets each
    stochasticity row ``p_y * sum(q[:, y]) = p_y`` within ``tol`` in
    mass units, so a column's own sum may be off by ``tol / p_y``: the
    column of a symbol with almost no mass can come back as zeros.
    Residuals are judged in mass units; a column with a positive sum is
    renormalized, and one that sums to about 0 takes the column of the
    unconstrained optimum, which moves the distortion and the output
    law by at most that symbol's mass.
    """
    p_y = problem.p_y
    if np.any(p_y * q < -tol):
        raise SolverError("estimator entry negative beyond the solver tolerance")
    q = np.clip(q, 0.0, None)
    colsum = q.sum(axis=1)
    residual = p_y * np.abs(colsum - 1.0)
    if np.any(residual > tol):
        raise SolverError(
            f"estimator column off stochastic by mass {residual.max():g} (tolerance {tol:g})"
        )
    empty = colsum <= tol
    q /= np.where(empty, 1.0, colsum)[:, None, :]
    k, y = empty.nonzero()
    q[k, :, y] = problem.minimum[1].q[:, y].T
    return _estimator_stack(q)


def _crash_basis(problem: Problem, lay: FlowLayout) -> lpmod.LPSolution:
    """The optimal basis of the program at P = 1, in closed form.

    Every metric entry is at most 1, so at P = 1 the budget is slack and
    the MAP estimator (``problem.minimum``, same ties) is optimal.  Its
    basis prices only the stochasticity rows, at the cheapest conditional
    cost, so every reduced cost is nonnegative whatever the level.

    The basis is the MAP estimator entries, a spanning tree of arcs that
    carries the source marginal to the MAP output marginal ``r``, and
    the budget slack, which at P = 1 is at least ``1 - TV(p_x, r)``.
    The tree splits the symbols into the source surplus (``p_x >= r``; a
    symbol with ``p_x == r`` joins with zero mass) and the output
    deficit; if a side is empty, the marginals agree up to rounding and
    the last symbol alone forms the deficit side.  Over every pair of
    symbols it is a north-west-corner staircase from the surplus to the
    deficit, ``n_x - 1`` arcs, so the mass it moves is exactly
    ``TV(p_x, r)``, its least weight under Hamming and nearly so under
    another metric, and the walk's first pivot is where the budget
    starts to bind.  Over a star it is one arc per symbol: from the
    centre to a symbol with ``r >= p_x``, to the centre from the others.
    The last symbol's row depends on the others and is dropped, which
    prices it at 0.
    """
    picks = np.argmin(problem.cost, axis=0)
    basis = [lay.ix_q(int(xhat), y) for y, xhat in enumerate(picks)]
    rm = np.bincount(picks, weights=problem.p_y, minlength=problem.n_x)
    if lay.n_nodes > lay.n_x:  # the star: the centre is node n_x
        arcs = [(lay.n_x, i) if up else (i, lay.n_x) for i, up in enumerate(rm >= problem.p_x)]
    else:
        surplus, deficit = np.clip(problem.p_x - rm, 0.0, None), np.clip(rm - problem.p_x, 0.0, None)
        src = np.flatnonzero(problem.p_x >= rm).tolist()
        dst = np.flatnonzero(problem.p_x < rm).tolist()
        if not src or not dst:  # the marginals agree up to rounding: any split spans
            src, dst = list(range(problem.n_x - 1)), [problem.n_x - 1]
        arcs, a, b = [], 0, 0
        for _ in range(problem.n_x - 1):  # a staircase over n_x symbols has n_x - 1 arcs
            i, j = src[a], dst[b]
            arcs.append((i, j))
            t = min(surplus[i], deficit[j])
            surplus[i] -= t
            deficit[j] -= t
            if (surplus[i] <= deficit[j] and a < len(src) - 1) or b == len(dst) - 1:
                a += 1
            else:
                b += 1
    basis += [lay.ix_arc(i, j) for i, j in arcs]
    basis.append(lay.ix_slack)
    return lpmod.LPSolution(status="optimal", basis=tuple(sorted(basis)), dropped_rows=(lay.dropped_row,))


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
    (estimator,) = _stochastic_estimator(problem, lay.extract_q(sol.x)[None], tol)
    out = np.clip(lay.extract_q(sol.x), 0.0, None) @ problem.p_y
    plan = _flow_plan(problem.p_x, out, lay.n_nodes, lay.tail, lay.head, lay.extract_flow(sol.x))
    dual = _dual(problem, sol.dual, p_level)
    return SolveReport(
        p_level=float(p_level),
        value=float(sol.value),
        estimator=estimator,
        coupling=Coupling(plan, problem.p_x, output_distribution(estimator, problem.p_y).p),
        dual=dual,
        gap=abs(sol.value - dual.objective),
        form=form,
        perception=float(np.sum(plan * problem.metric.h)),
        iterations=sol.iterations,
        refactorizations=sol.refactorizations,
        solution=sol,
    )
