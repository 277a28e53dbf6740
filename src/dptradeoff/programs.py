"""Linear programs whose optimum is the distortion-perception value D(P).

One flow program with two arc lists.  By Kantorovich-Rubinstein
duality the transport budget between the source marginal ``p_x`` and
the output marginal ``r`` is a flow between symbols: mass leaves a
symbol along arcs of weight ``h``, and ``W1(p_x, r)`` is the least
weight of a flow that turns ``p_x`` into ``r``.  Variables are the
joint masses ``w[xhat, y] = p_y[y] q[xhat, y]`` of the estimator, one
flow per arc and one slack.  Rows are, in order: one per observation,
``sum_xhat w[xhat, y] = p_y[y]``; one balance row per node,
``r[i] + out(i) - in(i) = p_x[i]`` with ``r[i] = sum_y w[i, y]`` (a
centre node has no output mass and no source mass), but for the last
symbol, whose row is the stochasticity rows less the other node rows;
and the budget ``h . f + slack = P``.  So the rows are independent.
Off the budget row every entry is 0 or +-1, and the cost of
``w[xhat, y]`` is ``conditional[xhat, y]``.

* ``build_ot_form`` ("ot"), any metric: an arc for every ordered pair
  of distinct symbols, of weight ``h[i, j]``.
* ``build_tv_form`` ("tv"), the Hamming metric only: a star, one arc
  from each symbol to a centre node and one back, each of weight 1/2,
  so mass moved between two symbols costs 1 and the budget is total
  variation.

The dual has one multiplier per row, and the last symbol's potential,
whose row is left out, is 0.  Dual constraint j is program column j:
``stochasticity[y] + potential[xhat] <= conditional[xhat, y]`` per
joint mass, ``potential[i] - potential[j] <= price * weight`` per arc,
and ``price >= 0``.  The budget row's multiplier, negated, is that
nonnegative price; it enters the dual objective as ``-price * P``, so
optimal bases directly expose the local slope of D(P).  The star's
symbol potentials are feasible for the complete graph's dual, whose
rows ``_flow_dual`` reads off the built program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import ProblemError, SolverError
from .model import (
    Coupling,
    Estimator,
    Problem,
    _arc_place,
    _estimator_stack,
    _flow_plan,
    _transfer_tree,
    check_level,
    output_distribution,
)


@dataclass(frozen=True, eq=False)
class FlowLayout:
    """Index bookkeeping for the flow program.

    Nodes are the ``n_x`` symbols and, past them, any centre node; arc
    ``k`` runs from node ``tail[k]`` to node ``head[k]``.  Columns: the
    joint masses ``w[xhat, y]``, the arcs, the slack.  Rows: the
    stochasticity rows, the node rows but the last symbol's, the budget.
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
        return self.n_y + self.n_nodes

    def ix_w(self, xhat, y):
        return xhat * self.n_y + y

    def ix_arc(self, tail, head):
        """The arc ``tail -> head``'s column, or each arc's of two arrays: its
        place in the arc list, past the joint masses.  KeyError for an arc
        the list does not hold."""
        return self.n_x * self.n_y + _arc_place(self.n_nodes, self.tail, self.head, tail, head)

    @property
    def ix_slack(self) -> int:
        return self.n_vars - 1

    def extract_w(self, x: np.ndarray) -> np.ndarray:
        """The joint-mass block of a point, or of each row of a stack of points."""
        return x[..., : self.n_x * self.n_y].reshape(*x.shape[:-1], self.n_x, self.n_y)

    def extract_flow(self, x: np.ndarray) -> np.ndarray:
        return x[self.n_x * self.n_y : -1]


def _build(problem: Problem, p_level: float, n_nodes: int, tail, head, weight):
    """The flow program over the arcs ``tail[k] -> head[k]`` of ``weight[k]``.

    Cost vector: conditional reconstruction cost on the joint masses,
    zero on the arcs and the slack.  Right-hand side: observation
    marginal, source marginal but its last entry (0 at a centre node),
    and the perception level (the only P-dependent entry, so the
    right-hand side is affine in P).  The last symbol's node entries are
    written to a spare row past the budget, which the program leaves out.
    """
    check_level(p_level)
    n_x, n_y = problem.n_x, problem.n_y
    lay = FlowLayout(n_x, n_y, n_nodes, tail, head)
    nq = n_x * n_y
    cols, arcs = np.arange(nq), nq + np.arange(tail.size)
    node = n_y + np.arange(n_nodes) - (np.arange(n_nodes) >= n_x)  # a centre fills the gap
    node[n_x - 1] = lay.n_cons  # the spare row

    a = np.zeros((lay.n_cons + 1, lay.n_vars))
    a[cols % n_y, cols] = 1.0
    a[node[cols // n_y], cols] = 1.0
    a[node[tail], arcs] = 1.0
    a[node[head], arcs] = -1.0
    a[-2, nq:-1] = weight
    a[-2, -1] = 1.0

    b = np.concatenate([problem.p_y, problem.p_x[:-1], np.zeros(n_nodes - n_x), [p_level]])
    c = np.concatenate([problem.conditional.reshape(-1), np.zeros(tail.size + 1)])
    return lpmod.StandardLP(a[:-1], b, c), lay


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
        """The flow dual's coordinates (stochasticity, potential[:-1], price), as
        ``_flow_dual`` orders them."""
        return np.concatenate([self.stochasticity, self.potential[:-1], [self.perception_price]])


def _dual(problem: Problem, raw: np.ndarray, p_level: float) -> DualSolution:
    """Block duals from the row duals of either arc list.

    The last symbol, which has no row, takes potential 0; a centre
    node's dual multiplies a zero right-hand side and is left out.
    """
    n_x, n_y = problem.n_x, problem.n_y
    stoch = raw[:n_y].copy()
    potential = np.append(raw[n_y : n_y + n_x - 1], 0.0)
    price = -float(raw[-1])
    objective = float(stoch @ problem.p_y + potential @ problem.p_x - price * p_level)
    return DualSolution(stoch, potential, price, objective)


def _flow_dual(lp: lpmod.StandardLP) -> lpmod.HPolyhedron:
    """The dual ``{u : g u <= h}`` of a built flow program.

    Built at P = 0, ``u . lp.b`` is the intercept of u's dual objective
    ``intercept - price * P``.  ``g`` is the transpose of ``lp.a``, so
    row j is column j's constraint ``u . a[:, j] <= c[j]``: for a joint
    mass, ``stochasticity[y] + potential[xhat] <= conditional[xhat, y]``.
    The perception coordinate is negated into the price.
    """
    g = np.ascontiguousarray(lp.a.T)  # row-major, as the vertex walk gathers rows
    g[:, -1] = 0.0 - g[:, -1]
    return lpmod.HPolyhedron(g, lp.c)


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
    P = 1 to ``p_level`` plus those of the primal confirmation at
    ``p_level``, and ``refactorizations`` the times the walk factored its
    basis afresh; both read ``solution``.
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

    @property
    def iterations(self) -> int:
        return self.solution.iterations

    @property
    def refactorizations(self) -> int:
        return self.solution.refactorizations


def _stochastic_estimator(problem: Problem, w: np.ndarray, tol: float) -> list[Estimator]:
    """Column-stochastic estimators from a stack ``w[k, xhat, y]`` of joint-mass blocks.

    One array pass applies the rules, and raises the errors, for all k
    blocks at once: ``solve_dp_at`` passes a stack of one, and a curve
    (``curve._sweep``) the blocks of the path entries at its breakpoints, so its
    estimators come from one stacked pass, and ``model._estimator_stack``
    checks them once more, as ``Estimator`` does, without a copy.  The
    solver meets each row ``sum(w[:, y]) = p_y`` within ``tol``, the
    program's ``lp.feas_tol``, so negative entries and residuals are
    judged against ``tol`` in mass units.  A column with positive mass
    is divided by it; one that is all zeros, as a symbol with less mass
    than ``tol`` may come back, takes the column of the unconstrained
    optimum, which moves the distortion and the output law by at most
    that symbol's mass.
    """
    if (w < -tol).any():
        raise SolverError("estimator entry negative beyond the solver tolerance")
    q = np.maximum(w, 0.0)
    mass = q.sum(axis=1)
    residual = abs(mass - problem.p_y)
    if (residual > tol).any():
        raise SolverError(
            f"estimator column off stochastic by mass {residual.max():g} (tolerance {tol:g})"
        )
    k, y = (mass == 0.0).nonzero()  # an all-zero column takes the MAP column
    mass[k, y] = 1.0
    q /= mass[:, None, :]
    q[k, :, y] = problem.minimum[1].q[:, y].T
    return _estimator_stack(q)


def _crash_basis(problem: Problem, lay: FlowLayout) -> list[int]:
    """The optimal basis of the program at P = 1, in closed form, as sorted columns.

    Every metric entry is at most 1, so at P = 1 the budget is slack and
    the MAP estimator (``problem.minimum``, same ties) is optimal.  Its
    basis prices only the stochasticity rows, at the cheapest conditional
    cost, so every reduced cost is nonnegative whatever the level.

    The basis is the MAP estimator entries, a spanning tree of arcs that
    carries the source marginal to the MAP output marginal ``r``, and
    the budget slack, which at P = 1 is at least ``1 - TV(p_x, r)``.
    Over every pair of symbols the tree is ``model._transfer_tree``, a
    north-west-corner staircase from the source surplus to the output
    deficit, ``n_x - 1`` arcs, so the mass it moves is exactly
    ``TV(p_x, r)``, its least weight under Hamming and nearly so under
    another metric, and the walk's first pivot is where the budget
    starts to bind.  Over a star it is one arc per symbol: from the
    centre to a symbol with ``r >= p_x``, to the centre from the others.
    """
    n_x = problem.n_x
    picks = problem.cost.argmin(axis=0)
    rm = np.bincount(picks, weights=problem.p_y, minlength=n_x)
    if lay.n_nodes > n_x:  # the star: the centre is node n_x
        up, symbols = rm >= problem.p_x, np.arange(n_x)
        tail, head = np.where(up, n_x, symbols), np.where(up, symbols, n_x)
    else:
        tail, head = _transfer_tree(problem.p_x.tolist(), rm.tolist())
    map_cols = lay.ix_w(picks, np.arange(problem.n_y))
    return np.sort(np.concatenate([map_cols, lay.ix_arc(tail, head), [lay.ix_slack]])).tolist()


def solve_dp_at(problem: Problem, p_level: float, form: str = "ot") -> SolveReport:
    """Minimal expected distortion at one perception level, with certificates.

    Programs at two levels differ only in the right-hand side's last
    entry, the level, so the solve walks it (``lp.walk``) from the
    closed-form optimal basis at P = 1
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
    sol = lpmod.walk(lp, _crash_basis(problem, lay), span)[0]

    (estimator,) = _stochastic_estimator(problem, lay.extract_w(sol.x)[None], lp.feas_tol)
    out = np.maximum(lay.extract_w(sol.x), 0.0).sum(axis=1)
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
        perception=float((plan * problem.metric.h).sum()),
        solution=sol,
    )
