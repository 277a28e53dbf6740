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
  perception index is total variation.  The absolute-value constraint is
  expanded into one inequality per sign pattern over the source alphabet
  (the two constant patterns are vacuous and omitted), carried in
  standard form through slack variables.

The dual of the transport form lives in variables grouped by constraint
block: one multiplier per stochasticity row, per source-marginal row,
per output-marginal row, and one price on the perception budget.  The
price enters the dual objective as ``-price * P``, so optimal bases
directly expose the local slope of D(P).  The output-marginal block
carries a one-dimensional gauge freedom; everything here reports duals
in the chart that pins its last coordinate to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import ProblemError, SolverError
from .model import Coupling, Estimator, Problem, check_level, output_distribution, tv_distance


def sign_patterns(n_x: int) -> np.ndarray:
    """All +/-1 vectors over the source alphabet except the two constant ones.

    Deterministic order: pattern ``i`` (for i = 1 .. 2^n_x - 2) assigns
    +1 to coordinate x when bit x of i is set, else -1.
    """
    if n_x > 12:
        raise ProblemError("sign expansion limited to alphabets of size <= 12")
    count = 2**n_x
    out = np.empty((count - 2, n_x))
    for code in range(1, count - 1):
        bits = (code >> np.arange(n_x)) & 1
        out[code - 1] = np.where(bits == 1, 1.0, -1.0)
    return out


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

    def row_stochastic(self, y: int) -> int:
        return y

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
    """Index bookkeeping for the sign-form program."""

    n_x: int
    n_y: int
    patterns: np.ndarray  # (2^n_x - 2, n_x)

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]

    @property
    def n_vars(self) -> int:
        return self.n_x * self.n_y + self.n_patterns

    @property
    def n_cons(self) -> int:
        return self.n_y + self.n_patterns

    def ix_q(self, xhat: int, y: int) -> int:
        return xhat * self.n_y + y

    def ix_slack(self, i: int) -> int:
        return self.n_x * self.n_y + i

    @property
    def level_direction(self) -> np.ndarray:
        """The right-hand side's change per unit of level: 2 on every pattern row."""
        return np.concatenate([np.zeros(self.n_y), np.full(self.n_patterns, 2.0)])

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
    """Sign-form program (Hamming metric only) in equality standard form."""
    check_level(p_level)
    if not problem.metric.is_hamming:
        raise ProblemError("the sign form requires the Hamming ground metric")
    n_x, n_y = problem.n_x, problem.n_y
    pats = sign_patterns(n_x)
    lay = TvFormLayout(n_x, n_y, pats)
    p_y, p_x = problem.p_y, problem.p_x

    a = np.zeros((lay.n_cons, lay.n_vars))
    nq = n_x * n_y
    a[:n_y, :nq] = np.kron(np.ones((1, n_x)), np.diag(p_y))
    for i, s in enumerate(pats):
        a[n_y + i, :nq] = -(s[:, None] * p_y[None, :]).reshape(-1)
        a[n_y + i, lay.ix_slack(i)] = 1.0
    b = np.concatenate([p_y, 2.0 * p_level - pats @ p_x])
    c = np.concatenate([problem.cost.reshape(-1), np.zeros(lay.n_patterns)])
    return lpmod.StandardLP(a, b, c), lay


# ---------------------------------------------------------------------------
# Dual handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DualSolution:
    """Block-split dual point, pinned to the gauge with last output dual 0.

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
        """Chart coordinates (stochasticity, source, output[:-1], price)."""
        return np.concatenate(
            [
                self.stochasticity,
                self.source_marginal,
                self.output_marginal[:-1],
                [self.perception_price],
            ]
        )

    def feasibility_violation(self, problem: Problem) -> float:
        """Largest violation of the two dual inequality families."""
        cond = problem.conditional
        first = (
            self.stochasticity[None, :]
            + self.output_marginal[:, None]
            - cond
        )
        second = (
            self.source_marginal[:, None]
            - self.output_marginal[None, :]
            - problem.metric.h * self.perception_price
        )
        return float(max(first.max(), second.max(), -self.perception_price))


def _pin_gauge(stoch, source, output, price):
    """Shift along the dual null direction so the last output dual is 0.

    Adding t to every stochasticity dual while subtracting t from the
    source and output blocks preserves both inequality families and the
    objective; we spend that freedom on a reproducible chart.
    """
    shift = output[-1]
    return stoch + shift, source - shift, output - shift, price


def _dual_from_ot(problem: Problem, raw: np.ndarray, p_level: float) -> DualSolution:
    n_x, n_y = problem.n_x, problem.n_y
    stoch = raw[:n_y].copy()
    source = raw[n_y : n_y + n_x].copy()
    output = raw[n_y + n_x : n_y + 2 * n_x].copy()
    price = -float(raw[-1])
    stoch, source, output, price = _pin_gauge(stoch, source, output, price)
    objective = float(stoch @ problem.p_y + source @ problem.p_x - price * p_level)
    return DualSolution(stoch, source, output, price, objective)


def _dual_from_tv(
    problem: Problem, raw: np.ndarray, lay: TvFormLayout, p_level: float
) -> DualSolution:
    n_y = problem.n_y
    stoch = raw[:n_y].copy()
    pattern_duals = raw[n_y:]
    output = -(pattern_duals @ lay.patterns)
    price = -2.0 * float(pattern_duals.sum())
    # the sign-pattern duals bound the output-block spread by the price,
    # so the tightest source dual equals the output dual componentwise
    source = np.min(problem.metric.h * price + output[None, :], axis=1)
    stoch, source, output, price = _pin_gauge(stoch, source, output, price)
    objective = float(stoch @ problem.p_y + source @ problem.p_x - price * p_level)
    return DualSolution(stoch, source, output, price, objective)


def dual_polyhedron(problem: Problem) -> lpmod.HPolyhedron:
    """H-representation of the dual feasible set in the pinned chart.

    Coordinates: (stochasticity[n_y], source[n_x], output[n_x - 1],
    price), dimension n_y + 2 n_x.  Rows, in order: one per
    (reconstruction, observation) pair, one per (source, reconstruction)
    pair, and the price nonnegativity row.
    """
    n_x, n_y = problem.n_x, problem.n_y
    dim = n_y + 2 * n_x
    rows = n_x * n_y + n_x * n_x + 1
    g = np.zeros((rows, dim))
    h = np.zeros(rows)
    cond = problem.conditional
    metric = problem.metric.h

    r = 0
    for xhat in range(n_x):
        for y in range(n_y):
            g[r, y] = 1.0
            if xhat < n_x - 1:
                g[r, n_y + n_x + xhat] = 1.0
            h[r] = cond[xhat, y]
            r += 1
    for x in range(n_x):
        for xhat in range(n_x):
            g[r, n_y + x] = 1.0
            if xhat < n_x - 1:
                g[r, n_y + n_x + xhat] = -1.0
            g[r, dim - 1] = -metric[x, xhat]
            h[r] = 0.0
            r += 1
    g[r, dim - 1] = -1.0
    return lpmod.HPolyhedron(g, h)


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
    was read from; passed back as ``solve_dp_at(..., start=report)``, its
    basis starts the walk to another level.  ``iterations`` counts the
    pivots of the walk from the start's level to ``p_level`` plus those
    of the phase-two confirmation at ``p_level``, and
    ``refactorizations`` the times the walk factored its basis afresh.
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

    Transport form: the MAP estimator entries, the ``2 n_x - 1`` cells a
    north-west-corner walk visits on a plan from the source marginal to
    the MAP output marginal, and the budget slack.  The walk is a
    staircase from the first cell to the last, so its cells span the
    source and output rows whatever the rounding.  The last output
    row depends on the others and is dropped, which prices it at 0, the
    pinned chart.  Sign form: the MAP estimator entries and every pattern
    slack; at P = 1 slack ``s`` is ``2 + s.(out - p_x) >= 0``.
    """
    picks = np.argmin(problem.cost, axis=0)
    basis = [lay.ix_q(int(xhat), y) for y, xhat in enumerate(picks)]
    if isinstance(lay, TvFormLayout):
        basis += [lay.ix_slack(i) for i in range(lay.n_patterns)]
        return lpmod.LPSolution(status="optimal", basis=tuple(sorted(basis)))
    last = problem.n_x - 1
    rp = problem.p_x.copy()
    rm = np.bincount(picks, weights=problem.p_y, minlength=problem.n_x)
    i = j = 0
    while True:
        basis.append(lay.ix_pi(i, j))
        if i == j == last:
            break
        t = min(rp[i], rm[j])
        rp[i] -= t
        rm[j] -= t
        if (rp[i] <= rm[j] and i < last) or j == last:
            i += 1
        else:
            j += 1
    basis.append(lay.ix_eps)
    return lpmod.LPSolution(
        status="optimal",
        basis=tuple(sorted(basis)),
        dropped_rows=(lay.row_output_marginal(last),),
    )


def solve_dp_at(
    problem: Problem, p_level: float, form: str = "ot", *, start: SolveReport | None = None
) -> SolveReport:
    """Minimal expected distortion at one perception level, with certificates.

    Programs at two levels differ only in the right-hand side, which is
    affine in the level (``level_direction``), so the solve walks it
    (``lp.walk``) from a level with a known optimal basis to ``p_level``,
    one basis per piece of the curve in between.  ``start`` is a report
    of the same problem and form at another level; without it the walk
    starts at the closed-form optimal basis at P = 1 (``_crash_basis``),
    optimal at every level from 1 up.  A start from the other form or a
    problem of another shape raises ProblemError; one from another
    problem of the same shape raises SolverError unless its basis is
    optimal at its level here too.
    """
    if start is not None and (start.form, start.estimator.q.shape) != (form, problem.cost.shape):
        raise ProblemError(
            f"start comes from a {start.estimator.q.shape} problem in the {start.form!r} form, "
            f"not a {problem.cost.shape} one in the {form!r} form"
        )
    if form == "ot":
        lp, lay = build_ot_form(problem, p_level)
    elif form == "tv":
        lp, lay = build_tv_form(problem, p_level)
    else:
        raise ProblemError(f"unknown program form {form!r}")

    if start is None:
        first, level = _crash_basis(problem, lay), max(1.0, p_level)
    else:
        first, level = start.solution, start.p_level
    sol = lpmod.walk(lp, first, lay.level_direction, level - p_level)[0]

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
        dual = _dual_from_tv(problem, sol.dual, lay, p_level)

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
