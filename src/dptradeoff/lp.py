"""Dense linear-programming core.

Solves equality-standard-form programs

    min c.x   subject to   a x = b,  x >= 0

with a two-phase primal simplex under Bland's rule, which cannot cycle.
The tableau is revised (Bertsimas and Tsitsiklis, section 3.3): it keeps
the m-by-m basis inverse and forms only the row and the column of the
m-by-n ``B^-1 A`` that a pivot needs; a pivot updates the inverse and
the basic values together by one rank-one step in place.  It is
refactorized from the basis periodically and at termination (unless no
pivot came after the last refactorization), each time by one LU
solve of ``B [binv | xb | rate] = [I | b | d]``, with the duals read
from that inverse, so the reported point, dual vector, and objective
come from a fresh solve against the original data rather than
accumulated updates.

Phase one is for programs without a known basis.  It detects linearly
dependent equality rows and drops them instead of failing: several
programs in this package carry one dependent row by construction.

``walk`` starts instead from a known optimal basis (and its dropped
rows) and moves ``b`` along a direction to its target, one optimal
basis per interval of the way: the parametric right-hand side of
Bertsimas and Tsitsiklis, *Introduction to Linear Optimization*,
section 5.2.  The reduced costs do not depend on ``b``, so the basis
stays dual feasible, and where a basic value reaches 0 a dual simplex
pivot (section 4.5) replaces it.  The distortion programs always solve
this way: their ``b`` is affine in the perception level, so one level
is a walk from the optimal basis at P = 1, which is known in closed
form (a flow that moves only the surplus, so the walk's first pivot
is where the budget starts to bind), and the whole curve is one walk
from P = 1 to 0.  The walk records each basis and its basic values,
not its point.

Also provided: vertex enumeration for small pointed H-polyhedra
``{p : g p <= h}`` by a walk over the graph of feasible bases with
lexicographic pivoting (Balinski 1961; Avis and Fukuda 1992), used for
dual feasible sets whose vertices determine entire tradeoff curves.  The
walk is breadth first, in blocks of bases, from a vertex basis the
caller already has (for the dual polyhedron, the optimal basis of the
distortion program at P = 0); its budget counts the bases it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, IterationLimitError, ProblemError, SolverError

_RED_COST_TOL = 1e-10  # reduced cost improving, or basic value infeasible, below -tol
_PIVOT_COL_TOL = 1e-11  # smallest admissible pivot magnitude
_RATIO_TIE_TOL = 1e-12  # ratio-test window: ratios within it of the least tie
_DRIVE_OUT_TOL = 1e-9  # smallest row entry that pivots an artificial out of phase one
FEAS_TOL = 1e-9  # residual, in units of the right-hand side, accepted as feasible
_REFRESH_EVERY = 64  # pivots between tableau refactorizations
_TIE_TOL = 1e-9  # relative gap under which two vertex-walk step lengths tie
_BLOCK = 64  # bases the vertex walk takes off its queue as one batch
VERTEX_BUDGET = 10_000  # bases a vertex walk may visit by default


@dataclass(frozen=True, eq=False)
class StandardLP:
    """``min c.x  s.t.  a x = b, x >= 0`` with dense finite data."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1:
            raise SolverError("constraint matrix must be 2-D with at least one column")
        if b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
            raise SolverError("inconsistent LP dimensions")
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise SolverError(f"LP field {name} contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Terminal simplex state.

    For ``optimal`` status, ``x`` is a basic optimal point, ``dual`` the
    multiplier vector recovered from the final basis (zero on dropped
    dependent rows) and ``basis`` the optimal column set.  ``unbounded``
    carries an improving ray (a c-decreasing direction in the recession
    cone); ``infeasible`` carries a Farkas certificate y with
    ``y.a <= 0`` and ``y.b > 0``.  ``iterations`` counts pivots and
    ``refactorizations`` fresh factorizations, phase one's included.
    """

    status: str
    x: np.ndarray | None = None
    value: float = math.nan
    basis: tuple[int, ...] | None = None
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None
    certificate: np.ndarray | None = None
    dropped_rows: tuple[int, ...] = ()
    iterations: int = 0
    refactorizations: int = 0


class _Tableau:
    """Revised tableau: the basis inverse ``binv``, not ``B^-1 A``.

    It keeps ``B^-1 [I | b | d]`` for a right-hand-side direction ``d``
    (zero unless given) as one m-by-(m + 2) block whose columns are the
    views ``binv``, the basic values ``xb`` and ``rate = B^-1 d``, so a
    pivot updates all three by one rank-one step in place.  It also keeps
    the basis as an integer array, the duals ``y = c_B B^-1`` and the
    reduced costs ``red``, and forms a row or a column of ``B^-1 A`` when
    a pivot rule asks.  A row is set to exactly 0 at the other basic
    columns and 1 at its own: the product leaves rounding of about 1e-11
    there, which passes ``_PIVOT_COL_TOL``.  ``refactors`` counts the
    calls of ``refactor``, which factors the basis afresh, once.
    """

    def __init__(self, a, b, c, basis, d=None):
        self.a = a
        self.b = b
        self.c = c
        self.d = np.zeros_like(b) if d is None else d
        self.basis = np.array(basis, dtype=np.intp)
        self.m, self.n = a.shape
        self.refactors = 0
        self.refactor()

    def refactor(self):
        rhs = np.column_stack([np.eye(self.m), self.b, self.d])
        try:
            self.block = np.linalg.solve(self.a[:, self.basis], rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular simplex basis") from exc
        self.binv, self.xb, self.rate = self.block[:, : self.m], self.block[:, -2], self.block[:, -1]
        self.y = self.c[self.basis] @ self.binv
        self.red = self.c - self.y @ self.a
        self.refactors += 1
        self.fresh = True  # no pivot since the last refactorization
        self._row = None  # (r, row r of B^-1 A), until the basis changes

    def row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1 A``, exactly 0 and 1 at the basic columns."""
        if self._row is None or self._row[0] != r:
            line = self.binv[r] @ self.a
            line[self.basis] = 0.0
            line[self.basis[r]] = 1.0
            self._row = (r, line)
        return self._row[1]

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``B^-1 A``."""
        return self.binv @ self.a[:, j]

    def pivot(self, row, col):
        factors = self.column(col)
        piv = factors[row]
        if abs(piv) < _PIVOT_COL_TOL:
            raise SolverError("pivot below numeric tolerance")
        line = self.row(row) / piv  # the pivot row of the next basis
        line[col] = 1.0
        self.block[row] /= piv
        factors[row] = 0.0
        self.block -= factors[:, None] * self.block[row]
        self.red -= self.red[col] * line
        self.basis[row] = col
        self.fresh = False
        self._row = None

    def objective(self) -> float:
        return float(self.c[self.basis] @ self.xb)

    def point(self) -> np.ndarray:
        return basic_point(self.n, self.basis, self.xb)


def basic_point(n: int, basis, values) -> np.ndarray:
    """The n-vector with ``values`` at the columns ``basis`` and 0 elsewhere."""
    x = np.zeros(n)
    x[basis] = values
    return x


def _entering(tab: _Tableau, allowed: np.ndarray) -> int | None:
    basic = np.zeros(tab.n, dtype=bool)
    basic[tab.basis] = True
    mask = allowed & ~basic & (tab.red < -_RED_COST_TOL)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return None
    return int(idx[0])  # Bland: smallest improving index


def _leaving(tab: _Tableau, col: int) -> int | None:
    column = tab.column(col)
    rows = np.nonzero(column > _PIVOT_COL_TOL)[0]
    if rows.size == 0:
        return None
    ratios = np.maximum(tab.xb[rows], 0.0) / column[rows]
    best = ratios.min()
    tied = rows[ratios <= best + _RATIO_TIE_TOL]
    # Bland tie-break: leave the basic variable with the smallest index
    return int(tied[np.argmin(tab.basis[tied])])


def _step(tab: _Tableau, row: int, col: int, iters: int, budget: int) -> int:
    """One counted pivot, with the periodic refactorization and the budget."""
    tab.pivot(row, col)
    iters += 1
    if iters % _REFRESH_EVERY == 0:
        tab.refactor()
    if iters > budget:
        raise IterationLimitError(
            f"pivot budget {budget} exhausted (cycling is impossible "
            "under Bland's rule; consider raising max_iter)"
        )
    return iters


def _optimize(tab: _Tableau, allowed, budget):
    """Run pivots to a terminal state; returns ('optimal'|'unbounded', ray).

    An ``optimal`` tableau is always fresh: its point and duals come from
    a refactorization, not from accumulated updates.
    """
    iters = 0
    while True:
        col = _entering(tab, allowed)
        if col is None and not tab.fresh:
            tab.refactor()  # confirm optimality against fresh data
            col = _entering(tab, allowed)
        if col is None:
            return "optimal", None, iters
        row = _leaving(tab, col)
        if row is None:
            ray = np.zeros(tab.n)
            ray[col] = 1.0
            ray[tab.basis] = -tab.column(col)
            return "unbounded", ray, iters
        iters = _step(tab, row, col, iters, budget)


def _phase_one(a, b, c, feas_tol, budget):
    """A first feasible basis by minimizing the total artificial mass.

    Returns ``(phase_one, tableau, dropped, pivots)``: the phase-one
    tableau, and the phase-two tableau over the rows kept, or None when
    the program is infeasible and ``phase_one.y`` is a Farkas certificate.
    """
    m, n = a.shape
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    allowed1 = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    tab = _Tableau(a1, b, c1, list(range(n, n + m)))
    status, _, iters = _optimize(tab, allowed1, budget)
    if status != "optimal":  # a sum of nonnegatives cannot be unbounded below
        raise SolverError("phase one ended in an impossible state")
    if tab.objective() > feas_tol:
        return tab, None, [], iters

    # drive artificials out of the basis; rows that resist are dependent
    dropped: list[int] = []
    for row in range(m):
        if tab.basis[row] < n:
            continue
        structural = tab.row(row)[:n]
        cand = int(np.argmax(np.abs(structural)))
        if abs(structural[cand]) > _DRIVE_OUT_TOL:
            tab.pivot(row, cand)
        else:
            dropped.append(row)

    keep = [r for r in range(m) if r not in dropped]
    basis = [tab.basis[r] for r in keep]
    if any(col >= n for col in basis):
        raise SolverError("artificial variable survived phase one")
    return tab, _Tableau(a[keep], b[keep], c, basis), dropped, iters


def _dual_bland(tab: _Tableau, rows: np.ndarray) -> tuple[int, int | None]:
    """The leaving row of ``rows`` and the entering column, by the dual Bland rule.

    The row whose basic column has the smallest index leaves; the column
    with the smallest ratio ``red[j] / -row[j]`` enters, ties to the
    smallest index, or None if the row has no negative entry.
    """
    row = int(rows[tab.basis[rows].argmin()])
    line = tab.row(row)
    cols = (line < -_PIVOT_COL_TOL).nonzero()[0]
    if cols.size == 0:
        return row, None
    ratios = np.maximum(tab.red[cols], 0.0) / -line[cols]
    return row, int(cols[(ratios <= ratios.min() + _RATIO_TIE_TOL).argmax()])


def solve(lp: StandardLP, *, max_iter: int | None = None) -> LPSolution:
    """Two-phase simplex on an equality-form program.

    Returns a basic optimal solution with its dual certificate, an
    unbounded status with an improving ray, or an infeasible status with
    a Farkas certificate.  Dependent equality rows are detected in phase
    one and dropped (reported via ``dropped_rows``).
    """
    m, n = lp.m, lp.n
    budget = max_iter if max_iter is not None else 100 * (m + n)

    flip = np.where(lp.b < 0, -1.0, 1.0)
    a = lp.a * flip[:, None]
    b = lp.b * flip
    feas_tol = FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))

    tab1, tab2, dropped, iters1 = _phase_one(a, b, lp.c, feas_tol, budget)
    if tab2 is None:
        return LPSolution(
            status="infeasible",
            value=math.inf,
            certificate=flip * tab1.y,
            iterations=iters1,
            refactorizations=tab1.refactors,
        )

    status, ray, iters2 = _optimize(tab2, np.ones(n, dtype=bool), budget)
    iterations = iters1 + iters2
    refactors = tab1.refactors + tab2.refactors

    if status == "unbounded":
        return LPSolution(
            status="unbounded",
            x=tab2.point(),
            value=-math.inf,
            ray=ray,
            dropped_rows=tuple(dropped),
            iterations=iterations,
            refactorizations=refactors,
        )

    return _optimal(lp, tab2, dropped, iterations, refactors, flip)


def _optimal(lp: StandardLP, tab: _Tableau, dropped, iterations, refactors, flip=1.0) -> LPSolution:
    """The solution of an optimal tableau whose rows are ``lp``'s times ``flip``."""
    x = tab.point()
    residual = float(np.max(np.abs(lp.a @ x - lp.b), initial=0.0))
    if residual > 1e-7 * max(1.0, float(np.abs(lp.b).max(initial=0.0))):
        raise SolverError(f"dropped rows are inconsistent (residual {residual:g})")
    dual = np.zeros(lp.m)
    dual[[r for r in range(lp.m) if r not in dropped]] = tab.y
    dual *= flip
    return LPSolution(
        status="optimal",
        x=x,
        value=float(lp.c @ x),
        basis=tuple(np.sort(tab.basis).tolist()),
        dual=dual,
        dropped_rows=tuple(dropped),
        iterations=iterations,
        refactorizations=refactors,
    )


def walk(
    lp: StandardLP, start: LPSolution, d, span: float, *, max_iter: int | None = None
) -> tuple[LPSolution, list[tuple[float, np.ndarray, np.ndarray, float]]]:
    """Optimal bases of the programs ``b = lp.b + s d`` as s moves from ``span`` to 0.

    ``start`` is an optimal basis, with its dropped rows, at s = ``span``.
    Moving s moves the basic values by ``B^-1 d`` per unit and keeps the
    reduced costs, so a basis stays optimal until a basic value reaches
    0; ``_dual_bland`` over the rows that reach 0 together then pivots as
    the dual simplex just past that point would, so degenerate steps
    cannot cycle.  At s = 0 the basis is refactored against ``lp.b`` and
    phase two confirms it, so a start off by rounding still ends optimal.

    Returns the optimal solution of ``lp`` (``iterations`` counts the
    walk's pivots and phase two's) and ``(s, basis, xb, slope)`` per basis
    in walk order: the s where it stops being optimal (0 for the last),
    its columns in row order and their values there (``basic_point``
    makes the point), and ``c_B B^-1 d``, the slope of the value in s.

    Raises SolverError when ``start`` is not optimal, covers another row
    count, names a column or row out of range, is singular, or is not
    primal and dual feasible at s = ``span``; when a dropped row is
    inconsistent with ``lp.b``; and when the program is infeasible on
    the way.
    """
    m, n = lp.m, lp.n
    budget = max_iter if max_iter is not None else 100 * (m + n)
    if start.status != "optimal":
        raise SolverError(f"a walk needs an optimal start, got {start.status}")
    dropped = sorted(start.dropped_rows)
    if (covered := len(start.basis) + len(dropped)) != m:
        raise SolverError(f"start basis covers {covered} rows, the program has {m}")
    if not all(0 <= j < n for j in start.basis) or not all(0 <= r < m for r in dropped):
        raise SolverError("start basis names a column or row out of range")
    keep = [r for r in range(m) if r not in dropped]
    b, d = lp.b[keep], np.asarray(d, dtype=float)[keep]
    tab = _Tableau(lp.a[keep], b, lp.c, start.basis, d)  # factored against lp.b
    at_zero = tab.xb.copy()
    tab.xb += span * tab.rate
    tab.b = b + span * d
    scale = max(1.0, float(np.abs(lp.b).max(initial=0.0)), float(np.abs(tab.b).max(initial=0.0)))
    for r in dropped:  # a[r] = weights @ a[keep], so b must agree
        weights = lp.a[r, tab.basis] @ tab.binv
        if abs(lp.b[r] - weights @ b) > FEAS_TOL * scale:
            raise SolverError(f"dropped row {r} is inconsistent with b")
    if tab.xb.min(initial=0.0) < -FEAS_TOL * scale or tab.red.min() < -FEAS_TOL:
        raise SolverError("start basis is not optimal where the walk starts")

    way = -math.copysign(1.0, span)  # s moves towards 0
    tol = _RED_COST_TOL * scale
    s, iters, path = span, 0, []
    while True:
        fall = -way * tab.rate  # basic values' fall per unit travelled
        rows = (fall > _PIVOT_COL_TOL).nonzero()[0]
        xr, fr = tab.xb[rows], fall[rows]
        if (xr - abs(s) * fr).min(initial=0.0) >= -tol:  # feasible at s = 0: the last basis
            tab.b = b
            break
        steps = np.maximum(xr, 0.0) / fr
        step = float(steps.min())
        s += way * step
        tab.xb -= step * fall
        tab.b = b + s * d
        path.append((s, tab.basis.copy(), tab.xb.copy(), float(tab.c[tab.basis] @ tab.rate)))
        leave, col = _dual_bland(tab, rows[steps <= step + _RATIO_TIE_TOL])
        if col is None:
            raise SolverError(f"program infeasible past s = {s!r}")
        iters = _step(tab, leave, col, iters, budget)

    if iters:
        tab.refactor()  # against lp.b itself, not the sum of the steps
    else:
        tab.xb[:] = at_zero  # the basis is the start's, factored against lp.b
    status, _, confirm = _optimize(tab, np.ones(n, dtype=bool), budget)
    if status != "optimal":
        raise SolverError(f"phase two ended {status} after the walk")
    sol = _optimal(lp, tab, dropped, iters + confirm, tab.refactors)
    path.append((0.0, tab.basis.copy(), tab.xb.copy(), float(tab.c[tab.basis] @ tab.rate)))
    return sol, path


def dual_check(lp: StandardLP, sol: LPSolution, *, tol: float = 1e-9) -> float:
    """Verify the dual certificate of an optimal solution.

    Returns the duality gap ``|c.x - dual.b|`` and raises if the dual
    vector violates feasibility ``dual.a <= c`` beyond ``tol``.
    """
    if sol.status != "optimal":
        raise SolverError(f"dual_check requires an optimal solution, got {sol.status}")
    slack = sol.dual @ lp.a - lp.c
    worst = int(np.argmax(slack))
    if slack[worst] > tol:
        raise SolverError(
            f"dual vector infeasible at column {worst} (violation {slack[worst]:g})"
        )
    return abs(float(lp.c @ sol.x) - float(sol.dual @ lp.b))


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HPolyhedron:
    """``{p in R^d : g p <= h}`` given by finitely many inequality rows."""

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if g.ndim != 2 or g.shape[1] < 1:
            raise SolverError("polyhedron matrix must be 2-D with d >= 1")
        if h.shape != (g.shape[0],):
            raise SolverError("polyhedron right-hand side has wrong length")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise SolverError("polyhedron data contains non-finite entries")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def d(self) -> int:
        return self.g.shape[1]


def enumerate_vertices(poly: HPolyhedron, start, *, budget: int = VERTEX_BUDGET) -> np.ndarray:
    """All vertices of a small pointed polyhedron, lexicographically sorted.

    Walks the graph of feasible bases (d rows with a nonsingular matrix)
    from ``start``, the d row indices of one vertex, pivoting along every
    bounded edge; directions that no row bounds are rays and are skipped.
    Degenerate vertices carry several bases.  A lexicographic perturbation
    of the right-hand side, row i moved by ``eps**rank(i)`` with distinct
    ranks, keeps the walk on bases that stay feasible for every small eps:
    the ratio test then picks exactly one entering row, and the walk
    reaches every vertex.  The walk is breadth first and takes ``_BLOCK``
    queued bases at a time: one batched inverse, one ratio test of all
    their edges, and one ``_lex_split`` of all their ties.  A vertex is
    its set of tight rows, those whose slack is within ``FEAS_TOL`` of 0
    at a basis's point: bases with one set are one vertex, and the first
    of them found gives its point.  A basis whose point violates a row
    by more than that, which rounding can give on an ill-conditioned
    basis, is walked through but gives no vertex.

    Raises ProblemError when ``budget`` is below 1, SolverError unless
    ``start`` names d distinct rows whose matrix is nonsingular and whose
    point is feasible within ``FEAS_TOL``, and BudgetExceededError past
    ``budget`` bases found, so callers can fall back to sweep-style methods.
    """
    if budget < 1:
        raise ProblemError(f"a vertex walk needs a budget of at least 1 basis, got {budget}")
    k, d = poly.k, poly.d
    if d > 16:
        raise BudgetExceededError(f"dimension {d} exceeds the enumeration limit 16")
    g, h = poly.g, poly.h
    start = [int(i) for i in start]
    if len(start) != d or len(set(start)) != d or not all(0 <= i < k for i in start):
        raise SolverError(f"a start must name {d} distinct rows of {k}, got {start}")
    if not np.linalg.cond(g[start]) < 1.0 / _PIVOT_COL_TOL:
        raise SolverError(f"start rows {start} are singular")
    zero = FEAS_TOL * max(1.0, float(np.abs(h).max()))
    excess = float(np.max(g @ np.linalg.solve(g[start], h[start]) - h))
    if excess > zero:
        raise SolverError(f"start point violates a row by {excess:g}")

    # row i's right-hand side is perturbed by eps^(1 + rank[i]): the start
    # basis takes the smallest perturbations, so every row that is tight at
    # the start vertex but not in its basis is strictly slack for small eps
    rank = np.empty(k, dtype=int)
    rank[[i for i in range(k) if i not in start] + list(start)] = np.arange(k)

    points, tight = [], []
    seen = {tuple(sorted(start))}
    queue = np.array([sorted(start)])
    while queue.size:
        basis, queue = queue[:_BLOCK], queue[_BLOCK:]
        inv = np.linalg.inv(g[basis])  # (L, d, d)
        point = (inv @ h[basis][:, :, None])[:, :, 0]
        slack = h - point @ g.T
        slack[np.abs(slack) <= zero] = 0.0
        feasible = np.all(slack >= 0.0, axis=1)  # past a row: rounding, not a vertex
        points.append(point[feasible])
        tight.append(np.packbits(slack[feasible] == 0.0, axis=1))
        rates = -(g @ inv)  # rates[l, i, j]: row i's growth along edge j of basis l
        rates[np.arange(len(basis))[:, None], basis] = 0.0
        bounded = rates > _PIVOT_COL_TOL * np.abs(inv).max(axis=1, keepdims=True)
        ratios = np.divide(slack[:, :, None], rates, out=np.full(rates.shape, np.inf), where=bounded)
        best = ratios.min(axis=1, keepdims=True)
        tied = bounded & (ratios <= best + _TIE_TOL * np.maximum(1.0, np.abs(best)))
        at, edge = np.nonzero(bounded.any(axis=1))  # the other edges are rays
        tied = tied[at, :, edge]
        entering = tied.argmax(axis=1)
        if (split := np.flatnonzero(tied.sum(axis=1) > 1)).size:
            entering[split] = _lex_split(tied[split], rates, at[split], edge[split], basis, rank)
        nbrs = basis[at]
        nbrs[np.arange(at.size), edge] = entering
        keys = dict.fromkeys(map(tuple, np.sort(nbrs, axis=1).tolist()))  # each once, in order
        fresh = [key for key in keys if key not in seen]
        seen.update(fresh)
        if len(seen) > budget:
            raise BudgetExceededError(f"the vertex walk visited more than {budget} bases")
        queue = np.concatenate([queue, np.array(fresh, dtype=int).reshape(-1, d)])

    # a vertex is its tight-row set: keep the first basis's point of each
    # set, in walk order, then sort lexicographically on coordinates rounded
    # to 1e-9, so the order does not hang on rounding error in a tied
    # coordinate; the rounding is only a sort key, so it may overflow
    _, first = np.unique(np.concatenate(tight), axis=0, return_index=True)
    pts = np.concatenate(points)[np.sort(first)]
    with np.errstate(over="ignore"):
        key = np.round(pts, 9)
    return pts[np.lexsort(key.T[::-1])]


def _lex_split(tied, rates, at, edge, basis, rank):
    """The entering row of edge ``edge[e]`` of ``basis[at[e]]``, whose rows ``tied[e]`` tie.

    By the lexicographic rule: tied row i's perturbed slack is ``rates[at[e], i, m]``
    at basis row m's rank, 1 at its own rank and 0 elsewhere; read per unit of the
    edge's rate in rank order, the least rows stay.
    """
    rows = np.argsort(~tied, axis=1, kind="stable")[:, : tied.sum(axis=1).max()]  # tied first
    live = np.take_along_axis(tied, rows, axis=1)
    e, t, at = np.arange(len(rows)), rows.shape[1], at[:, None]
    slack = np.concatenate([rates[at, rows], np.broadcast_to(np.eye(t), (len(rows), t, t))], axis=2)
    lex = slack / np.where(live, rates[at, rows, edge[:, None]], 1.0)[:, :, None]
    order = np.argsort(np.hstack([rank[basis[at[:, 0]]], np.where(live, rank[rows], rank.size)]), axis=1)
    for src in order.T:  # one rank position of every tie: a basis row's or a tied row's
        col = np.where(live, lex[e, :, src], np.inf)
        least = col.min(axis=1, keepdims=True)
        live = col <= least + _TIE_TOL * np.maximum(1.0, np.abs(least))
        if np.count_nonzero(live) == len(rows):  # one row left in every tie
            break
    return rows[e, live.argmax(axis=1)]
