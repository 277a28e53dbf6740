"""Dense linear-programming core.

Solves equality-standard-form programs

    min c.x   subject to   a x = b,  x >= 0

with a two-phase primal simplex under Bland's rule, which cannot cycle.
The tableau is revised (Bertsimas and Tsitsiklis, section 3.3): it keeps
the m-by-m basis inverse and forms only the row and the column of the
m-by-n ``B^-1 A`` that a pivot needs; the pivot rule that forms the row
hands it to the pivot, so the tableau caches nothing between pivots.  A
pivot updates the inverse and the basic values together by one rank-one
step in place.  The tableau is refactorized from the basis periodically
and at termination (unless no pivot came after the last
refactorization), each time by one LU solve of
``B [binv | xb] = [I | b]``, with the duals read from that inverse, so
the reported point, dual vector, and objective come from a fresh solve
against the original data rather than accumulated updates.

Phase one is for programs without a known basis.  Like ``walk``,
``solve`` needs full row rank: phase one names a consistent equality
row that depends on the others in a ``SolverError``.

``walk`` starts instead from a known optimal basis, one column per row,
and moves the last entry of ``b`` down to its target, one optimal
basis per interval of the way: the parametric right-hand side of
Bertsimas and Tsitsiklis, *Introduction to Linear Optimization*,
section 5.2.  The reduced costs do not depend on ``b``, so the basis
stays dual feasible, and where a basic value reaches 0 a dual simplex
pivot (section 4.5) replaces it.  The distortion programs always solve
this way: the perception level is the last entry of their ``b``, so one
level is a walk from the optimal basis at P = 1, which is known in closed
form (a flow that moves only the surplus, so the walk's first pivot
is where the budget starts to bind), and the whole curve is one walk
from P = 1 to 0.  The walk records each basis with ``B^-1 b`` and
``B^-1 e_m``, which give its basic values at every level; the sweep
stacks these records once and reads every line and breakpoint point
from the stack.  One walk pivot forms one row and one column of
``B^-1 A``, and takes one rank-one step on ``[B^-1 | B^-1 b]`` and one
on the reduced costs.

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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, IterationLimitError, ProblemError, SolverError

_RED_COST_TOL = 1e-10  # reduced cost improving, or basic value infeasible, below -tol
_PIVOT_COL_TOL = 1e-11  # smallest admissible pivot magnitude
_RATIO_TIE_TOL = 1e-12  # ratio-test window: ratios within it of the least tie
_DRIVE_OUT_TOL = 1e-9  # smallest row entry that pivots an artificial out of phase one
FEAS_TOL = 1e-9  # residual, in units of the right-hand side, accepted as feasible
_REFRESH_EVERY = 64  # pivots between tableau refactorizations
_PIVOT_BUDGET = 100  # pivots per row and column that each phase or walk may take
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
            if not np.isfinite(arr).all():
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
    multiplier vector recovered from the final basis and ``basis`` the
    optimal column set.  ``unbounded`` carries an improving ray (a
    c-decreasing direction in the recession cone); ``infeasible``
    carries a Farkas certificate y with ``y.a <= 0`` and ``y.b > 0``.
    ``iterations`` counts pivots and ``refactorizations`` fresh
    factorizations, phase one's included.
    """

    status: str
    x: np.ndarray | None = None
    value: float = math.nan
    basis: tuple[int, ...] | None = None
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None
    certificate: np.ndarray | None = None
    iterations: int = 0
    refactorizations: int = 0


class _Tableau:
    """Revised tableau: the basis and its factored block, not ``B^-1 A``.

    It keeps the basis as an integer array, ``B^-1 [I | b]`` as one
    m-by-(m + 1) block whose columns are the views ``binv`` and the basic
    values ``xb``, so a pivot updates both by one rank-one step in place
    (``rate = B^-1 e_m`` is binv's last column; at m = 0, the empty
    ``xb``), the duals ``y = c_B B^-1`` and the reduced costs ``red``;
    nothing else.  It forms a row or a column of ``B^-1 A`` when a pivot
    rule asks, and the rule hands the row it formed to ``pivot``.  A row
    is set to exactly 0 at the other basic columns and 1 at its own: the
    product leaves rounding of about 1e-11 there, which passes
    ``_PIVOT_COL_TOL``.  ``refactors`` counts the calls of ``refactor``,
    which factors the basis afresh, once.
    """

    def __init__(self, a, b, c, basis):
        self.a = a
        self.b = b
        self.c = c
        self.basis = np.array(basis, dtype=np.intp)
        self.m, self.n = a.shape
        self.rhs = np.eye(self.m, self.m + 1)  # [I | b], which every refactor solves for
        self.rhs[:, -1] = b
        self.refactors = 0
        self.refactor()

    def refactor(self):
        try:
            self.block = np.linalg.solve(self.a.take(self.basis, axis=1), self.rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular simplex basis") from exc
        self.binv, self.xb = self.block[:, : self.m], self.block[:, -1]
        self.rate = self.block[:, self.m - 1]
        self.y = self.c[self.basis] @ self.binv
        self.red = self.c - self.y @ self.a
        self.refactors += 1

    def row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1 A``, exactly 0 and 1 at the basic columns."""
        line = self.binv[r] @ self.a
        line[self.basis] = 0.0
        line[self.basis[r]] = 1.0
        return line

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``B^-1 A``."""
        return self.binv @ self.a[:, j]

    def pivot(self, row, col, line):
        """Enter ``col`` for the basic column of ``row``; ``line`` is ``row(row)``."""
        factors = self.column(col)
        piv = factors[row]
        if abs(piv) < _PIVOT_COL_TOL:
            raise SolverError("pivot below numeric tolerance")
        line = line / piv  # the pivot row of the next basis
        line[col] = 1.0
        prow = self.block[row]
        prow /= piv
        factors[row] = 0.0
        self.block -= np.multiply.outer(factors, prow)
        self.red -= self.red[col] * line
        self.basis[row] = col


def basic_point(n: int, basis, values) -> np.ndarray:
    """The n-vector with ``values`` at the columns ``basis`` and 0 elsewhere."""
    x = np.zeros(n)
    x[basis] = values
    return x


def _entering(tab: _Tableau, cols: int) -> int | None:
    basic = np.zeros(tab.n, dtype=bool)
    basic[tab.basis] = True
    idx = np.nonzero(~basic[:cols] & (tab.red[:cols] < -_RED_COST_TOL))[0]
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


def _step(tab: _Tableau, row: int, col: int, line, iters: int, budget: int) -> int:
    """One counted pivot, with the periodic refactorization and the budget."""
    tab.pivot(row, col, line)
    iters += 1
    if iters % _REFRESH_EVERY == 0:
        tab.refactor()
    if iters > budget:
        raise IterationLimitError(
            f"pivot budget {budget} exhausted (cycling is impossible under Bland's rule)"
        )
    return iters


def _optimize(tab: _Tableau, cols: int, budget):
    """Run pivots to a terminal state; returns ('optimal'|'unbounded', ray, pivots).

    Only the first ``cols`` columns may enter.  The tableau starts fresh,
    so it is fresh at each multiple of ``_REFRESH_EVERY`` pivots, where
    ``_step`` refactors it; an ``optimal`` tableau is always fresh: its
    point and duals come from a refactorization, not accumulated updates.
    """
    iters = 0
    while True:
        col = _entering(tab, cols)
        if col is None and iters % _REFRESH_EVERY:
            tab.refactor()  # confirm optimality against fresh data
            col = _entering(tab, cols)
        if col is None:
            return "optimal", None, iters
        row = _leaving(tab, col)
        if row is None:
            ray = np.zeros(tab.n)
            ray[col] = 1.0
            ray[tab.basis] = -tab.column(col)
            return "unbounded", ray, iters
        iters = _step(tab, row, col, tab.row(row), iters, budget)


def _phase_one(a, b, c, feas_tol, budget):
    """A first feasible basis by minimizing the total artificial mass.

    Returns ``(phase_one, tableau, pivots)``: the phase-one tableau, and
    the phase-two tableau, or None when the program is infeasible and
    ``phase_one.y`` is a Farkas certificate.  A dependent row raises.
    """
    m, n = a.shape
    a1 = np.hstack([a, np.diag(np.where(b < 0, -1.0, 1.0))])  # sign(b_i) e_i: basic at |b|
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    tab = _Tableau(a1, b, c1, list(range(n, n + m)))
    status, _, iters = _optimize(tab, n, budget)  # artificials never enter
    if status != "optimal":  # a sum of nonnegatives cannot be unbounded below
        raise SolverError("phase one ended in an impossible state")
    if float(tab.c[tab.basis] @ tab.xb) > feas_tol:
        return tab, None, iters

    # drive artificials out of the basis; one that cannot leave still sits
    # in its own row (artificials never enter), which depends on the others
    for row in range(m):
        if tab.basis[row] < n:
            continue
        line = tab.row(row)
        cand = int(np.argmax(np.abs(line[:n])))
        if abs(line[cand]) <= _DRIVE_OUT_TOL:
            raise SolverError(f"equality row {row} is linearly dependent on the others")
        tab.pivot(row, cand, line)
    return tab, _Tableau(a, b, c, tab.basis), iters


def _dual_bland(tab: _Tableau, rows: np.ndarray) -> tuple[int, int | None, np.ndarray]:
    """The leaving row of ``rows``, the entering column and the row of ``B^-1 A``.

    The row whose basic column has the smallest index leaves; the column
    with the smallest ratio ``red[j] / -row[j]`` enters, ties to the
    smallest index, or None if the row has no negative entry.
    """
    row = int(rows[0] if rows.size == 1 else rows[tab.basis[rows].argmin()])
    line = tab.row(row)
    cols = (line < -_PIVOT_COL_TOL).nonzero()[0]
    if cols.size == 0:
        return row, None, line
    ratios = np.maximum(tab.red[cols], 0.0) / -line[cols]
    return row, int(cols[(ratios <= ratios[ratios.argmin()] + _RATIO_TIE_TOL).argmax()]), line


def solve(lp: StandardLP) -> LPSolution:
    """Two-phase simplex on an equality-form program.

    Returns a basic optimal solution with its dual certificate, an
    unbounded status with an improving ray, or an infeasible status with
    a Farkas certificate.  A consistent equality row that depends on the
    others raises SolverError naming it (full row rank, as in ``walk``).
    A phase past ``_PIVOT_BUDGET * (m + n)`` pivots raises IterationLimitError.
    """
    m, n = lp.m, lp.n
    budget = _PIVOT_BUDGET * (m + n)
    feas_tol = FEAS_TOL * max(1.0, float(np.abs(lp.b).max(initial=0.0)))

    tab1, tab2, iters1 = _phase_one(lp.a, lp.b, lp.c, feas_tol, budget)
    if tab2 is None:
        return LPSolution(
            status="infeasible",
            value=math.inf,
            certificate=tab1.y,
            iterations=iters1,
            refactorizations=tab1.refactors,
        )

    status, ray, iters2 = _optimize(tab2, n, budget)
    iterations = iters1 + iters2
    refactors = tab1.refactors + tab2.refactors

    if status == "unbounded":
        return LPSolution(
            status="unbounded",
            x=basic_point(n, tab2.basis, tab2.xb),
            value=-math.inf,
            ray=ray,
            iterations=iterations,
            refactorizations=refactors,
        )

    return _optimal(lp, tab2, iterations, refactors)


def _optimal(lp: StandardLP, tab: _Tableau, iterations, refactors) -> LPSolution:
    """The solution of an optimal tableau on ``lp``'s rows."""
    x = basic_point(tab.n, tab.basis, tab.xb)
    residual = float(abs(lp.a @ x - lp.b).max(initial=0.0))
    if residual > 1e-7 * max(1.0, float(abs(lp.b).max(initial=0.0))):
        raise SolverError(f"optimal point misses the equality rows (residual {residual:g})")
    return LPSolution(
        status="optimal",
        x=x,
        value=float(lp.c @ x),
        basis=tuple(sorted(tab.basis.tolist())),
        dual=tab.y,
        iterations=iterations,
        refactorizations=refactors,
    )


def walk(
    lp: StandardLP, start, span: float
) -> tuple[LPSolution, list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]]:
    """Optimal bases of ``lp`` with s added to ``b[-1]`` as s falls from ``span`` to 0.

    ``start`` is the columns of an optimal basis at s = ``span``, one per
    row, so ``lp`` has full row rank.  The tableau stays on ``lp.b``: a
    basis B keeps its reduced costs and has the basic values
    ``B^-1 b + s B^-1 e_m``, so it stays optimal down to the largest s where
    a falling one reaches 0; ``_dual_bland`` over the rows that reach 0
    there then pivots as the dual simplex just below would, so degenerate
    steps cannot cycle.  At s = 0 the basis is refactored and phase two
    confirms it, so a start off by rounding still ends optimal.  The start
    is judged on the scale of its right-hand side, the end on ``lp.b``'s.

    Returns the optimal solution of ``lp`` (``iterations`` counts the
    walk's pivots and phase two's) and ``(s, basis, B^-1 b, B^-1 e_m)``
    per basis in walk order: the s where it stops being optimal (0 for
    the last), its columns in row order, and the two vectors that give
    its basic values ``B^-1 b + s B^-1 e_m`` at every level s.

    Raises SolverError when ``lp`` has no rows, ``span`` is not finite and >= 0,
    ``start`` covers another row count, names a column that is not an integer or
    out of range, is singular, or is not primal and dual feasible at s = ``span``,
    or the program is infeasible on the way, and IterationLimitError past
    ``_PIVOT_BUDGET * (m + n)`` pivots.
    """
    m, n = lp.m, lp.n
    budget = _PIVOT_BUDGET * (m + n)
    if m == 0:
        raise SolverError("a walk moves the last right-hand-side entry; the program has no rows")
    if not 0.0 <= span < math.inf:
        raise SolverError(
            f"a walk moves s down to 0 from a span >= 0 that is finite, got {float(span)!r}"
        )
    try:
        start = list(map(operator.index, start))
    except TypeError:
        raise SolverError("start basis names a column that is not an integer") from None
    if len(start) != m:
        raise SolverError(f"start basis covers {len(start)} rows, the program has {m}")
    if min(start) < 0 or max(start) >= n:
        raise SolverError("start basis names a column out of range")
    tab = _Tableau(lp.a, lp.b, lp.c, start)
    scale = max(1.0, float(np.abs(lp.b).max()))
    top = max(scale, abs(lp.b[-1] + span))
    if (tab.xb + span * tab.rate).min() < -FEAS_TOL * top or tab.red.min() < -FEAS_TOL:
        raise SolverError("start basis is not optimal where the walk starts")

    tol = _RED_COST_TOL * scale
    s, iters, path = span, 0, []
    while True:
        rows = (tab.rate > _PIVOT_COL_TOL).nonzero()[0]  # basic values that fall as s does
        xr = tab.xb[rows]
        if not rows.size or xr[xr.argmin()] >= -tol:  # feasible at s = 0: the last basis
            break
        cut = xr / tab.rate[rows]  # minus the level where each reaches 0
        s = min(float(-cut[cut.argmin()]), s)
        path.append((s, tab.basis.copy(), tab.xb.copy(), tab.rate.copy()))
        leave, col, line = _dual_bland(tab, rows[cut <= _RATIO_TIE_TOL - s])
        if col is None:
            raise SolverError(f"program infeasible past s = {float(s)!r}")
        iters = _step(tab, leave, col, line, iters, budget)

    if iters:
        tab.refactor()  # against lp.b afresh, not the sum of the updates
    status, _, confirm = _optimize(tab, n, budget)
    if status != "optimal":
        raise SolverError(f"phase two ended {status} after the walk")
    sol = _optimal(lp, tab, iters + confirm, tab.refactors)
    path.append((0.0, tab.basis.copy(), tab.xb.copy(), tab.rate.copy()))
    return sol, path


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


def _plain(value):
    """A numpy scalar or array as a Python number or list, for error texts."""
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


def _check_walk(budget, d: int) -> None:
    """Raise ProblemError unless ``budget`` is an integer >= 1, and
    BudgetExceededError past 16 dimensions: a vertex walk's refusals,
    which need no polyhedron."""
    try:
        valid = operator.index(budget) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ProblemError(
            "a vertex walk needs a budget of at least 1 basis, in whole bases, "
            f"got {_plain(budget)!r}"
        )
    if d > 16:
        raise BudgetExceededError(f"dimension {d} exceeds the enumeration limit 16")


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
    their edges, and one ``_lex_split`` of all their ties, which gathers
    the tied rows flat and settles each tie on its own rows.  A vertex is
    its set of tight rows, those whose slack is within ``FEAS_TOL`` of 0
    at a basis's point: bases with one set are one vertex, and the first
    of them found, kept by a dict keyed on the set's packed bytes, gives
    its point.  A basis whose point violates a row by more than that,
    which rounding can give on an ill-conditioned basis, is walked
    through but gives no vertex.

    Raises ProblemError unless ``budget`` is an integer >= 1, SolverError
    unless ``start`` names d distinct integer rows whose matrix is
    nonsingular and whose point is feasible within ``FEAS_TOL``, and
    BudgetExceededError past ``budget`` bases found, so callers can fall
    back to sweep-style methods.
    """
    k, d = poly.k, poly.d
    _check_walk(budget, d)
    g, h = poly.g, poly.h
    try:
        start = [operator.index(i) for i in start]
    except TypeError:
        raise SolverError(
            f"a start must name {d} distinct rows of {k}, got {_plain(start)!r}"
        ) from None
    if len(start) != d or len(set(start)) != d or not all(0 <= i < k for i in start):
        raise SolverError(f"a start must name {d} distinct rows of {k}, got {start}")
    if not np.linalg.cond(g[start]) < 1.0 / _PIVOT_COL_TOL:
        raise SolverError(f"start rows {start} are singular")
    zero = FEAS_TOL * max(1.0, float(np.abs(h).max()))

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
        if not points and not feasible[0]:  # the first block starts with the start
            raise SolverError(f"start point violates a row by {-slack[0].min():g}")
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
    # set, in walk order, by the set's packed bytes, then sort
    # lexicographically on coordinates rounded to 1e-9, so the order does not
    # hang on rounding error in a tied coordinate; the rounding is only a sort
    # key, so it may overflow
    tight = np.concatenate(tight)
    first = {}
    for i, packed in enumerate(tight.view(np.dtype((np.void, tight.shape[1]))).ravel().tolist()):
        first.setdefault(packed, i)
    pts = np.concatenate(points)[list(first.values())]
    with np.errstate(over="ignore"):
        key = np.round(pts, 9)
    return pts[np.lexsort(key.T[::-1])]


def _lex_split(tied, rates, at, edge, basis, rank):
    """The entering row of edge ``edge[e]`` of ``basis[at[e]]``, whose rows ``tied[e]`` tie.

    By the lexicographic rule: tied row i's perturbed slack is ``rates[at[e], i, m]``
    at basis row m's rank, 1 at its own rank and 0 elsewhere; read per unit of the
    edge's rate in rank order, the least rows stay.  Every tied row's rates are
    gathered once, flat, and each tie is settled on its own list of rows: at a
    basis row's rank the rows within ``_TIE_TOL * max(1, |least|)`` of the least
    stay, at a tied row's own rank that row leaves when its ``1 / rate`` exceeds
    ``_TIE_TOL`` (the others read 0), and the tie stops at one row.
    """
    e, rows = np.nonzero(tied)  # every tied row once, tie by tie, rows ascending
    piv = rates[at[e], rows, edge[e]]
    n = rows.size
    # lex[m * n + i]: tied row i's slack at basis row m's rank per unit of its
    # rate; the flat view makes a float only for each value a tie reads
    lex = memoryview((rates[at[e], rows] / piv[:, None]).T.ravel())
    leaves = (1.0 / piv > _TIE_TOL).tolist()
    # every tie's rank positions in rank order, tie after tie: position p < t * d
    # is basis row p % d of tie p // d, and position t * d + i is tied row i
    own = rank[basis[at]]
    (t, d), td = own.shape, own.size
    key = np.concatenate([(own + rank.size * np.arange(t)[:, None]).ravel(), rank[rows] + rank.size * e])
    steps, out, lo = np.argsort(key).tolist(), [], 0
    for hi in np.cumsum(np.count_nonzero(tied, axis=1)).tolist():
        live = list(range(lo, hi))
        for p in steps[d * len(out) + lo : d * (len(out) + 1) + hi]:
            if p < td:
                m = p % d * n
                col = [lex[m + i] for i in live]
                least = min(col)
                cut = least + _TIE_TOL * max(1.0, abs(least))
                live = [i for i, v in zip(live, col) if v <= cut]
            elif leaves[p - td] and p - td in live:
                live.remove(p - td)
            if len(live) == 1:
                break
        out.append(live[0])
        lo = hi
    return rows[out]
