"""Dense linear-programming core.

Solves equality-standard-form programs

    min c.x   subject to   a x = b,  x >= 0

of full row rank by the primal simplex under Bland's rule, which cannot
cycle, from a basis the caller gives: every program the package solves
has one in closed form (a north-west-corner staircase, Bertsimas and
Tsitsiklis, *Introduction to Linear Optimization*, chapter 7), so there
is no phase one.  The tableau is revised (section 3.3): it keeps
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

``solve`` starts from a primal feasible basis.  ``walk`` starts from an
optimal basis, one column per row, and moves the last entry of ``b``
down to its target, one optimal basis per interval of the way: the
parametric right-hand side of section 5.2.  The reduced costs do not
depend on ``b``, so the basis stays dual feasible, and where a basic
value reaches 0 a dual simplex pivot (section 4.5) replaces it.  The distortion programs always solve
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
The curve's vertex walk takes the parametric walk's bases as seeds
(``enumerate_vertices``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, IterationLimitError, ProblemError, SolverError

# Tolerances, one unit each.  "mass" is the unit of a program's right-hand
# side b, which holds masses and a level, a transported mass, in every
# program the package builds; "cost" is the unit of c, and so of the
# dual's right-hand side h; "ratio" has none.  A tolerance said to be on
# b's scale is multiplied by ``_scale(b)``, and one on h's by ``_scale(h)``.
FEAS_TOL = 1e-9  # mass: on b's scale, a basic value or a row residual this far off 0 is feasible
_RESIDUAL_TOL = 1e-7  # mass: on b's scale, the largest equality-row residual of an optimal point
_BASIC_TOL = 1e-10  # mass: on b's scale, a walk ends where no falling basic value is below -tol
_RATIO_TIE_TOL = 1e-12  # mass: primal ratio-test window: steps or levels within it of the least tie
_RED_COST_TOL = 1e-10  # cost: a nonbasic reduced cost below -tol improves
_DUAL_FEAS_TOL = 1e-9  # cost: a reduced cost, or on h's scale a row's slack, this far off 0 is 0
_DUAL_TIE_TOL = 1e-12  # cost: dual ratio-test window: ratios within it of the least tie
_PIVOT_COL_TOL = 1e-11  # ratio: smallest admissible pivot magnitude
_TIE_TOL = 1e-9  # ratio: relative gap under which two vertex-walk step lengths tie
_REFRESH_EVERY = 64  # pivots between tableau refactorizations
_PIVOT_BUDGET = 100  # pivots per row and column that a walk or a simplex run may take
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

    @property
    def feas_tol(self) -> float:
        """``FEAS_TOL`` on ``b``'s scale: how far, in mass, a basic value may
        lie below 0, or a row's residual off 0, and still count as feasible."""
        return FEAS_TOL * _scale(self.b)


def _scale(v) -> float:
    """``max(1, |v|∞)``: the scale on which a tolerance in ``v``'s unit is read."""
    return max(1.0, float(np.abs(v).max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class LPSolution:
    """An optimal simplex state.

    ``x`` is a basic optimal point, ``dual`` the multiplier vector
    recovered from the final basis and ``basis`` the optimal column set.
    ``iterations`` counts pivots and ``refactorizations`` fresh
    factorizations.
    """

    x: np.ndarray
    value: float
    basis: tuple[int, ...]
    dual: np.ndarray
    iterations: int
    refactorizations: int


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
    """The n-vector with ``values`` at the columns ``basis``, 0 elsewhere; a row per basis of a stack."""
    x = np.zeros((*np.shape(basis)[:-1], n))
    np.put_along_axis(x, np.asarray(basis), values, axis=-1)
    return x


def _entering(tab: _Tableau) -> int | None:
    basic = np.zeros(tab.n, dtype=bool)
    basic[tab.basis] = True
    idx = np.nonzero(~basic & (tab.red < -_RED_COST_TOL))[0]
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


def _optimize(tab: _Tableau, budget) -> int:
    """Run pivots to optimality; returns their number.

    The tableau starts fresh, so it is fresh at each multiple of
    ``_REFRESH_EVERY`` pivots, where ``_step`` refactors it; an optimal
    tableau is always fresh: its point and duals come from a
    refactorization, not accumulated updates.  Raises SolverError when
    an entering column has no leaving row: the program is unbounded.
    """
    iters = 0
    while True:
        col = _entering(tab)
        if col is None and iters % _REFRESH_EVERY:
            tab.refactor()  # confirm optimality against fresh data
            col = _entering(tab)
        if col is None:
            return iters
        row = _leaving(tab, col)
        if row is None:
            raise SolverError(f"program unbounded below: column {col} enters with no leaving row")
        iters = _step(tab, row, col, tab.row(row), iters, budget)


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
    return row, int(cols[(ratios <= ratios[ratios.argmin()] + _DUAL_TIE_TOL).argmax()]), line


def _start(lp: StandardLP, start) -> _Tableau:
    """The tableau of ``start``, the columns of a basis of ``lp`` in row order.

    Raises SolverError unless ``start`` names one integer column per
    row, each in range, with a nonsingular matrix.
    """
    try:
        start = list(map(operator.index, start))
    except TypeError:
        raise SolverError("start basis names a column that is not an integer") from None
    if len(start) != lp.m:
        raise SolverError(f"start basis covers {len(start)} rows, the program has {lp.m}")
    if min(start, default=0) < 0 or max(start, default=0) >= lp.n:
        raise SolverError("start basis names a column out of range")
    return _Tableau(lp.a, lp.b, lp.c, start)


def solve(lp: StandardLP, start) -> LPSolution:
    """Primal simplex from ``start``, the columns of a primal feasible basis.

    Returns a basic optimal solution with its duals.  Raises SolverError
    when ``start`` fails ``walk``'s start check (one integer column per
    row, each in range, nonsingular) or is not primal feasible within
    ``lp.feas_tol``, ``FEAS_TOL`` on the scale of ``lp.b``, or when the program is
    unbounded, and IterationLimitError past ``_PIVOT_BUDGET * (m + n)``
    pivots.
    """
    tab = _start(lp, start)
    if tab.xb.min(initial=0.0) < -lp.feas_tol:
        raise SolverError("start basis is not primal feasible")
    iters = _optimize(tab, _PIVOT_BUDGET * (lp.m + lp.n))
    return _optimal(lp, tab, iters, tab.refactors)


def _optimal(lp: StandardLP, tab: _Tableau, iterations, refactors) -> LPSolution:
    """The solution of an optimal tableau on ``lp``'s rows."""
    x = basic_point(tab.n, tab.basis, tab.xb)
    residual = float(abs(lp.a @ x - lp.b).max(initial=0.0))
    if residual > _RESIDUAL_TOL * _scale(lp.b):
        raise SolverError(f"optimal point misses the equality rows (residual {residual:g})")
    return LPSolution(
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
    steps cannot cycle.  At s = 0 the basis is refactored and the primal
    simplex confirms it, so a start off by rounding still ends optimal.  The start's
    basic values are judged by ``FEAS_TOL`` on the scale of its right-hand side and
    its reduced costs by ``_DUAL_FEAS_TOL``; the walk ends where no falling basic
    value is below ``-_BASIC_TOL`` on ``lp.b``'s scale.

    Returns the optimal solution of ``lp`` (``iterations`` counts the
    walk's pivots and the confirmation's) and ``(s, basis, B^-1 b, B^-1 e_m)``
    per basis in walk order: the s where it stops being optimal (0 for
    the last), its columns in row order, and the two vectors that give
    its basic values ``B^-1 b + s B^-1 e_m`` at every level s.

    Raises SolverError when ``lp`` has no rows, ``span`` is not finite and >= 0,
    ``start`` fails ``solve``'s start check (one integer column per row, each in
    range, nonsingular) or is not primal and dual feasible at s = ``span``,
    or the program is infeasible on the way, and IterationLimitError past
    ``_PIVOT_BUDGET * (m + n)`` pivots.
    """
    budget = _PIVOT_BUDGET * (lp.m + lp.n)
    if lp.m == 0:
        raise SolverError("a walk moves the last right-hand-side entry; the program has no rows")
    if not 0.0 <= span < math.inf:
        raise SolverError(
            f"a walk moves s down to 0 from a span >= 0 that is finite, got {float(span)!r}"
        )
    tab = _start(lp, start)
    scale = _scale(lp.b)
    top = max(scale, abs(lp.b[-1] + span))
    if (tab.xb + span * tab.rate).min() < -FEAS_TOL * top or tab.red.min() < -_DUAL_FEAS_TOL:
        raise SolverError("start basis is not optimal where the walk starts")

    tol = _BASIC_TOL * scale
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
    sol = _optimal(lp, tab, iters + _optimize(tab, budget), tab.refactors)
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


def _is_count(value) -> bool:
    """Whether ``operator.index`` takes ``value``, and it is no bool: True is no count."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _check_walk(budget, d: int) -> None:
    """Raise ProblemError unless ``budget`` is an integer >= 1 (``_is_count``),
    and BudgetExceededError past 16 dimensions: a vertex walk's refusals,
    which need no polyhedron."""
    if not (_is_count(budget) and budget >= 1):
        raise ProblemError(
            "a vertex walk needs a budget of at least 1 basis, in whole bases, "
            f"got {_plain(budget)!r}"
        )
    if d > 16:
        raise BudgetExceededError(f"dimension {d} exceeds the enumeration limit 16")


def enumerate_vertices(
    poly: HPolyhedron, start, *, budget: int = VERTEX_BUDGET, seeds=()
) -> np.ndarray:
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
    its set of tight rows, those whose slack is within ``_DUAL_FEAS_TOL``
    of 0, on ``h``'s scale (``h`` is in cost, the dual's right-hand side
    being the program's costs), at a basis's point: bases with one set are
    one vertex, and the first of them found, kept by a dict keyed on the
    set's packed bytes, gives its point.  A basis whose point violates a row by more than that,
    which rounding can give on an ill-conditioned basis, is walked
    through but gives no vertex.

    ``seeds`` holds bases, d in-range rows each, which the first block
    takes right after the start (``curve_by_vertices`` seeds the sweep's
    bases).  A seed stays only if its point is feasible with exactly d
    tight rows: a nondegenerate vertex has one basis, which is
    lexicographically feasible under any ranks, so the walk from the
    start reaches it and leaves it by the edges it takes from it here.
    The bases found and their count against ``budget`` are then the
    walk's from the start alone, and so are the vertices, but for the
    point of a degenerate vertex, which comes from the first of its bases
    found; a shallower walk takes fewer blocks.  Any other seed leaves the
    walk before the budget counts it and gives no vertex: a degenerate
    vertex's other bases can lie outside the start's lexicographic graph.

    Raises ProblemError unless ``budget`` is an integer >= 1, SolverError
    unless ``start`` names d distinct integer rows whose matrix is
    nonsingular and whose point is feasible within that tolerance, or
    when a seed is singular, and BudgetExceededError past ``budget``
    bases found, so callers can fall back to sweep-style methods.
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
    zero = _DUAL_FEAS_TOL * _scale(h)

    # row i's right-hand side is perturbed by eps^(1 + rank[i]): the start
    # basis takes the smallest perturbations, so every row that is tight at
    # the start vertex but not in its basis is strictly slack for small eps
    rank = np.empty(k, dtype=int)
    rank[[i for i in range(k) if i not in start] + list(start)] = np.arange(k)

    # the queue holds each basis as a tuple of its sorted rows; the first
    # block takes the start and every seed that differs from it
    queue = list(dict.fromkeys(tuple(sorted(b)) for b in [start, *np.asarray(seeds).tolist()]))
    seen, take = set(queue), max(_BLOCK, len(queue))
    points, tight = [], []
    while queue:
        basis = np.array(queue[:take])
        del queue[:take]
        try:
            inv = np.linalg.inv(g[basis])  # (L, d, d)
        except np.linalg.LinAlgError:  # the start is checked, and a pivot keeps a basis regular
            raise SolverError("a seed basis of the vertex walk is singular") from None
        point = (inv @ h[basis][:, :, None])[:, :, 0]
        slack = h - point @ g.T
        slack[abs(slack) <= zero] = 0.0
        feasible = (slack >= 0.0).all(axis=1)  # past a row: rounding, not a vertex
        if not points:  # the first block: the start, then the seeds
            if not feasible[0]:
                raise SolverError(f"start point violates a row by {-slack[0].min():g}")
            keep = feasible & ((slack == 0.0).sum(axis=1) == d)  # nondegenerate seeds stay
            keep[0] = True
            if not keep.all():
                seen.difference_update(map(tuple, basis[~keep].tolist()))
                basis, inv, point, slack = basis[keep], inv[keep], point[keep], slack[keep]
                feasible = feasible[keep]
            take = _BLOCK
        points.append(point[feasible])
        tight.append(np.packbits(slack[feasible] == 0.0, axis=1))
        rates = g @ inv
        np.negative(rates, out=rates)  # rates[l, i, j]: row i's growth along edge j of basis l
        rates[np.arange(len(basis))[:, None], basis] = 0.0
        bounded = rates > _PIVOT_COL_TOL * abs(inv).max(axis=1, keepdims=True)
        ratios = np.divide(slack[:, :, None], rates, out=np.full(rates.shape, np.inf), where=bounded)
        best = ratios.min(axis=1, keepdims=True)
        tied = ratios <= best + _TIE_TOL * np.maximum(1.0, abs(best))
        tied &= bounded
        at, edge = bounded.any(axis=1).nonzero()  # the other edges are rays
        tied = tied[at, :, edge]
        entering = tied.argmax(axis=1)
        if (split := (tied.sum(axis=1) > 1).nonzero()[0]).size:
            entering[split] = _lex_split(tied[split], rates, at[split], edge[split], basis, rank)
        nbrs = basis[at]
        nbrs[np.arange(at.size), edge] = entering
        nbrs.sort(axis=1)
        keys = dict.fromkeys(map(tuple, nbrs.tolist()))  # each once, in order
        fresh = [key for key in keys if key not in seen]
        seen.update(fresh)
        if len(seen) > budget:
            raise BudgetExceededError(f"the vertex walk visited more than {budget} bases")
        queue += fresh

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
