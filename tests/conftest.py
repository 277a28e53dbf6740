"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the package's solver paths: direct
double sums, exhaustive enumeration over deterministic rules, and a
greedy mass-allocation argument for binary sources.  Tests compare the
package against these, never against itself.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from dptradeoff import (
    HPolyhedron,
    LPSolution,
    PiecewiseLinearCurve,
    SolverError,
    StandardLP,
    build_ot_form,
    make_problem,
    solve,
)
from dptradeoff import verify as verifymod
from dptradeoff.lp import _Tableau
from dptradeoff.problemio import generate_instance, instance_to_problem
from dptradeoff.programs import _flow_dual

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def bsc_problem():
    """Asymmetric binary channel with Hamming cost and metric."""
    return make_problem([[0.54, 0.06], [0.04, 0.36]])


@pytest.fixture
def indep_problem():
    """Observation independent of the source, p_x = (0.6, 0.4)."""
    return make_problem(np.outer([0.6, 0.4], [0.5, 0.5]))


@pytest.fixture
def noiseless_problem():
    return make_problem([[0.5, 0.0], [0.0, 0.5]])


def random_problem(seed, n_x, n_y, *, random_distortion=False, random_metric=False):
    spec = generate_instance(
        seed, n_x, n_y, random_distortion=random_distortion, use_random_metric=random_metric
    )
    return instance_to_problem(spec)


def edge_problems():
    """Named edge instances: one source symbol, tied MAP costs, a 3e-11 mass."""
    ties = [[0.2, 0.2, 0.1, 0.05], [0.2, 0.2, 0.1, 0.05], [0.02, 0.02, 0.06, 0.0]]
    return {
        "1x3": make_problem([[0.3, 0.5, 0.2]]),
        "tied-uniform": make_problem(np.full((2, 2), 0.25)),
        "tied-columns": make_problem(np.asarray(ties) / np.sum(ties)),
        "skewed": make_problem([[0.3, 3e-11, 0.2], [0.2, 0.0, 0.3 - 3e-11]]),
    }


def scaled_distortion_spec(seed=1, scale=1e8):
    """``dp gen --seed <seed> --nx 3 --ny 5 --random-distortion --random-metric``
    with every distortion entry multiplied by ``scale``.

    Still a valid problem, but at scales of 1e7 and up the curve's pieces
    often miss each other at a breakpoint by more than the curve's check
    allows: a numeric failure, not an input error.
    """
    spec = generate_instance(seed, 3, 5, random_distortion=True, use_random_metric=True)
    spec["distortion"] = spec["distortion"] * scale
    return spec


def skewed_masses(rng, n_x, n_y):
    """A joint law whose observation columns weigh from 1e-12 to 1 before normalizing."""
    p_xy = rng.uniform(size=(n_x, n_y)) * 10.0 ** rng.uniform(-12, 0, size=n_y)
    return p_xy / p_xy.sum()


def closed_random_metric(rng, n_x):
    """Random symmetric weights, closed under shortest paths."""
    h = np.triu(rng.uniform(0.2, 1.0, size=(n_x, n_x)), 1)
    h = h + h.T
    for k in range(n_x):
        h = np.minimum(h, h[:, [k]] + h[[k]])
    return h


def three_symbol_skewed(seed):
    """Instance dict: 3 x (3 or 4) skewed masses, Hamming distortion, a
    path-closed random metric."""
    rng = np.random.default_rng(seed)
    n_y = int(rng.integers(3, 5))
    p_xy = skewed_masses(rng, 3, n_y)
    return {"p_xy": p_xy, "metric": closed_random_metric(rng, 3)}


def tilt_sweep(monkeypatch, error):
    """Make ``cross_verify``'s sweep column read ``sweep + error * max(p_star - P, 0)``.

    Every segment left of ``p_star`` is tilted from ``(a, m)`` to
    ``(a + error * p_star, m - error)``; the plateau stays, so the curve
    is still convex and continuous and only the comparison can catch it.
    """
    sweep = verifymod._sweep

    def tilted(problem):
        report, *rest = sweep(problem)
        curve = report.curve
        segments = curve.segments.copy()
        segments[:-1] += (error * curve.p_star, -error)
        tilt = PiecewiseLinearCurve(curve.breakpoints, segments)
        return (replace(report, curve=tilt), *rest)

    monkeypatch.setattr(verifymod, "_sweep", tilted)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def cost_matrix_oracle(p_xy, d):
    """Direct double sum for the output-weighted cost matrix."""
    p_xy = np.asarray(p_xy, float)
    d = np.asarray(d, float)
    n_x, n_y = p_xy.shape
    out = np.zeros((n_x, n_y))
    for xhat in range(n_x):
        for y in range(n_y):
            out[xhat, y] = sum(d[x, xhat] * p_xy[x, y] for x in range(n_x))
    return out


def deterministic_minimum_oracle(p_xy, d):
    """Exhaustive search over every deterministic reconstruction rule."""
    p_xy = np.asarray(p_xy, float)
    d = np.asarray(d, float)
    n_x, n_y = p_xy.shape
    cost = cost_matrix_oracle(p_xy, d)
    best = np.inf
    best_map = None
    for assignment in itertools.product(range(n_x), repeat=n_y):
        val = sum(cost[assignment[y], y] for y in range(n_y))
        if val < best - 1e-15:
            best = val
            best_map = assignment
    return best, best_map


def binary_dp_oracle(problem, p_level):
    """Curve value for binary sources by greedy mass allocation.

    The distortion is affine in the per-symbol first-reconstruction
    probabilities, so for a fixed total output mass the cheapest
    allocation fills symbols in ascending cost-rate order; the result is
    convex piecewise linear in the mass, minimized at an interval
    endpoint or an allocation kink.  Uses no linear programming and no
    breakpoint formulas.
    """
    assert problem.n_x == 2
    cost = cost_matrix_oracle(problem.channel.p_xy, problem.distortion.d)
    p_y = problem.p_y
    p1 = float(problem.p_x[0])
    base = float(cost[1].sum())
    rate = (cost[0] - cost[1]) / p_y  # marginal cost per unit of allocated mass
    order = np.argsort(rate, kind="stable")
    scale = float(problem.metric.h[0, 1])
    lo = max(0.0, p1 - p_level / scale)
    hi = min(1.0, p1 + p_level / scale)

    def allocated_cost(mass):
        total = base
        remaining = mass
        for y in order:
            take = min(float(p_y[y]), remaining)
            total += rate[y] * take
            remaining -= take
            if remaining <= 1e-15:
                break
        return total

    kinks = np.cumsum(p_y[order])
    candidates = [lo, hi] + [float(c) for c in kinks if lo < c < hi]
    return min(allocated_cost(m) for m in candidates)


def highs_dp_oracle(problem, p_level):
    """Curve value from scipy's HiGHS on the transport program, built here.

    Variables are the joint masses ``w[xhat, y] = p_y[y] q[xhat, y]``
    of the estimator, as in the package's program, and a coupling
    ``pi[x, xhat]`` between the source marginal and the output marginal
    ``sum_y w[:, y]``; the rows are ``sum_xhat w[xhat, y] = p_y[y]``, the
    costs ``problem.conditional``, and the perception budget is an
    inequality row.  HiGHS's feasibility tolerance is 1e-10 in these mass
    units, so it may still miss by about that where an observation
    weighs less.  Callers skip the test when scipy is missing.
    """
    from scipy.optimize import linprog

    h = problem.metric.h
    n_x, n_y = problem.n_x, problem.n_y
    p_x, p_y = problem.p_x, problem.p_y
    nq = n_x * n_y
    a_eq = np.zeros((n_y + 2 * n_x, nq + n_x * n_x))
    for y in range(n_y):
        a_eq[y, y:nq:n_y] = 1.0  # column y of w is p_y[y]
    for x in range(n_x):
        a_eq[n_y + x, nq + x * n_x : nq + (x + 1) * n_x] = 1.0  # row x of pi is p_x[x]
    for xhat in range(n_x):
        a_eq[n_y + n_x + xhat, xhat * n_y : (xhat + 1) * n_y] = 1.0
        a_eq[n_y + n_x + xhat, nq + xhat :: n_x] = -1.0  # column xhat of pi is the output mass
    b_eq = np.concatenate([p_y, p_x, np.zeros(n_x)])
    a_ub = np.concatenate([np.zeros(nq), h.reshape(-1)])[None, :]
    c = np.concatenate([problem.conditional.reshape(-1), np.zeros(n_x * n_x)])
    res = linprog(
        c, A_ub=a_ub, b_ub=[p_level], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def dual_check(lp: StandardLP, sol: LPSolution, *, tol: float = 1e-9) -> float:
    """Verify the dual certificate of an optimal solution.

    Returns the duality gap ``|c.x - dual.b|`` and raises if the dual
    vector violates feasibility ``dual.a <= c`` beyond ``tol``.
    """
    slack = sol.dual @ lp.a - lp.c
    worst = int(np.argmax(slack))
    if slack[worst] > tol:
        raise SolverError(
            f"dual vector infeasible at column {worst} (violation {slack[worst]:g})"
        )
    return abs(float(lp.c @ sol.x) - float(sol.dual @ lp.b))


def cold_solve(lp: StandardLP) -> LPSolution:
    """``solve`` where no basis is known: a phase one, kept in the tests.

    Solves the auxiliary program ``[a | diag(sign b)]``, with unit costs
    on the artificial columns, from its artificial basis, which is
    feasible at ``|b|``.  At an artificial mass of 0, every artificial
    still basic (at 0) is pivoted out through ``_Tableau.row`` and
    ``pivot`` for the structural column of largest magnitude in its row,
    and ``lp`` is solved from the basis reached.  ``iterations`` and
    ``refactorizations`` add up both solves.  A positive artificial mass
    (``lp`` is infeasible) or an artificial that cannot leave (its row
    depends on the others) fails an assertion.
    """
    m, n = lp.m, lp.n
    signs = np.diag(np.where(lp.b < 0, -1.0, 1.0))
    aux = StandardLP(np.hstack([lp.a, signs]), lp.b, np.concatenate([np.zeros(n), np.ones(m)]))
    first = solve(aux, range(n, n + m))
    assert first.value <= 1e-9 * max(1.0, float(np.abs(lp.b).max(initial=0.0))), "infeasible"
    tab = _Tableau(aux.a, aux.b, aux.c, first.basis)
    for row in np.flatnonzero(tab.basis >= n).tolist():
        line = tab.row(row)
        col = int(np.argmax(np.abs(line[:n])))
        assert abs(line[col]) > 1e-9, f"equality row {row} depends on the others"
        tab.pivot(row, col, line)
    sol = solve(lp, tab.basis)
    return replace(
        sol,
        iterations=first.iterations + sol.iterations,
        refactorizations=first.refactorizations + sol.refactorizations,
    )


def flow_dual(problem):
    """The complete graph's flow dual, as ``curve_by_vertices`` enumerates it."""
    return _flow_dual(build_ot_form(problem, 0.0)[0])


def transport_dual(problem):
    """The dual of the transport program, with a coupling block, as a polyhedron.

    Coordinates: (stochasticity[n_y], source[n_x], output[n_x - 1],
    price), the last output dual pinned to 0.  Rows, in the program's
    column order: ``e_y + e_out(xhat) <= cond[xhat, y]``, then
    ``e_src(x) - e_out(xhat) - h[x, xhat] e_price <= 0`` for every cell
    of the coupling, diagonal included, then ``-price <= 0``.  Its
    degenerate vertices carry many bases, so it fixes the vertex walk's
    tie-break in tests.
    """
    n_x, n_y = problem.n_x, problem.n_y
    e_out = np.vstack([np.eye(n_x - 1), np.zeros((1, n_x - 1))])
    estimator_rows = np.hstack([
        np.kron(np.ones((n_x, 1)), np.eye(n_y)),
        np.zeros((n_x * n_y, n_x)),
        np.kron(e_out, np.ones((n_y, 1))),
        np.zeros((n_x * n_y, 1)),
    ])
    coupling_rows = np.hstack([
        np.zeros((n_x * n_x, n_y)),
        np.kron(np.eye(n_x), np.ones((n_x, 1))),
        -np.kron(np.ones((n_x, 1)), e_out),
        -problem.metric.h.reshape(-1, 1),
    ])
    price_row = np.eye(n_y + 2 * n_x)[-1:] * -1.0
    return HPolyhedron(
        np.vstack([estimator_rows, coupling_rows, price_row]),
        np.concatenate([problem.conditional.reshape(-1), np.zeros(n_x * n_x + 1)]),
    )


def brute_force_vertices(poly, *, feas_tol=1e-9, dedup_tol=1e-7):
    """Vertices of ``{p : g p <= h}`` by solving every d-subset of rows.

    Candidate bases whose rows miss a coordinate, or whose matrix is
    ill-conditioned against the Hadamard bound, are skipped; the solved
    points that satisfy all k rows within ``feas_tol`` are deduplicated
    at ``dedup_tol`` and sorted lexicographically on coordinates rounded
    to 1e-9.  Cost is C(k, d) small solves, so keep k and d small.
    """
    singular_tol, chunk = 1e-11, 65536
    g, h = poly.g, poly.h
    k, d = g.shape
    if k < d:
        return np.empty((0, d))
    row_mask = np.zeros(k, dtype=np.uint32)
    for j in range(d):
        row_mask |= (g[:, j] != 0.0).astype(np.uint32) << j
    full_mask = np.uint32((1 << d) - 1)

    found = []
    combos = itertools.combinations(range(k), d)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        idx = np.array(block, dtype=int)
        idx = idx[np.bitwise_or.reduce(row_mask[idx], axis=1) == full_mask]
        if idx.size == 0:
            continue
        mats = g[idx]
        rhs = h[idx]
        dets = np.abs(np.linalg.det(mats))
        scale = np.prod(np.linalg.norm(mats, axis=2), axis=1)
        solvable = dets > singular_tol * np.maximum(scale, 1e-12)
        if not np.any(solvable):
            continue
        mats, rhs = mats[solvable], rhs[solvable]
        pts = np.linalg.solve(mats, rhs[..., None])[..., 0]
        exact = np.max(np.abs(np.einsum("bij,bj->bi", mats, pts) - rhs), axis=1) <= feas_tol
        pts = pts[exact]
        feasible = np.all(pts @ g.T <= h[None, :] + feas_tol, axis=1)
        found.append(pts[feasible])

    pts = np.vstack([np.empty((0, d))] + found)
    if pts.shape[0] == 0:
        return pts
    _, first = np.unique(np.round(pts, 9), axis=0, return_index=True)
    pts = pts[first]
    pts = pts[np.lexsort(pts.T[::-1])]
    reps = []
    for p in pts:
        if reps and np.min(np.linalg.norm(np.asarray(reps) - p, axis=1)) <= dedup_tol:
            continue
        reps.append(p)
    out = np.asarray(reps)
    return out[np.lexsort(np.round(out, 9).T[::-1])]


def vertex_start(poly, *, feas_tol=1e-9):
    """A walk start: d independent rows tight at the first brute-force vertex.

    Rows are taken in index order, each kept when it raises the rank.
    """
    g, h = poly.g, poly.h
    vertex = brute_force_vertices(poly)[0]
    rows = []
    for i in np.nonzero(np.abs(g @ vertex - h) <= feas_tol)[0]:
        if np.linalg.matrix_rank(g[rows + [int(i)]]) > len(rows):
            rows.append(int(i))
    return rows


def sign_identity_tv(p, q):
    """Total variation as the paper's sign expansion, for n <= 6 symbols.

    ``TV(p, q) = max s.(p - q) / 2`` over the ``2^n - 2`` sign vectors
    ``s`` in ``{-1, +1}^n`` that are not constant: the constant ones give
    0 because both laws sum to 1.
    """
    diff = np.asarray(p, float) - np.asarray(q, float)
    n = diff.size
    assert 2 <= n <= 6
    signs = [s for s in itertools.product((-1.0, 1.0), repeat=n) if len(set(s)) == 2]
    return max(float(np.dot(s, diff)) for s in signs) / 2.0


def breakpoint_candidates(points, *, dedup_tol=1e-9):
    """All pairwise crossings of lines ``(intercept, slope)`` inside [0, 1].

    Deduplicated within ``dedup_tol`` and sorted.  Every breakpoint of
    the lower envelope is a crossing of two of its lines, hence a member
    of this set.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 2:
        return np.empty(0)
    a = pts[:, 0]
    s = pts[:, 1]
    da = a[:, None] - a[None, :]
    ds = s[None, :] - s[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(np.abs(ds) > 1e-14, da / ds, np.nan)
    vals = cross[np.triu_indices_from(cross, k=1)]
    vals = vals[np.isfinite(vals)]
    vals = vals[(vals >= -dedup_tol) & (vals <= 1.0 + dedup_tol)]
    if vals.size == 0:
        return np.empty(0)
    vals = np.clip(np.sort(vals), 0.0, 1.0)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > dedup_tol:
            out.append(v)
    return np.asarray(out)


def random_distribution(rng, n):
    p = rng.uniform(0.0, 1.0, n) + 1e-9
    return p / p.sum()
