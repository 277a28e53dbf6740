"""Simplex core and vertex enumeration."""

import numpy as np
import pytest

from dptradeoff import (
    BudgetExceededError,
    GroundMetric,
    HPolyhedron,
    IterationLimitError,
    LPSolution,
    ProblemError,
    SolverError,
    StandardLP,
    curve_by_vertices,
    dual_check,
    enumerate_vertices,
    solve,
    tv_distance,
)
from dptradeoff import lp as lpmod
from dptradeoff.lp import _TIE_TOL, _Tableau, walk
from dptradeoff.programs import _crash_basis, build_ot_form, dual_polyhedron, solve_dp_at

from conftest import brute_force_vertices, highs_dp_oracle, random_problem, transport_dual, vertex_start
from test_programs import _highs_cases


# d rows of a vertex of ``transport_dual(random_problem(seed, 3, 4))``: the
# optimal basis at P = 0 of the transport program, whose columns are the
# dual's rows
TRANSPORT_3X4_STARTS = {
    0: (0, 4, 5, 7, 9, 10, 12, 14, 16, 20),
    1: (1, 3, 6, 7, 8, 11, 12, 15, 16, 20),
    4: (0, 2, 6, 9, 10, 11, 12, 15, 16, 20),
}


def random_feasible_lp(rng, m, n):
    """Feasible by construction (b = a @ x0) and bounded (c >= 0)."""
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    b = a @ x0
    c = np.abs(rng.normal(size=n))
    return StandardLP(a, b, c)


class TestSolve:
    def test_single_equality(self):
        sol = solve(StandardLP([[1.0]], [1.0], [1.0]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_with_ray(self):
        # min -x  s.t.  x - s = 0 allows unbounded growth along (1, 1)
        lp = StandardLP([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert sol.ray is not None
        assert np.allclose(lp.a @ sol.ray, 0.0, atol=1e-12)
        assert lp.c @ sol.ray < -1e-9

    def test_infeasible_with_certificate(self):
        lp = StandardLP([[1.0]], [-1.0], [0.0])
        sol = solve(lp)
        assert sol.status == "infeasible"
        y = sol.certificate
        assert y @ lp.b > 1e-9
        assert np.all(y @ lp.a <= 1e-9)

    def test_transportation_value_equals_tv(self):
        p, q = np.array([0.6, 0.4]), np.array([1.0, 0.0])
        a = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
        b = np.concatenate([p, q])
        c = GroundMetric.hamming(2).h.reshape(-1)
        sol = solve(StandardLP(a, b, c))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(tv_distance(p, q), abs=1e-12)
        assert len(sol.dropped_rows) == 1  # one marginal row is redundant

    def test_iteration_budget_reported_distinctly(self):
        rng = np.random.default_rng(0)
        lp = random_feasible_lp(rng, 8, 16)
        with pytest.raises(IterationLimitError, match="budget"):
            solve(lp, max_iter=1)

    def test_rejects_nonfinite(self):
        with pytest.raises(SolverError, match="non-finite"):
            StandardLP([[np.nan]], [1.0], [1.0])

    def test_rejects_a_program_without_columns(self):
        with pytest.raises(SolverError, match="at least one column"):
            solve(StandardLP(np.zeros((1, 0)), [0.0], np.zeros(0)))


class TestRandomInstances:
    def test_500_random_feasible_bounded_lps(self):
        rng = np.random.default_rng(42)
        for trial in range(500):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(m, 41))
            lp = random_feasible_lp(rng, m, n)
            sol = solve(lp)
            assert sol.status == "optimal", f"trial {trial}"
            scale = max(1.0, np.abs(lp.b).max())
            assert np.max(np.abs(lp.a @ sol.x - lp.b)) <= 1e-9 * scale
            assert np.min(sol.x) >= -1e-10
            assert dual_check(lp, sol) <= 1e-8
            # basic solutions have at most m strictly positive coordinates
            assert int(np.sum(sol.x > 1e-9)) <= m


def transport_lp(p, q):
    """Couplings of (p, q) under the Hamming cost; one marginal row is dependent."""
    n = len(p)
    a = np.zeros((2 * n, n * n))
    for i in range(n):
        a[i, i * n : (i + 1) * n] = 1.0
        a[n + i, i::n] = 1.0
    return StandardLP(a, np.concatenate([p, q]), GroundMetric.hamming(n).h.reshape(-1))


def walk_to(lp, start, b_start, **kwargs):
    """The walk's solution of ``lp`` from ``start``, optimal at right-hand side ``b_start``."""
    return walk(lp, start, np.asarray(b_start) - lp.b, 1.0, **kwargs)[0]


class TestWarmStart:
    def test_same_b_takes_no_pivots(self):
        rng = np.random.default_rng(3)
        lps = [random_feasible_lp(rng, 6, 14) for _ in range(10)]
        lps.append(transport_lp([0.6, 0.3, 0.1], [0.2, 0.2, 0.6]))
        for lp in lps:
            cold = solve(lp)
            for warm in (walk_to(lp, cold, lp.b), walk(lp, cold, np.ones(lp.m), 0.0)[0]):
                assert warm.status == "optimal"
                assert warm.iterations == 0
                assert warm.refactorizations == 1
                assert warm.basis == cold.basis
                assert warm.dropped_rows == cold.dropped_rows
                assert warm.value == pytest.approx(cold.value, abs=1e-12)

    def test_perturbed_b_matches_cold(self):
        rng = np.random.default_rng(42)
        warm_pivots = cold_pivots = 0
        for trial in range(200):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(m, 41))
            lp = random_feasible_lp(rng, m, n)
            first = solve(lp)
            # a @ (x0 + u / 10) for the generator's feasible x0
            moved = StandardLP(lp.a, lp.b + lp.a @ rng.uniform(0.0, 0.1, n), lp.c)
            cold = solve(moved)
            warm = walk_to(moved, first, lp.b)
            assert warm.status == cold.status == "optimal", f"trial {trial}"
            assert warm.value == pytest.approx(cold.value, abs=1e-9), f"trial {trial}"
            scale = max(1.0, np.abs(moved.b).max())
            assert np.max(np.abs(moved.a @ warm.x - moved.b)) <= 1e-9 * scale
            assert np.min(warm.x) >= -1e-10
            assert dual_check(moved, warm) <= 1e-8
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots

    def test_infeasible_b_gives_certificate(self):
        # x1 + x2 = b1, x1 - x3 = b2: infeasible once b1 < 0 or b2 > b1.
        # The cold solve certifies it; the walk stops where the program ends.
        lp = StandardLP([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.5], [1.0, 2.0, 0.0])
        first = solve(lp)
        assert first.status == "optimal"
        for b in ([1.0, 2.0], [-1.0, -3.0]):
            moved = StandardLP(lp.a, b, lp.c)
            cold = solve(moved)
            assert cold.status == "infeasible"
            y = cold.certificate
            assert np.all(y @ moved.a <= 1e-9)
            assert y @ moved.b > 0
            with pytest.raises(SolverError, match="infeasible"):
                walk_to(moved, first, lp.b)

    def test_inconsistent_dropped_row_is_infeasible(self):
        lp = transport_lp([0.6, 0.3, 0.1], [0.2, 0.2, 0.6])
        first = solve(lp)
        assert first.dropped_rows
        moved = transport_lp([0.6, 0.3, 0.1], [0.2, 0.2, 0.7])  # masses 1 and 1.1
        assert solve(moved).status == "infeasible"
        with pytest.raises(SolverError, match="inconsistent"):
            walk_to(moved, first, lp.b)

    def test_pivot_budget_applies(self):
        prob = random_problem(1, 5, 10, random_distortion=True)
        lp, lay = build_ot_form(prob, 0.0)
        start = _crash_basis(prob, lay)
        assert walk(lp, start, lay.level_direction, 1.0)[0].iterations > 0
        with pytest.raises(IterationLimitError, match="budget"):
            walk(lp, start, lay.level_direction, 1.0, max_iter=0)

    def test_start_of_another_shape_raises(self):
        rng = np.random.default_rng(5)
        small = solve(random_feasible_lp(rng, 4, 9))
        with pytest.raises(SolverError, match="rows"):
            walk(random_feasible_lp(rng, 5, 9), small, np.zeros(5), 0.0)
        with pytest.raises(SolverError, match="out of range"):
            walk(random_feasible_lp(rng, 4, 6), small, np.zeros(4), 0.0)

    def test_singular_or_unsolved_start_raises(self):
        import dataclasses

        rng = np.random.default_rng(6)
        lp = random_feasible_lp(rng, 3, 7)
        sol = solve(lp)
        twice = dataclasses.replace(sol, basis=(sol.basis[0],) * 3)
        with pytest.raises(SolverError, match="singular"):
            walk(lp, twice, np.zeros(3), 0.0)
        infeasible = solve(StandardLP([[1.0]], [-1.0], [0.0]))
        with pytest.raises(SolverError, match="optimal"):
            walk(StandardLP([[1.0]], [1.0], [0.0]), infeasible, np.zeros(1), 0.0)

    def test_start_infeasible_where_the_walk_starts_raises(self):
        # the optimal basis at b1 = 1, b2 = 0.5 is x1 = b1, x3 = b1 - b2: a
        # start claimed at b2 = 2 has x3 = -1 there
        lp = StandardLP([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.5], [1.0, 2.0, 0.0])
        first = solve(lp)
        with pytest.raises(SolverError, match="not optimal"):
            walk_to(lp, first, [1.0, 2.0])
        # a basis that is feasible there but not dual feasible: x2 for x1
        with pytest.raises(SolverError, match="not optimal"):
            walk_to(lp, LPSolution("optimal", basis=(1, 2)), [1.0, -0.5])


class TestRevisedTableau:
    def test_matches_a_fresh_solve_after_every_pivot(self, monkeypatch):
        rng = np.random.default_rng(42)
        runs = []
        for _ in range(200):  # the generator of TestRandomInstances, cold solves
            m = int(rng.integers(1, 21))
            runs.append((random_feasible_lp(rng, m, int(rng.integers(m, 41))), None, None))
        # a flow program, cold, from another level's basis and from P = 1
        prob = random_problem(1, 5, 10, random_distortion=True, random_metric=True)
        ot, lay = build_ot_form(prob, 0.1)
        zero = build_ot_form(prob, 0.0)[0]
        runs += [(ot, None, None), (zero, solve(ot), 0.1), (zero, _crash_basis(prob, lay), 1.0)]
        pivot, checked = _Tableau.pivot, []

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

        def pivot_and_check(tab, row, col):
            pivot(tab, row, col)
            base = tab.a[:, tab.basis]
            binv_a = np.linalg.solve(base, tab.a)
            xb, rate = np.linalg.solve(base, np.column_stack([tab.b, tab.d])).T
            red = tab.c - np.linalg.solve(base.T, tab.c[tab.basis]) @ tab.a
            rows = np.array([tab.row(r) for r in range(tab.m)])
            columns = np.column_stack([tab.column(j) for j in range(tab.n)])
            assert close(rows, binv_a) and close(columns, binv_a)
            assert close(tab.xb, xb) and close(tab.rate, rate) and close(tab.red, red)
            assert np.array_equal(rows[:, tab.basis], np.eye(tab.m))
            checked.append((row, col))

        monkeypatch.setattr(_Tableau, "pivot", pivot_and_check)
        for lp, start, span in runs:
            if start is None:
                solve(lp)
            else:
                walk(lp, start, lay.level_direction, span)
        assert len(checked) > 1000


class TestBasicColumnMask:
    def test_dual_bland_never_enters_a_basic_column(self, monkeypatch):
        # a formed row reads about -2e-11 at some basic column here unless it
        # is masked, which passes the pivot tolerance and derails the walk
        prob = next(c.values[0] for c in _highs_cases() if c.id == "10x40-skewed-metric-ot")
        bland, entered = lpmod._dual_bland, []

        def watched(tab, rows):
            row, col = bland(tab, rows)
            entered.append(col in tab.basis)
            return row, col

        monkeypatch.setattr(lpmod, "_dual_bland", watched)
        rep = solve_dp_at(prob, 0.0)
        assert entered and not any(entered)
        pytest.importorskip("scipy")
        assert rep.value == pytest.approx(highs_dp_oracle(prob, 0.0), abs=1e-8)


class TestDualCheck:
    def test_gap_small_on_optimal(self):
        rng = np.random.default_rng(7)
        lp = random_feasible_lp(rng, 5, 9)
        sol = solve(lp)
        assert dual_check(lp, sol) <= 1e-10

    def test_requires_optimal_status(self):
        lp = StandardLP([[1.0]], [-1.0], [0.0])
        sol = solve(lp)
        with pytest.raises(SolverError, match="optimal"):
            dual_check(lp, sol)

    def test_perturbed_dual_reported(self):
        import dataclasses

        rng = np.random.default_rng(11)
        lp = random_feasible_lp(rng, 4, 8)
        sol = solve(lp)
        bad = dataclasses.replace(sol, dual=sol.dual + 1.0)
        with pytest.raises(SolverError, match="infeasible at column"):
            dual_check(lp, bad)


class TestVertexEnumeration:
    def test_unit_square(self):
        g = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        h = np.ones(4)
        verts = enumerate_vertices(HPolyhedron(g, h), [1, 3])
        expected = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        assert verts.shape == (4, 2)
        assert np.allclose(verts, expected)

    def test_probability_simplex_2d(self):
        g = np.array([[-1.0, 0], [0, -1], [1, 1]])
        h = np.array([0.0, 0.0, 1.0])
        verts = enumerate_vertices(HPolyhedron(g, h), [0, 1])
        expected = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(verts, expected)

    def test_singular_start_raises(self):
        # a strip between two parallel lines: no two rows meet at a point
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(SolverError, match="singular"):
            enumerate_vertices(HPolyhedron(g, np.ones(2)), [0, 1])

    def test_infeasible_start_raises(self):
        # (1, 1) solves the first two rows of the simplex but breaks x + y <= 1
        g = np.array([[1.0, 0], [0, 1], [1, 1], [-1, 0], [0, -1]])
        h = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        with pytest.raises(SolverError, match="violates"):
            enumerate_vertices(HPolyhedron(g, h), [0, 1])

    @pytest.mark.parametrize("start", [[1], [1, 3, 0], [1, 1], [1, 4]])
    def test_malformed_start_raises(self, start):
        g = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        with pytest.raises(SolverError, match="distinct rows"):
            enumerate_vertices(HPolyhedron(g, np.ones(4)), start)

    def test_budget_exceeded(self):
        # the 4-cube is simple: 16 vertices, one basis each
        g = np.vstack([np.eye(4), -np.eye(4)])
        poly = HPolyhedron(g, np.ones(8))
        assert enumerate_vertices(poly, [4, 5, 6, 7], budget=16).shape == (16, 4)
        with pytest.raises(BudgetExceededError, match="more than 15 bases"):
            enumerate_vertices(poly, [4, 5, 6, 7], budget=15)

    @pytest.mark.parametrize("seed,bases", [(0, 80), (1, 79), (4, 78)])
    def test_lexicographic_rule_on_degenerate_dual(self, seed, bases):
        # a Hamming 3x4 transport dual walked from the transport program's
        # P = 0 basis: 51 vertices carry up to 80 bases, so many ratio tests
        # tie.  The count pins the tie-break: reading the perturbation columns
        # in reverse rank order, or without the basis rows' columns, visits
        # 102-150.
        poly, start = transport_dual(random_problem(seed, 3, 4)), TRANSPORT_3X4_STARTS[seed]
        assert enumerate_vertices(poly, start, budget=bases).shape == (51, 10)
        with pytest.raises(BudgetExceededError, match=f"more than {bases - 1} bases"):
            enumerate_vertices(poly, start, budget=bases - 1)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_raises(self, budget):
        # the start basis alone is one basis, so no budget below 1 can hold a walk
        g = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        with pytest.raises(ProblemError, match="at least 1"):
            enumerate_vertices(HPolyhedron(g, np.ones(4)), [1, 3], budget=budget)
        with pytest.raises(ProblemError, match="at least 1"):
            curve_by_vertices(random_problem(0, 2, 3), budget=budget)

    def test_dimension_guard(self):
        g = np.eye(17)
        with pytest.raises(BudgetExceededError, match="dimension"):
            enumerate_vertices(HPolyhedron(g, np.ones(17)), range(17))

    @pytest.mark.parametrize("seed", range(15))
    def test_each_vertex_has_d_active_rows(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        g = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(6, d))])
        h = np.concatenate([np.ones(2 * d), np.abs(rng.normal(size=6)) + 0.5])
        poly = HPolyhedron(g, h)
        verts = enumerate_vertices(poly, vertex_start(poly))
        assert verts.shape[0] >= 1
        for v in verts:
            slack = g @ v - h
            assert np.max(slack) <= 1e-9
            assert int(np.sum(np.abs(slack) <= 1e-9)) >= d

    @pytest.mark.parametrize("seed", range(15))
    def test_vertex_minimum_matches_simplex(self, seed):
        # bounded polytope: box cut by random halfplanes; LP over it in
        # standard form must agree with brute-force minimum over vertices
        rng = np.random.default_rng(500 + seed)
        d = int(rng.integers(2, 5))
        cuts = rng.normal(size=(5, d))
        levels = np.abs(rng.normal(size=5)) + 1.0
        g = np.vstack([np.eye(d), -np.eye(d), cuts])
        h = np.concatenate([np.ones(d), np.zeros(d), levels])  # 0 <= x <= 1
        poly = HPolyhedron(g, h)
        verts = enumerate_vertices(poly, vertex_start(poly))
        c = rng.normal(size=d)
        best = min(float(c @ v) for v in verts)

        # standard form: g x + s = h; the -x <= 0 rows keep x >= 0 consistent
        k = g.shape[0]
        a = np.hstack([g, np.eye(k)])
        cc = np.concatenate([c, np.zeros(k)])
        sol = solve(StandardLP(a, h, cc))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(best, abs=1e-8)


class TestWalkAgainstBruteForce:
    """The basis walk returns what solving every d-subset of rows returns."""

    @staticmethod
    def assert_same(poly, start=None):
        walk = enumerate_vertices(poly, vertex_start(poly) if start is None else start)
        brute = brute_force_vertices(poly)
        assert walk.shape == brute.shape
        assert np.max(np.abs(walk - brute), initial=0.0) <= 1e-7  # brute_force_vertices' dedup

    @pytest.mark.parametrize("n_x,n_y", [(2, 3), (2, 5), (3, 3), (3, 4)])
    @pytest.mark.parametrize("random_metric", [False, True])
    @pytest.mark.parametrize("random_distortion", [False, True])
    def test_dual_polyhedra(self, n_x, n_y, random_metric, random_distortion):
        prob = random_problem(
            n_x + n_y, n_x, n_y,
            random_distortion=random_distortion, random_metric=random_metric,
        )
        self.assert_same(dual_polyhedron(prob), solve_dp_at(prob, 0.0).solution.basis)

    @pytest.mark.parametrize("seed", range(15))
    def test_boxes_with_random_cuts(self, seed):
        # the two generators of TestVertexEnumeration, on the same seeds
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        g = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(6, d))])
        h = np.concatenate([np.ones(2 * d), np.abs(rng.normal(size=6)) + 0.5])
        self.assert_same(HPolyhedron(g, h))

        rng = np.random.default_rng(500 + seed)
        d = int(rng.integers(2, 5))
        cuts = rng.normal(size=(5, d))
        levels = np.abs(rng.normal(size=5)) + 1.0
        g = np.vstack([np.eye(d), -np.eye(d), cuts])
        h = np.concatenate([np.ones(d), np.zeros(d), levels])
        self.assert_same(HPolyhedron(g, h))

    def test_duplicated_rows(self):
        # unit cube with its corner (1, 1, 1) cut off through three vertices,
        # every row written twice: each vertex is tight on at least six rows
        g = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
        h = np.concatenate([np.ones(3), np.zeros(3), [2.0]])
        poly = HPolyhedron(np.vstack([g, g]), np.concatenate([h, h]))
        assert enumerate_vertices(poly, vertex_start(poly)).shape == (7, 3)
        self.assert_same(poly)

    def test_unbounded_polyhedron(self):
        # the nonnegative quadrant shifted to (1, 2): one vertex, two rays
        g = -np.eye(2)
        verts = enumerate_vertices(HPolyhedron(g, np.array([-1.0, -2.0])), [0, 1])
        assert np.allclose(verts, [[1.0, 2.0]])


class TestBlockSize:
    """The walk's block size changes neither its vertices nor its basis count."""

    @staticmethod
    def cases():
        cube = HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
        yield cube, [4, 5, 6, 7], 16
        for seed, bases in [(0, 80), (1, 79), (4, 78)]:  # test_lexicographic_rule_on_degenerate_dual
            yield transport_dual(random_problem(seed, 3, 4)), TRANSPORT_3X4_STARTS[seed], bases
        prob = random_problem(0, 3, 4)  # its flow dual: 23 vertices on 28 bases
        yield dual_polyhedron(prob), solve_dp_at(prob, 0.0).solution.basis, 28
        prob = random_problem(2, 3, 5, random_metric=True)
        yield dual_polyhedron(prob), solve_dp_at(prob, 0.0).solution.basis, None

    @pytest.mark.parametrize("block", [1, 10_000])
    def test_same_vertices_and_budget_thresholds(self, monkeypatch, block):
        cases = list(self.cases())
        default = [enumerate_vertices(poly, start) for poly, start, _ in cases]
        monkeypatch.setattr(lpmod, "_BLOCK", block)
        for (poly, start, bases), verts in zip(cases, default):
            walked = enumerate_vertices(poly, start)
            assert walked.shape == verts.shape
            assert np.max(np.abs(walked - verts)) <= 1e-15
            if bases is not None:
                assert enumerate_vertices(poly, start, budget=bases).shape == verts.shape
                with pytest.raises(BudgetExceededError, match=f"more than {bases - 1} bases"):
                    enumerate_vertices(poly, start, budget=bases - 1)

    def test_ties_match_a_loop_over_each_tie(self, monkeypatch):
        # the array tie-break against the per-tie loop it replaced, which
        # formed each tied row's perturbed slack over all k ranks
        def by_tie(tied, rates, at, edge, basis, rank):
            out = []
            for e in range(len(tied)):
                rows, b, j = np.flatnonzero(tied[e]), basis[at[e]], edge[e]
                slack = np.zeros((rank.size, rank.size))
                slack[:, rank[b]] = rates[at[e]]
                slack[np.arange(rank.size), rank] += 1.0
                for col in np.sort(rank[np.concatenate([b, rows])]):
                    lex = slack[rows, col] / rates[at[e], rows, j]
                    rows = rows[lex <= lex.min() + _TIE_TOL * max(1.0, abs(lex.min()))]
                out.append(rows[0])
            return out

        split, ties = lpmod._lex_split, []

        def checked(*args):
            entering = split(*args)
            assert entering.tolist() == by_tie(*args)
            ties.append(entering.size)
            return entering

        monkeypatch.setattr(lpmod, "_lex_split", checked)
        for poly, start, _ in self.cases():
            enumerate_vertices(poly, start)
        assert sum(ties) > 100
