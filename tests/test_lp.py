"""Simplex core and vertex enumeration."""

from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest

from dptradeoff import (
    BudgetExceededError,
    GroundMetric,
    HPolyhedron,
    IterationLimitError,
    ProblemError,
    SolverError,
    StandardLP,
    curve_by_vertices,
    enumerate_vertices,
    solve,
    tv_distance,
)
from dptradeoff import lp as lpmod
from dptradeoff.lp import _TIE_TOL, _Tableau, walk
from dptradeoff.programs import _crash_basis, build_ot_form, solve_dp_at

from conftest import (
    brute_force_vertices,
    cold_solve,
    dual_check,
    flow_dual,
    highs_dp_oracle,
    random_problem,
    transport_dual,
    vertex_start,
)
from test_programs import _highs_cases


# d rows of a vertex of ``transport_dual(random_problem(seed, 3, 4))``: the
# optimal basis at P = 0 of the transport program, whose columns are the
# dual's rows
TRANSPORT_3X4_STARTS = {
    0: (0, 4, 5, 7, 9, 10, 12, 14, 16, 20),
    1: (1, 3, 6, 7, 8, 11, 12, 15, 16, 20),
    4: (0, 2, 6, 9, 10, 11, 12, 15, 16, 20),
}


# x1 + x2 = 1, x1 - x3 = 0.5 at costs (1, 2, 0): the basis [0, 2] is optimal,
# [0, 1] feasible but not optimal, [1, 2] infeasible (x3 = -0.5)
_TWO_ROWS = StandardLP([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.5], [1.0, 2.0, 0.0])


def random_feasible_lp(rng, m, n):
    """Feasible by construction (b = a @ x0) and bounded (c >= 0)."""
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    b = a @ x0
    c = np.abs(rng.normal(size=n))
    return StandardLP(a, b, c)


class TestSolve:
    def test_single_equality(self):
        sol = solve(StandardLP([[1.0]], [1.0], [1.0]), [0])
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_transportation_value_equals_tv(self):
        # both row sums and the first column sum: the last column sum is
        # the others' total less the first, so it is left out; the start is
        # the north-west-corner staircase x00 = 0.6, x10 = 0.4, x11 = 0
        p, q = np.array([0.6, 0.4]), np.array([1.0, 0.0])
        a = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 0.0],
            ]
        )
        b = np.concatenate([p, q[:1]])
        c = GroundMetric.hamming(2).h.reshape(-1)
        sol = solve(StandardLP(a, b, c), [0, 2, 3])
        assert sol.value == pytest.approx(tv_distance(p, q), abs=1e-12)

    def test_iteration_budget_reported_distinctly(self, monkeypatch):
        rng = np.random.default_rng(0)
        lp = random_feasible_lp(rng, 8, 16)
        monkeypatch.setattr(lpmod, "_PIVOT_BUDGET", 0)
        with pytest.raises(IterationLimitError, match=r"^pivot budget 0 exhausted \(cycling"):
            cold_solve(lp)

    def test_rejects_nonfinite(self):
        with pytest.raises(SolverError, match="non-finite"):
            StandardLP([[np.nan]], [1.0], [1.0])

    @pytest.mark.parametrize(
        "b, c", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 1.0])], ids=["b-too-long", "c-too-long"]
    )
    def test_rejects_inconsistent_dimensions(self, b, c):
        with pytest.raises(SolverError, match="inconsistent LP dimensions"):
            StandardLP([[1.0]], b, c)

    def test_rejects_a_program_without_columns(self):
        with pytest.raises(SolverError, match="at least one column"):
            solve(StandardLP(np.zeros((1, 0)), [0.0], np.zeros(0)), [0])


class TestRandomInstances:
    def test_500_random_feasible_bounded_lps(self):
        rng = np.random.default_rng(42)
        for trial in range(500):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(m, 41))
            lp = random_feasible_lp(rng, m, n)
            sol = cold_solve(lp)
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


def walk_to(lp, start, b_start):
    """The walk's solution of ``lp`` from the basis ``start``, optimal at ``b_start``.

    The walk moves only the last right-hand-side entry, so ``lp`` gains a
    column ``-(b_start - b)`` and a row ``t = s``: the walk of that program
    is the walk of ``b + s (b_start - b)``.  The extra entry leaves x, the
    basis and the dual.
    """
    d = np.asarray(b_start, dtype=float) - lp.b
    a = np.block([[lp.a, -d[:, None]], [np.zeros(lp.n), 1.0]])
    sol = walk(StandardLP(a, np.append(lp.b, 0.0), np.append(lp.c, 0.0)), [*start, lp.n], 1.0)[0]
    return replace(sol, x=sol.x[:-1], basis=sol.basis[:-1], dual=sol.dual[:-1])


class TestWarmStart:
    def test_same_b_takes_no_pivots(self):
        rng = np.random.default_rng(3)
        lps = [random_feasible_lp(rng, 6, 14) for _ in range(10)]
        full = transport_lp([0.6, 0.3, 0.1], [0.2, 0.2, 0.6])
        lps.append(StandardLP(full.a[:-1], full.b[:-1], full.c))  # without its dependent row
        for lp in lps:
            cold = cold_solve(lp)
            warms = (walk_to(lp, cold.basis, lp.b), walk(lp, cold.basis, 0.0)[0])
            for warm in warms:
                assert warm.iterations == 0
                assert warm.refactorizations == 1
                assert warm.basis == cold.basis
                assert warm.value == pytest.approx(cold.value, abs=1e-12)

    def test_perturbed_b_matches_cold(self):
        rng = np.random.default_rng(42)
        warm_pivots = cold_pivots = 0
        for trial in range(200):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(m, 41))
            lp = random_feasible_lp(rng, m, n)
            first = cold_solve(lp)
            # a @ (x0 + u / 10) for the generator's feasible x0
            moved = StandardLP(lp.a, lp.b + lp.a @ rng.uniform(0.0, 0.1, n), lp.c)
            cold = cold_solve(moved)
            warm = walk_to(moved, first.basis, lp.b)
            assert warm.value == pytest.approx(cold.value, abs=1e-9), f"trial {trial}"
            scale = max(1.0, np.abs(moved.b).max())
            assert np.max(np.abs(moved.a @ warm.x - moved.b)) <= 1e-9 * scale
            assert np.min(warm.x) >= -1e-10
            assert dual_check(moved, warm) <= 1e-8
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
        assert warm_pivots < cold_pivots

    def test_infeasible_b_stops_the_walk(self):
        # _TWO_ROWS at b: infeasible once b1 < 0 or b2 > b1; the walk from
        # its optimal basis stops where the program ends
        lp = _TWO_ROWS
        for b in ([1.0, 2.0], [-1.0, -3.0]):
            with pytest.raises(SolverError, match="infeasible past s = "):
                walk_to(StandardLP(lp.a, b, lp.c), (0, 2), lp.b)

    def test_pivot_budget_applies(self, monkeypatch):
        prob = random_problem(1, 5, 10, random_distortion=True)
        lp, lay = build_ot_form(prob, 0.0)
        start = _crash_basis(prob, lay)
        assert walk(lp, start, 1.0)[0].iterations > 0
        monkeypatch.setattr(lpmod, "_PIVOT_BUDGET", 0)
        with pytest.raises(IterationLimitError, match="budget"):
            walk(lp, start, 1.0)

    @pytest.mark.parametrize("span", [-1.0, -1e-300, np.nan], ids=["minus-one", "tiny", "nan"])
    def test_span_below_zero_raises(self, span):
        # the walk moves s one way, from the span down to 0
        lp = StandardLP([[1.0, 1.0]], [1.0], [1.0, 2.0])
        with pytest.raises(SolverError, match="from a span >= 0"):
            walk(lp, [0], span)

    @pytest.mark.parametrize(
        "seed,shape", [(1, (3, 5)), (2, (5, 10)), (3, (8, 20))], ids=["3x5", "5x10", "8x20"]
    )
    def test_long_walks_end_where_a_span_of_one_does(self, seed, shape):
        # the crash basis is optimal at every P >= 1, so a walk from any
        # larger level takes the pivots of the walk from 1; an end tolerance
        # scaled by the start's right-hand side once let a walk from 1e9 end
        # "optimal" at a point with x.min() = -0.0101
        prob = random_problem(seed, *shape, random_distortion=True)
        lp, lay = build_ot_form(prob, 0.0)
        start = _crash_basis(prob, lay)
        want = walk(lp, start, 1.0)[0]
        for span in (1e9, 1e12, 1e300):
            got = walk(lp, start, span)[0]
            assert got.iterations == want.iterations, span
            assert np.array_equal(got.x, want.x) and got.value == want.value, span
        with pytest.raises(SolverError, match="from a span >= 0"):
            walk(lp, start, np.inf)

    def test_program_without_rows(self):
        # solve factors an empty basis; a walk has no last right-hand-side
        # entry to move
        lp = StandardLP(np.zeros((0, 3)), np.zeros(0), [1.0, 0.0, 2.0])
        sol = solve(lp, [])
        assert sol.value == 0.0 and sol.basis == ()
        with pytest.raises(SolverError, match="no rows"):
            walk(lp, [], 0.0)

    def test_start_of_another_shape_raises(self):
        rng = np.random.default_rng(5)
        small = cold_solve(random_feasible_lp(rng, 4, 9))
        with pytest.raises(SolverError, match="rows"):
            walk(random_feasible_lp(rng, 5, 9), small.basis, 0.0)
        with pytest.raises(SolverError, match="out of range"):
            walk(random_feasible_lp(rng, 4, 6), small.basis, 0.0)

    def test_start_of_non_integer_columns_raises(self):
        # np.array(start, dtype=np.intp) once truncated 0.5 to column 0, and
        # the walk ended optimal from a start the caller never named
        prob = random_problem(1, 3, 5)
        lp, lay = build_ot_form(prob, 0.0)
        start = _crash_basis(prob, lay)
        walk(lp, start, 1.0)
        for bad in ([j + 0.5 for j in start], [str(j) for j in start], np.asarray(start, dtype=float)):
            with pytest.raises(SolverError, match="not an integer"):
                walk(lp, bad, 1.0)

    def test_singular_start_raises(self):
        rng = np.random.default_rng(6)
        lp = random_feasible_lp(rng, 3, 7)
        sol = cold_solve(lp)
        with pytest.raises(SolverError, match="singular"):
            walk(lp, (sol.basis[0],) * 3, 0.0)

    def test_start_infeasible_where_the_walk_starts_raises(self):
        # the optimal basis of _TWO_ROWS is x1 = b1, x3 = b1 - b2: a start
        # claimed at b2 = 2 has x3 = -1 there
        lp = _TWO_ROWS
        with pytest.raises(SolverError, match="not optimal"):
            walk_to(lp, (0, 2), [1.0, 2.0])
        # a basis that is feasible there but not dual feasible: x2 for x1
        with pytest.raises(SolverError, match="not optimal"):
            walk_to(lp, (1, 2), [1.0, -0.5])


def _walk_at_b(lp, start):
    return walk(lp, start, 0.0)


# min -x subject to x - s = 0: x grows without bound along (1, 1)
_UNBOUNDED = StandardLP([[1.0, -1.0]], [0.0], [-1.0, 0.0])


class TestStartRefusals:
    """``solve`` and ``walk`` share one start check; each refusal's whole text."""

    @pytest.mark.parametrize(
        "run, lp, start, message",
        [
            pytest.param(run, _TWO_ROWS, start, message, id=f"{name}-{case}")
            for name, run in (("solve", solve), ("walk", _walk_at_b))
            for case, start, message in (
                ("length", [0], "start basis covers 1 rows, the program has 2"),
                ("out-of-range", [0, 3], "start basis names a column out of range"),
                ("negative", [-1, 0], "start basis names a column out of range"),
                ("not-an-integer", [0, 2.0], "start basis names a column that is not an integer"),
                ("singular", [0, 0], "singular simplex basis"),
            )
        ]
        + [
            pytest.param(solve, _TWO_ROWS, [1, 2], "start basis is not primal feasible",
                         id="solve-infeasible"),
            pytest.param(_walk_at_b, _TWO_ROWS, [1, 2], "start basis is not optimal where the walk starts",
                         id="walk-infeasible"),
            pytest.param(_walk_at_b, _TWO_ROWS, [0, 1], "start basis is not optimal where the walk starts",
                         id="walk-not-optimal"),
            pytest.param(solve, _UNBOUNDED, [1], "program unbounded below: column 0 enters with no leaving row",
                         id="solve-unbounded"),
        ],
    )
    def test_refusal(self, run, lp, start, message):
        with pytest.raises(SolverError) as exc:
            run(lp, start)
        assert str(exc.value) == message

    def test_accepted_starts(self):
        # the same program from the optimal start takes no pivot, and from the
        # feasible one takes one; the walk accepts the optimal start
        for start, pivots in (([0, 2], 0), ([2, 0], 0), ([0, 1], 1)):
            sol = solve(_TWO_ROWS, start)
            assert (sol.basis, sol.value, sol.iterations) == ((0, 2), 1.0, pivots)
        assert walk(_TWO_ROWS, [0, 2], 0.0)[0].basis == (0, 2)


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
        runs += [(ot, None, None), (zero, cold_solve(ot).basis, 0.1)]
        runs.append((zero, _crash_basis(prob, lay), 1.0))
        pivot, checked = _Tableau.pivot, []

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

        def pivot_and_check(tab, row, col, line):
            pivot(tab, row, col, line)
            base = tab.a[:, tab.basis]
            binv_a = np.linalg.solve(base, tab.a)
            xb, rate = np.linalg.solve(base, np.column_stack([tab.b, np.eye(tab.m)[-1]])).T
            red = tab.c - np.linalg.solve(base.T, tab.c[tab.basis]) @ tab.a
            rows = np.array([tab.row(r) for r in range(tab.m)])
            columns = np.column_stack([tab.column(j) for j in range(tab.n)])
            assert close(rows, binv_a) and close(columns, binv_a)
            assert close(tab.xb, xb) and close(tab.rate, rate) and close(tab.red, red)
            assert np.array_equal(rows[:, tab.basis], np.eye(tab.m))
            checked.append((row, col))

        monkeypatch.setattr(_Tableau, "pivot", pivot_and_check)
        walked = []  # (pivots checked, pivots taken) per walk
        for lp, start, span in runs:
            if start is None:
                cold_solve(lp)
            else:
                before = len(checked)
                sol = walk(lp, start, span)[0]
                walked.append((len(checked) - before, sol.iterations))
        assert len(checked) > 1000
        # every pivot of each walk goes through the hook, so it checks the walk too
        assert all(got == want > 0 for got, want in walked), walked


    @pytest.mark.parametrize(
        "seed, shape, phases, refactors",
        [(3, (20, 40), [64, 63], 4), (0, (30, 60), [123, 100], 6)],
        ids=["20x40", "30x60"],
    )
    def test_refactorizations_of_a_cold_solve(self, monkeypatch, seed, shape, phases, refactors):
        # each phase factors at its start and every lp._REFRESH_EVERY pivots,
        # and once more to confirm optimality unless its last pivot fell on
        # such a refactorization: 64 and 63 pivots give 2 + 2, 123 and 100
        # give 3 + 3
        optimize, pivots = lpmod._optimize, []

        def counted(*args):
            pivots.append(optimize(*args))
            return pivots[-1]

        monkeypatch.setattr(lpmod, "_optimize", counted)
        sol = cold_solve(random_feasible_lp(np.random.default_rng(seed), *shape))
        assert pivots == phases and phases[1] % lpmod._REFRESH_EVERY
        assert (sol.iterations, sol.refactorizations) == (sum(phases), refactors)


class TestBasicColumnMask:
    def test_dual_bland_never_enters_a_basic_column(self, monkeypatch):
        # a formed row reads about -2e-11 at some basic column here unless it
        # is masked, which passes the pivot tolerance and derails the walk
        prob = next(c.values[0] for c in _highs_cases() if c.id == "10x40-skewed-metric-ot")
        bland, entered = lpmod._dual_bland, []

        def watched(tab, rows):
            row, col, line = bland(tab, rows)
            entered.append(col in tab.basis)
            return row, col, line

        monkeypatch.setattr(lpmod, "_dual_bland", watched)
        rep = solve_dp_at(prob, 0.0)
        assert entered and not any(entered)
        pytest.importorskip("scipy")
        assert rep.value == pytest.approx(highs_dp_oracle(prob, 0.0), abs=1e-8)


class TestDualCheck:
    def test_gap_small_on_optimal(self):
        rng = np.random.default_rng(7)
        lp = random_feasible_lp(rng, 5, 9)
        sol = cold_solve(lp)
        assert dual_check(lp, sol) <= 1e-10

    def test_perturbed_dual_reported(self):
        import dataclasses

        rng = np.random.default_rng(11)
        lp = random_feasible_lp(rng, 4, 8)
        sol = cold_solve(lp)
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
        with pytest.raises(SolverError) as exc:
            enumerate_vertices(HPolyhedron(g, np.ones(2)), [0, 1])
        assert str(exc.value) == "start rows [0, 1] are singular"

    def test_infeasible_start_raises(self):
        # (1, 1) solves the first two rows of the simplex but breaks x + y <= 1
        g = np.array([[1.0, 0], [0, 1], [1, 1], [-1, 0], [0, -1]])
        h = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        with pytest.raises(SolverError) as exc:
            enumerate_vertices(HPolyhedron(g, h), [0, 1])
        assert str(exc.value) == "start point violates a row by 1"

    def test_start_refusals_in_the_caller_order(self):
        # rows 1 and 0 meet at (0.4, 0.2), where x + y <= 0.5 is short by
        # 0.1; the excess is read off the walk's first block, and a start
        # that is singular is refused before its point is looked at
        g = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 1.0], [2.0, 2.0]])
        poly = HPolyhedron(g, np.array([1.0, 1.0, 0.5, 2.0]))
        with pytest.raises(SolverError) as exc:
            enumerate_vertices(poly, [1, 0])
        assert str(exc.value) == "start point violates a row by 0.1"
        with pytest.raises(SolverError) as exc:
            enumerate_vertices(poly, [3, 2])
        assert str(exc.value) == "start rows [3, 2] are singular"

    @pytest.mark.parametrize(
        "g, h, message",
        [
            (np.zeros((2, 0)), np.zeros(2), "2-D with d >= 1"),
            (np.eye(2), np.ones(3), "wrong length"),
            (np.eye(2), [1.0, np.inf], "non-finite"),
        ],
        ids=["no-columns", "h-too-long", "infinite"],
    )
    def test_malformed_polyhedron_raises(self, g, h, message):
        with pytest.raises(SolverError, match=message):
            HPolyhedron(g, h)

    # int() once truncated [0.5, 1.7] to rows [0, 1] and read "0" as row 0
    @pytest.mark.parametrize(
        "start", [[1], [1, 3, 0], [1, 1], [1, 4], [0.5, 1.7], ["0", "1"], np.array([1.0, 3.0])]
    )
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

    @pytest.mark.parametrize("budget", [float("nan"), 1.5, 100.0, "100", None])
    def test_budget_not_an_integer_raises(self, budget):
        # a NaN budget once passed the budget < 1 guard and never tripped
        # len(seen) > budget, so the walk ran with no budget at all
        g = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        with pytest.raises(ProblemError, match="at least 1 basis, in whole bases"):
            enumerate_vertices(HPolyhedron(g, np.ones(4)), [1, 3], budget=budget)
        assert enumerate_vertices(HPolyhedron(g, np.ones(4)), [1, 3], budget=np.int64(4)).shape == (4, 2)

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
        sol = cold_solve(StandardLP(a, h, cc))
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
        self.assert_same(flow_dual(prob), solve_dp_at(prob, 0.0).solution.basis)

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
        yield flow_dual(prob), solve_dp_at(prob, 0.0).solution.basis, 28
        prob = random_problem(2, 3, 5, random_metric=True)
        yield flow_dual(prob), solve_dp_at(prob, 0.0).solution.basis, None

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

        split, ties, widths = lpmod._lex_split, [], []

        def checked(*args):
            entering = split(*args)
            assert entering.tolist() == by_tie(*args)
            ties.append(entering.size)
            widths.append(args[0].sum(axis=1))
            return entering

        monkeypatch.setattr(lpmod, "_lex_split", checked)
        # the cases tie 2-5 rows; the walk of this 5x4 flow dual (306
        # vertices) meets 123 ties of 12-17 rows
        prob = random_problem(0, 5, 4)
        wide = flow_dual(prob), solve_dp_at(prob, 0.0).solution.basis, None
        for poly, start, _ in [*self.cases(), wide]:
            enumerate_vertices(poly, start)
        assert sum(ties) > 100
        assert np.count_nonzero(np.concatenate(widths) >= 10) > 100


# a square pyramid: the base z >= 0, four sides through the apex (0, 0, 1)
# and the redundant x <= 2.  The corners are nondegenerate; the apex is
# tight on the four sides, so it carries four bases
_PYRAMID = HPolyhedron(
    np.array([[0.0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [1, 0, 0]]),
    np.array([0.0, 1, 1, 1, 1, 2]),
)
_PYRAMID_START = [0, 1, 3]  # the corner (1, 1, 0)


def _least_budget(walk):
    """The fewest bases ``walk(budget)`` finishes within, and its vertices."""
    for budget in range(1, 100):
        with suppress(BudgetExceededError):
            return budget, walk(budget)
    raise AssertionError("the walk found more than 99 bases")


class TestSeededWalk:
    """``lp._walk_vertices``: seeds change neither the vertices nor the bases found."""

    @pytest.mark.parametrize(
        "seeds",
        [[[1, 2, 3]], [[0, 3, 5]], [[3, 1, 0]], [[0, 2, 4]], [[1, 2, 3], [0, 3, 5], [0, 1, 3], [0, 2, 4]]],
        ids=["degenerate-apex", "infeasible", "the-start", "other-corner", "all"],
    )
    def test_vertices_and_budget_of_the_single_start(self, seeds):
        alone = _least_budget(lambda b: enumerate_vertices(_PYRAMID, _PYRAMID_START, budget=b))
        seeded = _least_budget(lambda b: lpmod._walk_vertices(_PYRAMID, _PYRAMID_START, seeds, b))
        assert alone[1].shape == (5, 3)
        assert seeded[0] == alone[0]
        assert seeded[1].tobytes() == alone[1].tobytes()

    def test_singular_seed_is_a_solver_error(self):
        # the base and the two x sides have no y column
        with pytest.raises(SolverError) as exc:
            lpmod._walk_vertices(_PYRAMID, _PYRAMID_START, [[0, 1, 2]], lpmod.VERTEX_BUDGET)
        assert str(exc.value) == "a seed basis of the vertex walk is singular"

    @pytest.mark.parametrize(
        "start, message",
        [
            ([0, 1], "a start must name 3 distinct rows of 6, got [0, 1]"),
            ([0, 1, 2], "start rows [0, 1, 2] are singular"),
            ([0, 3, 5], "start point violates a row by 1"),
        ],
    )
    def test_start_refusals_with_seeds(self, start, message):
        # the refusals and their texts are enumerate_vertices's, seeds or not
        for seeds in [(), [[0, 2, 4]]]:
            with pytest.raises(SolverError) as exc:
                lpmod._walk_vertices(_PYRAMID, start, seeds, lpmod.VERTEX_BUDGET)
            assert str(exc.value) == message
        with pytest.raises(SolverError) as exc:
            enumerate_vertices(_PYRAMID, start)
        assert str(exc.value) == message

    def test_seeds_take_the_walk_in_one_block(self, monkeypatch):
        # the 4-cube is simple, so every basis is a nondegenerate seed: with
        # all 16 seeded, the first block finds every neighbour already seen
        blocks, inv = [], np.linalg.inv

        def counted(a):
            blocks.append(len(a))
            return inv(a)

        monkeypatch.setattr(lpmod, "_BLOCK", 1)
        monkeypatch.setattr(np.linalg, "inv", counted)
        cube = HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
        corners = [[i if bit else i + 4 for i, bit in enumerate(bits)] for bits in np.ndindex(*[2] * 4)]
        alone = enumerate_vertices(cube, [4, 5, 6, 7], budget=16)
        assert blocks == [1] * 16
        blocks.clear()
        seeded = lpmod._walk_vertices(cube, [4, 5, 6, 7], corners, 16)
        assert blocks == [16]
        assert seeded.tobytes() == alone.tobytes()
