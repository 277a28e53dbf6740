"""Program builders, duals, and single-level solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptradeoff import (
    GroundMetric,
    ProblemError,
    SolverError,
    build_ot_form,
    build_tv_form,
    curve_by_sweep,
    dual_polyhedron,
    make_problem,
    solve_dp_at,
    tv_distance,
    wasserstein1,
)
from dptradeoff import lp as lpmod
from dptradeoff.model import _flow_plan, output_distribution
from dptradeoff.programs import _crash_basis, _stochastic_estimator

from conftest import (
    binary_dp_oracle,
    dual_check,
    edge_problems,
    highs_dp_oracle,
    random_distribution,
    random_problem,
    sign_identity_tv,
)

BUILD = {"ot": build_ot_form, "tv": build_tv_form}


def _plan(prob, lay, x):
    """The coupling that ``solve_dp_at`` reads off a point of the flow program."""
    out = np.clip(lay.extract_w(x), 0.0, None).sum(axis=1)
    return _flow_plan(prob.p_x, out, lay.n_nodes, lay.tail, lay.head, lay.extract_flow(x))


class TestTransportForm:
    def test_counts_2x2(self, bsc_problem):
        lp, lay = build_ot_form(bsc_problem, 0.3)
        # 4 estimator entries, 2 arcs, one slack; 2 + 1 + 1 rows: the last
        # symbol has no node row
        assert lp.a.shape == (4, 7)
        assert lay.n_vars == 7 and lay.n_cons == 4

    def test_counts_3x5(self):
        prob = random_problem(3, 3, 5)
        lp, lay = build_ot_form(prob, 0.1)
        assert lp.a.shape == (8, 22)

    def test_block_structure_matches_kron_layout(self, bsc_problem):
        p_y, p_x = bsc_problem.p_y, bsc_problem.p_x
        lp, lay = build_ot_form(bsc_problem, 0.25)
        # right-hand side: observation marginal, source marginal but the
        # last symbol's, level
        assert np.allclose(lp.b, np.concatenate([p_y, p_x[:1], [0.25]]))
        # cost: conditional reconstruction cost on the joint masses, zero elsewhere
        assert np.array_equal(lp.c[:4], bsc_problem.conditional.reshape(-1))
        assert np.all(lp.c[4:] == 0.0)
        # a joint mass counts once in its observation's row and once in
        # the node row of its reconstruction symbol, if that symbol has one
        for y in range(2):
            for xhat in range(2):
                assert lp.a[y, lay.ix_w(xhat, y)] == 1.0
                assert lp.a[1 - y, lay.ix_w(xhat, y)] == 0.0
                assert lp.a[2, lay.ix_w(xhat, y)] == (1.0 if xhat == 0 else 0.0)
        # one arc per ordered pair of distinct symbols, row-major: it leaves
        # its tail's row, enters its head's and carries the metric on the budget
        assert list(zip(lay.tail, lay.head)) == [(0, 1), (1, 0)]
        assert (lay.ix_arc(0, 1), lay.ix_arc(1, 0)) == (4, 5)
        for i, j in [(0, 1), (1, 0)]:
            column = np.zeros(5)
            column[2 + i], column[2 + j], column[4] = 1.0, -1.0, bsc_problem.metric.h[i, j]
            assert np.array_equal(lp.a[:, lay.ix_arc(i, j)], np.delete(column, 3))
        assert np.array_equal(lp.a[:, lay.ix_slack], [0, 0, 0, 1])

    @pytest.mark.parametrize("n_x", [2, 3, 5, 8])
    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_arc_numbers_follow_the_arc_lists(self, n_x, form):
        hamming = make_problem(np.full((n_x, 3), 1.0 / (3 * n_x)))
        _, lay = BUILD[form](hamming, 0.1)
        base = lay.n_x * lay.n_y
        for k, (i, j) in enumerate(zip(lay.tail.tolist(), lay.head.tolist())):
            assert lay.ix_arc(i, j) == base + k
        arcs = set(zip(lay.tail.tolist(), lay.head.tolist()))
        for i in range(lay.n_nodes):
            for j in range(lay.n_nodes):
                if (i, j) not in arcs:
                    with pytest.raises(KeyError):
                        lay.ix_arc(i, j)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 3), (4, 7)])
    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_matrix_matches_an_entry_by_entry_fill(self, form, shape):
        # the index fill against the documented rows and columns
        prob = random_problem(sum(shape), *shape)
        lp, lay = BUILD[form](prob, 0.2)
        n_x, n_y = shape
        row = {i: n_y + i for i in range(n_x - 1)} | {n_x: n_y + n_x - 1}  # the last symbol has none
        want = np.zeros((lay.n_cons, lay.n_vars))
        for xhat in range(n_x):
            for y in range(n_y):
                want[y, lay.ix_w(xhat, y)] = 1.0
                if xhat in row:
                    want[row[xhat], lay.ix_w(xhat, y)] = 1.0
        for i, j in zip(lay.tail.tolist(), lay.head.tolist()):
            col = lay.ix_arc(i, j)
            if i in row:
                want[row[i], col] = 1.0
            if j in row:
                want[row[j], col] = -1.0
            want[-1, col] = prob.metric.h[i, j] if form == "ot" else 0.5
        want[-1, lay.ix_slack] = 1.0
        assert np.array_equal(lp.a, want)

    def test_full_row_rank(self, bsc_problem):
        lp, _ = build_ot_form(bsc_problem, 0.5)
        assert np.linalg.matrix_rank(lp.a) == lp.m

    def test_zero_level_pins_output_marginal(self, bsc_problem):
        rep = solve_dp_at(bsc_problem, 0.0)
        out = rep.estimator.q @ bsc_problem.p_y
        assert np.allclose(out, bsc_problem.p_x, atol=1e-10)
        assert rep.perception <= 1e-12

    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_rounding_diagonal_gives_no_negative_perception(self, form):
        # a metric diagonal of -5e-13 passes the zero check and is stored as 0:
        # as given, both perceptions of the P = 0 solve read -5e-13
        metric = 1.0 - np.eye(3)
        np.fill_diagonal(metric, -5e-13)
        prob = make_problem([[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]], metric=metric)
        assert np.array_equal(np.diag(prob.metric.h), np.zeros(3))
        rep = solve_dp_at(prob, 0.0, form)
        assert rep.perception >= 0.0
        assert prob.perception_of(rep.estimator)[0] >= 0.0

    def test_negative_level_rejected(self, bsc_problem):
        with pytest.raises(ProblemError):
            build_ot_form(bsc_problem, -0.1)


class TestSignForm:
    def test_counts_2x2(self, bsc_problem):
        lp, lay = build_tv_form(bsc_problem, 0.3)
        # 4 estimator entries, an arc to and from the centre per symbol, one
        # slack; 2 + (1 + 1) + 1 rows: the last symbol has no node row
        assert lp.a.shape == (5, 9)
        assert lay.n_vars == 9 and lay.n_cons == 5

    def test_block_structure(self, bsc_problem):
        p_y, p_x = bsc_problem.p_y, bsc_problem.p_x
        lp, lay = build_tv_form(bsc_problem, 0.25)
        # the centre, node 2, has neither source nor output mass; symbol 1,
        # the last, has no row, so the centre's row is row 3
        assert np.allclose(lp.b, np.concatenate([p_y, p_x[:1], [0.0, 0.25]]))
        assert np.array_equal(lp.c[:4], bsc_problem.conditional.reshape(-1))
        assert np.all(lp.c[4:] == 0.0)
        for xhat in range(2):
            node = (1.0, -1.0) if xhat == 0 else (0.0, 0.0)
            for y in range(2):
                assert lp.a[y, lay.ix_w(xhat, y)] == 1.0
                assert lp.a[2, lay.ix_w(xhat, y)] == node[0]
            assert (lp.a[2, lay.ix_arc(2, xhat)], lp.a[2, lay.ix_arc(xhat, 2)]) == node[::-1]
            assert (lp.a[3, lay.ix_arc(2, xhat)], lp.a[3, lay.ix_arc(xhat, 2)]) == (1.0, -1.0)
        assert list(zip(lay.tail, lay.head)) == [(2, 0), (2, 1), (0, 2), (1, 2)]
        assert np.all(lp.a[3, :4] == 0.0)
        assert np.all(lp.a[-1, :4] == 0.0) and np.all(lp.a[-1, 4:8] == 0.5) and lp.a[-1, 8] == 1.0
        # the rows are independent
        assert np.linalg.matrix_rank(lp.a) == lp.m

    def test_sign_identity_matches_tv_distance(self):
        # the paper's sign-vector form of the TV budget, kept as an oracle
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(20):
                p, q = random_distribution(rng, n), random_distribution(rng, n)
                assert sign_identity_tv(p, q) == pytest.approx(tv_distance(p, q), abs=1e-15)

    def test_requires_hamming(self):
        prob = make_problem(
            [[0.5, 0.0], [0.0, 0.5]], metric=[[0.0, 0.5], [0.5, 0.0]]
        )
        with pytest.raises(ProblemError, match="Hamming"):
            build_tv_form(prob, 0.1)

    def test_thirteen_symbols_build_and_solve(self):
        prob = random_problem(1, 13, 20)
        lp, _ = build_tv_form(prob, 0.1)
        assert lp.a.shape == (20 + 13 + 1, 13 * 22 + 1)
        rep = solve_dp_at(prob, 0.1, form="tv")
        assert rep.gap <= 1e-12 and rep.perception <= 0.1 + 1e-12

    @pytest.mark.parametrize("shape", [(13, 20), (16, 64)], ids=lambda s: "x".join(map(str, s)))
    def test_large_alphabets_match_transport_form(self, shape):
        prob = random_problem(1, *shape)
        poly = dual_polyhedron(prob)
        for p in (0.0, 0.1, 0.3):
            tv = solve_dp_at(prob, p, form="tv")
            assert abs(tv.value - solve_dp_at(prob, p, form="ot").value) <= 1e-12, p
            assert np.all(poly.g @ tv.dual.coords() <= poly.h + 1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_transport_form(self, seed):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(2, 5))
        n_y = int(rng.integers(2, 6))
        prob = random_problem(700 + seed, n_x, n_y, random_distortion=True)
        for p in rng.uniform(0.0, 1.0, 3):
            a = solve_dp_at(prob, float(p), form="ot")
            b = solve_dp_at(prob, float(p), form="tv")
            assert abs(a.value - b.value) <= 1e-8


class TestFullRowRank:
    """Every program handed to the simplex has independent rows, as it requires."""

    @pytest.mark.parametrize("n_y", range(1, 5))
    @pytest.mark.parametrize("n_x", range(1, 7))
    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_flow_program(self, form, n_x, n_y):
        # the transport form under a random metric, the star under Hamming
        prob = random_problem(n_x, n_x, n_y, random_distortion=True, random_metric=form == "ot")
        lp = BUILD[form](prob, 0.1)[0]
        assert np.linalg.matrix_rank(lp.a) == lp.m

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("metric", ["hamming", "random"])
    def test_wasserstein1_program(self, metric, n, monkeypatch):
        solve, programs = lpmod.solve, []

        def captured(lp, **kwargs):
            programs.append(lp)
            return solve(lp, **kwargs)

        monkeypatch.setattr(lpmod, "solve", captured)
        rng = np.random.default_rng(n)
        if metric == "hamming":
            h = GroundMetric.hamming(n)
        else:
            h = random_problem(n, n, 2, random_metric=True).metric
        p, q = random_distribution(rng, n), random_distribution(rng, n)
        for pair in ((p, q), (p, p)):
            wasserstein1(*pair, h)
        assert len(programs) == 2
        for lp in programs:
            assert np.linalg.matrix_rank(lp.a) == lp.m


class TestSolveAt:
    def test_level_one_hits_floor(self, bsc_problem):
        rep = solve_dp_at(bsc_problem, 1.0)
        assert rep.value == pytest.approx(bsc_problem.distortion_floor, abs=1e-12)

    def test_bsc_at_zero(self, bsc_problem):
        rep = solve_dp_at(bsc_problem, 0.0)
        assert rep.value == pytest.approx(binary_dp_oracle(bsc_problem, 0.0), abs=1e-12)
        assert rep.value == pytest.approx(0.8 / 7.0, abs=1e-9)

    def test_independent_at_02(self, indep_problem):
        rep = solve_dp_at(indep_problem, 0.2)
        assert rep.value == pytest.approx(0.44, abs=1e-9)
        assert rep.value == pytest.approx(binary_dp_oracle(indep_problem, 0.2), abs=1e-12)

    def test_unknown_form_rejected(self, bsc_problem):
        with pytest.raises(ProblemError, match="unknown program form 'xx'"):
            solve_dp_at(bsc_problem, 0.1, form="xx")

    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_report_invariants(self, bsc_problem, form):
        poly = dual_polyhedron(bsc_problem)
        for p in [0.0, 0.005, 0.02, 0.3, 1.0]:
            rep = solve_dp_at(bsc_problem, p, form=form)
            assert rep.gap <= 1e-8
            assert rep.perception <= p + 1e-8
            assert bsc_problem.expected_distortion(rep.estimator) == pytest.approx(
                rep.value, abs=1e-8
            )
            assert np.all(poly.g @ rep.dual.coords() <= poly.h + 1e-9)
            assert rep.dual.potential[-1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_and_convex_on_grid(self, seed):
        prob = random_problem(900 + seed, 3, 4, random_distortion=True)
        ps = np.linspace(0.0, 1.0, 9)
        vals = [solve_dp_at(prob, float(p)).value for p in ps]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-9
        for i in range(1, len(ps) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_floor_is_global_lower_bound(self, seed):
        prob = random_problem(1000 + seed, 2, 5, random_distortion=True)
        floor = prob.distortion_floor
        for p in np.linspace(0.0, 1.0, 7):
            assert solve_dp_at(prob, float(p)).value >= floor - 1e-10

    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_symbol_with_almost_no_mass(self, form):
        # observation 1 has mass 3e-11, below the solver tolerance
        prob = make_problem([[0.3, 3e-11, 0.2], [0.2, 0.0, 0.3 - 3e-11]])
        rep = solve_dp_at(prob, 0.0, form=form)
        assert rep.value == pytest.approx(0.4, abs=1e-9)
        q = rep.estimator.q
        assert np.all(q >= 0.0)
        assert np.allclose(q.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_stochasticity_residual_is_a_solver_error(self, bsc_problem):
        q = np.array([[0.5, 1.0], [0.0, 0.0]])  # column 0 short by mass 0.3
        with pytest.raises(SolverError, match="off stochastic"):
            _stochastic_estimator(bsc_problem, (q * bsc_problem.p_y)[None], 1e-9)

    def test_negative_entry_is_a_solver_error(self, bsc_problem):
        q = np.array([[1.0 + 1e-6, 1.0], [-1e-6, 0.0]])  # stochastic, but -6e-7 in mass
        with pytest.raises(SolverError, match="negative beyond the solver tolerance"):
            _stochastic_estimator(bsc_problem, (q * bsc_problem.p_y)[None], 1e-9)
        assert _stochastic_estimator(bsc_problem, (q * bsc_problem.p_y)[None], 1e-6)

    def test_estimator_transport_feasibility(self):
        prob = random_problem(77, 3, 4, random_distortion=True, random_metric=True)
        for p in [0.0, 0.1, 0.35, 0.8]:
            rep = solve_dp_at(prob, p)
            w1, _ = prob.perception_of(rep.estimator)
            assert w1 <= p + 1e-8


class TestStackedEstimators:
    """``_stochastic_estimator`` over a stack of three estimator blocks,
    passed as their joint masses ``STACK * p_y``."""

    # observation 1 has mass 3e-11, below the tolerance: its column may be empty
    PROBLEM = make_problem([[0.3, 3e-11, 0.2], [0.2, 0.0, 0.3 - 3e-11]])
    STACK = np.array([
        [[0.6, 0.5, 0.1], [0.4, 0.5, 0.9]],
        [[0.6, 0.0, 0.1], [0.4, 0.0, 0.9 + 1e-10]],  # column 1 empty
        [[1.0, 0.2, -1e-12], [0.0, 0.7, 1.0]],  # column 1 short, within its mass
    ])
    JOINT = STACK * PROBLEM.p_y

    def test_each_slice_is_a_stack_of_one(self):
        got = _stochastic_estimator(self.PROBLEM, self.JOINT, 1e-9)
        assert len(got) == 3
        for block, est in zip(self.JOINT, got):
            (alone,) = _stochastic_estimator(self.PROBLEM, block[None], 1e-9)
            assert np.array_equal(est.q, alone.q)

    def test_empty_column_takes_the_map_column_in_its_slice_only(self):
        first, empty, short = _stochastic_estimator(self.PROBLEM, self.JOINT, 1e-9)
        map_column = self.PROBLEM.minimum[1].q[:, 1]
        assert np.array_equal(empty.q[:, 1], map_column)
        assert np.array_equal(first.q[:, 1], [0.5, 0.5])
        assert np.allclose(short.q[:, 1], [2 / 9, 7 / 9], rtol=0.0, atol=1e-15)
        for est, block in ((first, 0), (empty, 1), (short, 2)):  # the other columns stay
            assert np.allclose(est.q[:, [0, 2]], self.STACK[block][:, [0, 2]], rtol=0.0, atol=1e-9)

    def test_one_off_stochastic_slice_raises(self):
        stack = self.STACK.copy()
        stack[2, :, 0] = [0.5, 0.2]  # column 0 short by mass 0.15
        with pytest.raises(SolverError, match="off stochastic"):
            _stochastic_estimator(self.PROBLEM, stack * self.PROBLEM.p_y, 1e-9)


def _crash_cases():
    """(problem, form) cases on 2x2 and 3x5, Hamming and a random metric."""
    probs = {
        "2x2": make_problem([[0.54, 0.06], [0.04, 0.36]]),
        "3x5": random_problem(3, 3, 5),
        "3x5-distortion": random_problem(4, 3, 5, random_distortion=True),
        "3x5-metric": random_problem(5, 3, 5, random_distortion=True, random_metric=True),
    }
    return [
        pytest.param(prob, form, id=f"{name}-{form}")
        for name, prob in probs.items()
        for form in (("ot", "tv") if prob.metric.is_hamming else ("ot",))
    ]


def _edge_cases():
    """(problem, form) cases over ``edge_problems``, in both forms."""
    return [
        pytest.param(prob, form, id=f"{name}-{form}")
        for name, prob in edge_problems().items()
        for form in ("ot", "tv")
    ]


def _diagonal_cases():
    """Complete-graph instances for the staircase plan of ``_crash_basis``."""
    rng = np.random.default_rng(11)
    metric = rng.uniform(0.5, 1.0, size=(6, 6))
    metric = 0.5 * (metric + metric.T)
    np.fill_diagonal(metric, 0.0)
    skewed = rng.uniform(size=(6, 12)) ** 8
    probs = {
        # in units of 1/32: the MAP output marginal is (9, 8, 15), p_x is (10, 8, 14)
        "some-equal": make_problem(np.array([[8, 2, 0, 0], [1, 6, 1, 0], [0, 0, 6, 8]]) / 32),
        # block diagonal: the MAP output marginal is p_x, so no symbol has a deficit
        "all-equal": make_problem(np.array([[4, 2, 0, 0], [0, 0, 8, 0], [0, 0, 0, 2]]) / 16),
        "2x5": random_problem(12, 2, 5, random_distortion=True),
        "2x5-metric": random_problem(13, 2, 5, random_distortion=True, random_metric=True),
        "skewed-2x3": edge_problems()["skewed"],
        "skewed-6x12": make_problem(skewed / skewed.sum(), metric=metric),
    }
    return [pytest.param(prob, id=name) for name, prob in probs.items()]


class TestCrashStart:
    @pytest.mark.parametrize("prob", _diagonal_cases())
    def test_diagonal_first_plan(self, prob):
        lp, lay = build_ot_form(prob, 1.0)
        crash = _crash_basis(prob, lay)
        base = lp.a[:, crash]
        assert np.linalg.matrix_rank(base) == lp.m
        lpmod.walk(lp, crash, 0.0)  # optimal at P = 1 as it stands
        x = lpmod.basic_point(lp.n, crash, np.linalg.solve(base, lp.b))
        r_map = output_distribution(prob.minimum[1], prob.p_y).p
        # the staircase moves only the surplus, so the coupling read off
        # its flows keeps min(p_x, r_MAP) in place
        kept = np.minimum(prob.p_x, r_map)
        assert np.allclose(np.diag(_plan(prob, lay, x)), kept, rtol=0.0, atol=1e-15)
        assert abs(lay.extract_flow(x).sum() - tv_distance(prob.p_x, r_map)) <= 1e-15

    @pytest.mark.parametrize("prob, form", _crash_cases())
    def test_optimal_at_one_without_pivots(self, prob, form):
        for p in (1.0, 2.0):  # the crash basis is optimal at every level from 1 up
            rep = solve_dp_at(prob, p, form=form)
            assert (rep.iterations, rep.refactorizations) == (0, 1)
            assert np.allclose(rep.estimator.q, prob.minimum[1].q, rtol=0.0, atol=1e-15)
            assert abs(rep.value - prob.distortion_floor) <= 1e-15

    @pytest.mark.parametrize("prob, form", _crash_cases())
    def test_never_enters_phase_one(self, prob, form, monkeypatch):
        def guarded(*args):
            raise AssertionError("a single-level solve entered phase one")

        monkeypatch.setattr(lpmod, "_phase_one", guarded)
        for p in (0.0, 0.05, 0.2, 1.0):
            assert solve_dp_at(prob, p, form=form).gap <= 1e-8

    def test_refactorizations_counted(self):
        # the start, one at lp._REFRESH_EVERY pivots, and the end of the walk;
        # phase two takes no pivot after that, so it adds no confirmation
        rep = solve_dp_at(random_problem(1, 16, 64, random_distortion=True), 0.1)
        assert rep.iterations > lpmod._REFRESH_EVERY
        assert (rep.iterations, rep.refactorizations) == (107, 3)

    @pytest.mark.parametrize("prob, form", _edge_cases())
    def test_edge_cases_match_phase_one(self, prob, form):
        for p in (0.0, 0.05, 0.3, 1.0):
            lp = BUILD[form](prob, p)[0]
            rep = solve_dp_at(prob, p, form=form)
            assert rep.value == pytest.approx(lpmod.solve(lp).value, abs=1e-9), p
            assert dual_check(lp, rep.solution) <= 1e-9
            assert rep.perception <= p + 1e-9
            moved = np.sum(rep.coupling.pi * prob.metric.h)
            assert moved == pytest.approx(rep.perception, abs=1e-12)


class TestCoupling:
    def test_mass_routed_through_a_symbol(self):
        # p_x = (0.5, 0.3, 0.2) to r = (0.2, 0.3, 0.5) by 0.3 on 0 -> 1 and
        # on 1 -> 2: half the mass that passes symbol 1 stops there, and
        # the plan moves exactly the flow's weight under the path metric
        path = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        prob = make_problem([[0.5], [0.3], [0.2]], metric=path)
        lp, lay = build_ot_form(prob, 0.3)
        x = np.zeros(lp.n)
        x[:3] = [0.2, 0.3, 0.5]
        x[[lay.ix_arc(0, 1), lay.ix_arc(1, 2)]] = 0.3
        assert np.allclose(lp.a[:-1] @ x, lp.b[:-1], rtol=0.0, atol=1e-15)
        plan = _plan(prob, lay, x)
        expected = [[0.2, 0.15, 0.15], [0.0, 0.15, 0.15], [0.0, 0.0, 0.2]]
        assert np.allclose(plan, expected, rtol=0.0, atol=1e-15)
        assert np.sum(plan * path) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_star_gives_the_maximal_coupling(self, seed):
        # through the centre every moved unit is spread over the deficits
        # in proportion, which is the maximal coupling of the two marginals
        prob = random_problem(seed, 4, 6, random_distortion=True)
        for p in (0.0, 0.05, 0.2):
            rep = solve_dp_at(prob, p, form="tv")
            out = output_distribution(rep.estimator, prob.p_y).p
            diag = np.minimum(prob.p_x, out)
            moved = np.outer(prob.p_x - diag, out - diag) / (tv_distance(prob.p_x, out) or 1.0)
            assert np.allclose(rep.coupling.pi, np.diag(diag) + moved, rtol=0.0, atol=1e-15), p


class TestSharedWalk:
    @pytest.mark.parametrize("shape", [(5, 10), (8, 20), (10, 40)], ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("random_metric", [False, True], ids=["hamming", "metric"])
    def test_single_levels_stop_the_sweep_walk(self, shape, random_metric, monkeypatch):
        # solve_dp_at walks from P = 1 to its level the way curve_by_sweep walks
        # to 0, so it meets the sweep's values and takes at most its pivots
        calls = []
        real = lpmod.walk
        monkeypatch.setattr(lpmod, "walk", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        prob = random_problem(1, *shape, random_distortion=True, random_metric=random_metric)
        sweep = curve_by_sweep(prob)
        for p in (0.0, 0.1, 0.3):
            rep = solve_dp_at(prob, p)
            assert abs(rep.value - sweep.curve.value(p)) <= 1e-12, p
            assert rep.iterations <= len(sweep.s2_points), p
        assert len(calls) == 4

    @pytest.mark.parametrize("shape", [(5, 10), (8, 20), (10, 40)], ids=lambda s: "x".join(map(str, s)))
    def test_first_pivot_is_where_the_budget_binds(self, shape):
        # under Hamming the P = 1 plan moves exactly TV(p_x, r_MAP), so the walk
        # leaves the plateau's basis there and every later basis prices the budget
        prob = random_problem(1, *shape, random_distortion=True)
        costs = np.sort(prob.cost, axis=0)
        assert np.all(costs[1] > costs[0])  # a unique MAP
        lp, lay = build_ot_form(prob, 0.0)
        path = lpmod.walk(lp, _crash_basis(prob, lay), 1.0)[1]
        moved = tv_distance(prob.p_x, output_distribution(prob.minimum[1], prob.p_y))
        assert abs(path[0][0] - moved) <= 1e-12
        assert all(lp.c[basis] @ rate < 0.0 for _, basis, _, rate in path[1:])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "form,shape,random_metric",
        [
            pytest.param(form, (n_x, n_y), rm, id=f"{form}-{n_x}x{n_y}-{'metric' if rm else 'hamming'}")
            for form, n_x, n_y, rm in [
                ("ot", 5, 10, False), ("ot", 5, 10, True), ("ot", 8, 20, False), ("ot", 8, 20, True),
                ("ot", 10, 40, False), ("ot", 10, 40, True), ("tv", 5, 10, False), ("tv", 8, 20, False),
            ]  # the sign form takes the Hamming metric only
        ],
    )
    def test_every_walked_basis_is_a_certificate(self, form, shape, random_metric, seed):
        # each entry (s, basis, B^-1 b, B^-1 e_m) solves B x = b and B x = e_m, is
        # feasible at both ends of its interval [s, level of the entry before],
        # and its line c_B B^-1 b + P c_B B^-1 e_m is the curve there
        prob = random_problem(seed, *shape, random_distortion=True, random_metric=random_metric)
        lp, lay = BUILD[form](prob, 0.0)
        path = lpmod.walk(lp, _crash_basis(prob, lay), 1.0)[1]
        curve = curve_by_sweep(prob).curve if form == "ot" else None
        tol = lpmod.FEAS_TOL * max(1.0, float(np.abs(lp.b).max()))
        top = 1.0
        for s, basis, xb, rate in path:
            cols = lp.a[:, basis]
            assert np.abs(cols @ xb - lp.b).max() <= tol, s
            assert np.abs(cols @ rate - np.eye(lp.m)[-1]).max() <= tol, s
            for t in (s, top):
                assert (xb + t * rate).min() >= -tol, (s, t)
            if curve is not None:
                mid = 0.5 * (s + top)
                value = lp.c[basis] @ xb + mid * (lp.c[basis] @ rate)
                assert abs(curve.value(mid) - value) <= 1e-12, s
            top = s


def _highs_cases():
    """Seeded instances up to 10x40: plain, tied and skewed masses, three
    metrics; and the 3e-11 observation mass."""
    cases = []
    for seed, (n_x, n_y) in enumerate([(2, 3), (3, 5), (4, 8), (5, 10), (8, 20), (10, 40)]):
        rng = np.random.default_rng(seed)
        for masses in ("plain", "tied", "skewed"):
            p_xy = rng.uniform(size=(n_x, n_y))
            if masses == "tied":  # two source rows and two observation columns repeat
                p_xy[1] = p_xy[0]
                p_xy[:, 1] = p_xy[:, 0]
            elif masses == "skewed":
                p_xy = p_xy**8
            p_xy /= p_xy.sum()
            metric = rng.uniform(0.5, 1.0, size=(n_x, n_x))
            metric = 0.5 * (metric + metric.T)
            np.fill_diagonal(metric, 0.0)
            metrics = [("hamming", None), ("metric", metric)]
            if n_x > 2:  # on two symbols the path metric is Hamming
                steps = np.arange(n_x)
                metrics.append(("path", np.abs(steps[:, None] - steps[None, :]) / (n_x - 1)))
            for kind, h in metrics:
                prob = make_problem(p_xy, metric=h)
                forms = ("ot", "tv") if prob.metric.is_hamming else ("ot",)
                cases += [
                    pytest.param(prob, form, id=f"{n_x}x{n_y}-{masses}-{kind}-{form}")
                    for form in forms
                ]
    skewed = edge_problems()["skewed"]
    return cases + [pytest.param(skewed, form, id=f"skewed-3e-11-{form}") for form in ("ot", "tv")]


class TestAgainstHighs:
    """Both arc lists against HiGHS on the transport program with a coupling
    block, which ``highs_dp_oracle`` writes from the raw arrays."""

    @pytest.mark.parametrize("prob, form", _highs_cases())
    def test_matches_highs(self, prob, form):
        pytest.importorskip("scipy")
        poly = dual_polyhedron(prob)
        for p in (0.0, 0.05, 0.2, 0.6):
            rep = solve_dp_at(prob, p, form=form)
            assert rep.value == pytest.approx(highs_dp_oracle(prob, p), abs=1e-9), p
            assert rep.perception <= p + 1e-12
            assert prob.expected_distortion(rep.estimator) == pytest.approx(rep.value, abs=1e-9)
            assert np.all(poly.g @ rep.dual.coords() <= poly.h + 1e-12), p
            if form == "tv":
                assert abs(rep.value - solve_dp_at(prob, p).value) <= 1e-12, p
                assert rep.gap <= 1e-12, p


class TestDualPolyhedron:
    def test_counts_2x2(self, bsc_problem):
        poly = dual_polyhedron(bsc_problem)
        assert poly.d == 4
        assert poly.k == 7

    def test_counts_3x5(self):
        prob = random_problem(3, 3, 5)
        poly = dual_polyhedron(prob)
        assert poly.d == 8
        assert poly.k == 22

    def test_floor_point_feasible(self, bsc_problem):
        # stochasticity duals at the columnwise cost minimum, rest zero
        poly = dual_polyhedron(bsc_problem)
        w = bsc_problem.conditional.min(axis=0)
        point = np.concatenate([w, np.zeros(2)])
        assert np.all(poly.g @ point <= poly.h + 1e-12)
        # and its objective is exactly the unconstrained floor
        assert w @ bsc_problem.p_y == pytest.approx(
            bsc_problem.distortion_floor, abs=1e-12
        )

    def test_solved_duals_lie_inside(self, bsc_problem):
        poly = dual_polyhedron(bsc_problem)
        for p in [0.0, 0.01, 0.5]:
            rep = solve_dp_at(bsc_problem, p)
            assert np.all(poly.g @ rep.dual.coords() <= poly.h + 1e-9)

    @pytest.mark.parametrize("random_metric", [False, True], ids=["hamming", "metric"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5, 10)], ids=["2x2", "3x5", "5x10"])
    def test_rows_are_the_transport_dual(self, shape, random_metric):
        # an independent kron statement of the rows of the transport budget's
        # flow dual, in the program's column order: e_y + e_pot(xhat) <=
        # cond[xhat, y], then e_pot(i) - e_pot(j) - h[i, j] e_price <= 0 for
        # every ordered pair i != j, then -price <= 0; the last potential is
        # pinned, so e_pot of the last symbol is 0
        n_x, n_y = shape
        prob = random_problem(7, n_x, n_y, random_distortion=True, random_metric=random_metric)
        e_pot = np.vstack([np.eye(n_x - 1), np.zeros((1, n_x - 1))])
        tail, head = np.nonzero(~np.eye(n_x, dtype=bool))
        estimator_rows = np.hstack([
            np.kron(np.ones((n_x, 1)), np.eye(n_y)),
            np.kron(e_pot, np.ones((n_y, 1))),
            np.zeros((n_x * n_y, 1)),
        ])
        arc_rows = np.hstack([
            np.zeros((tail.size, n_y)),
            e_pot[tail] - e_pot[head],
            -prob.metric.h[tail, head][:, None],
        ])
        price_row = np.eye(n_y + n_x)[-1:] * -1.0
        poly = dual_polyhedron(prob)
        assert np.array_equal(poly.g, np.vstack([estimator_rows, arc_rows, price_row]))
        assert np.array_equal(poly.h, np.concatenate([prob.conditional.reshape(-1), np.zeros(tail.size + 1)]))
        # the P = 0 basis names d rows tight at its dual: the start of the
        # vertex walk in curve_by_vertices
        rep = solve_dp_at(prob, 0.0)
        basis = list(rep.solution.basis)
        assert len(basis) == poly.d
        assert np.abs(poly.g[basis] @ rep.dual.coords() - poly.h[basis]).max() <= 1e-12


@st.composite
def _sparse_instances(draw):
    """A problem of 2-6 sources and 2-8 observations, continuous or tied.

    Tied ones have integer masses and costs in half units, so many optima
    tie; the metric is Hamming or a random one (off-diagonal entries in
    [0.5, 1], or in {0.5, 1} when tied, so every triangle holds).
    """
    n_x, n_y = draw(st.integers(2, 6)), draw(st.integers(2, 8))
    tied, hamming = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tied:
        p = rng.integers(0, 4, size=(n_x, n_y)).astype(float)
        p[0, p.sum(axis=0) == 0.0] = 1.0  # every observation has mass
        d = rng.integers(0, 3, size=(n_x, n_x)) / 2.0
        h = rng.integers(1, 3, size=(n_x, n_x)) / 2.0
    else:
        p = rng.uniform(size=(n_x, n_y))
        d = rng.uniform(size=(n_x, n_x))
        h = rng.uniform(0.5, 1.0, size=(n_x, n_x))
    h = np.triu(h, 1) + np.triu(h, 1).T
    return make_problem(p / p.sum(), d, None if hamming else h), hamming


class TestRandomizedObservations:
    # a basic optimum of the flow program has n_y + n_x basic columns, and the
    # budget row has no joint mass, so beyond one joint mass per observation
    # it holds at most n_x - 1 (the tv form's centre row takes one more column
    # from n_y + n_x + 1): every level's estimator is deterministic on all but
    # n_x - 1 observations

    @staticmethod
    def _extra_masses(est) -> int:
        return int(np.maximum((est.q > 1e-12).sum(axis=0) - 1, 0).sum())

    @settings(max_examples=40)
    @given(_sparse_instances())
    def test_at_most_n_x_minus_one_beyond_one_per_observation(self, drawn):
        prob, hamming = drawn
        estimators = [est for _, est in curve_by_sweep(prob).estimators]
        for form in ("ot", "tv") if hamming else ("ot",):
            estimators += [solve_dp_at(prob, p, form=form).estimator for p in (0.0, 0.03, 0.1, 0.25, 0.5)]
        assert max(map(self._extra_masses, estimators)) <= prob.n_x - 1
