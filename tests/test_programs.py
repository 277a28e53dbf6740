"""Program builders, duals, and single-level solves."""

import numpy as np
import pytest

from dptradeoff import (
    ProblemError,
    SolverError,
    build_ot_form,
    build_tv_form,
    curve_by_sweep,
    dual_check,
    dual_polyhedron,
    make_problem,
    sign_patterns,
    solve_dp_at,
    tv_distance,
)
from dptradeoff import lp as lpmod
from dptradeoff.programs import _stochastic_estimator

from conftest import binary_dp_oracle, edge_problems, highs_dp_oracle, random_problem

BUILD = {"ot": build_ot_form, "tv": build_tv_form}


class TestTransportForm:
    def test_counts_2x2(self, bsc_problem):
        lp, lay = build_ot_form(bsc_problem, 0.3)
        assert lp.a.shape == (7, 9)
        assert lay.n_vars == 9 and lay.n_cons == 7

    def test_counts_3x5(self):
        prob = random_problem(3, 3, 5)
        lp, lay = build_ot_form(prob, 0.1)
        assert lp.a.shape == (12, 25)

    def test_block_structure_matches_kron_layout(self, bsc_problem):
        p_y, p_x = bsc_problem.p_y, bsc_problem.p_x
        lp, lay = build_ot_form(bsc_problem, 0.25)
        # right-hand side: observation marginal, source marginal, zeros, level
        assert np.allclose(lp.b, np.concatenate([p_y, p_x, [0, 0], [0.25]]))
        # cost: reconstruction cost on the estimator block, zero elsewhere
        assert np.allclose(lp.c[:4], bsc_problem.cost.reshape(-1))
        assert np.all(lp.c[4:] == 0.0)
        # stochasticity rows scale each estimator column by its marginal
        for y in range(2):
            for xhat in range(2):
                assert lp.a[y, lay.ix_q(xhat, y)] == p_y[y]
        # coupling row/column marginal blocks
        for x in range(2):
            row = lay.row_source_marginal(x)
            for xhat in range(2):
                assert lp.a[row, lay.ix_pi(x, xhat)] == 1.0
        for xhat in range(2):
            row = lay.row_output_marginal(xhat)
            for y in range(2):
                assert lp.a[row, lay.ix_q(xhat, y)] == p_y[y]
            for x in range(2):
                assert lp.a[row, lay.ix_pi(x, xhat)] == -1.0
        # perception row carries the metric over the coupling plus the slack
        assert np.allclose(
            lp.a[lay.row_perception, 4:8], bsc_problem.metric.h.reshape(-1)
        )
        assert lp.a[lay.row_perception, lay.ix_eps] == 1.0

    def test_one_dependent_row(self, bsc_problem):
        lp, _ = build_ot_form(bsc_problem, 0.5)
        assert np.linalg.matrix_rank(lp.a) == lp.m - 1

    def test_zero_level_pins_output_marginal(self, bsc_problem):
        rep = solve_dp_at(bsc_problem, 0.0)
        out = rep.estimator.q @ bsc_problem.p_y
        assert np.allclose(out, bsc_problem.p_x, atol=1e-10)
        assert rep.perception <= 1e-12

    def test_negative_level_rejected(self, bsc_problem):
        with pytest.raises(ProblemError):
            build_ot_form(bsc_problem, -0.1)


class TestSignForm:
    def test_counts_2x2(self, bsc_problem):
        lp, lay = build_tv_form(bsc_problem, 0.3)
        assert lay.patterns.shape == (2, 2)
        assert np.allclose(lay.patterns, [[1, -1], [-1, 1]])
        assert lp.a.shape == (4, 6)  # 4 structural variables + 2 slacks
        assert lp.a.shape[0] == 2 + 2

    def test_pattern_count_3(self):
        assert sign_patterns(3).shape == (6, 3)

    def test_requires_hamming(self):
        prob = make_problem(
            [[0.5, 0.0], [0.0, 0.5]], metric=[[0.0, 0.5], [0.5, 0.0]]
        )
        with pytest.raises(ProblemError, match="Hamming"):
            build_tv_form(prob, 0.1)

    def test_alphabet_guard(self):
        with pytest.raises(ProblemError, match="12"):
            sign_patterns(13)

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

    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_report_invariants(self, bsc_problem, form):
        for p in [0.0, 0.005, 0.02, 0.3, 1.0]:
            rep = solve_dp_at(bsc_problem, p, form=form)
            assert rep.gap <= 1e-8
            assert rep.perception <= p + 1e-8
            assert bsc_problem.expected_distortion(rep.estimator) == pytest.approx(
                rep.value, abs=1e-8
            )
            assert rep.dual.feasibility_violation(bsc_problem) <= 1e-9
            assert rep.dual.output_marginal[-1] == 0.0

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
        # the solver returns the 3e-11 column as zeros, within its tolerance
        prob = make_problem([[0.3, 3e-11, 0.2], [0.2, 0.0, 0.3 - 3e-11]])
        rep = solve_dp_at(prob, 0.0, form=form)
        assert rep.value == pytest.approx(0.4, abs=1e-9)
        q = rep.estimator.q
        assert np.all(q >= 0.0)
        assert np.allclose(q.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

    def test_stochasticity_residual_is_a_solver_error(self, bsc_problem):
        q = np.array([[0.5, 1.0], [0.0, 0.0]])  # column 0 short by mass 0.3
        with pytest.raises(SolverError, match="off stochastic"):
            _stochastic_estimator(bsc_problem, q, 1e-9)

    def test_estimator_transport_feasibility(self):
        prob = random_problem(77, 3, 4, random_distortion=True, random_metric=True)
        for p in [0.0, 0.1, 0.35, 0.8]:
            rep = solve_dp_at(prob, p)
            w1, _ = prob.perception_of(rep.estimator)
            assert w1 <= p + 1e-8


class TestWarmStart:
    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_chain_of_levels_matches_cold(self, form):
        # Hamming 5x10, 21 levels up and then down, each solve started from
        # the previous level; the cold baseline is a phase-one solve of the
        # same program
        prob = random_problem(1, 5, 10)
        levels = np.linspace(0.0, 1.0, 21)
        for order in (levels, levels[::-1]):
            prev = None
            warm_pivots = cold_pivots = 0
            for p in order:
                cold = lpmod.solve(BUILD[form](prob, float(p))[0])
                warm = solve_dp_at(prob, float(p), form=form, start=prev)
                assert warm.value == pytest.approx(cold.value, abs=1e-12), p
                assert warm.gap <= 1e-8
                assert warm.perception <= p + 1e-8
                expected = prob.expected_distortion(warm.estimator)
                assert expected == pytest.approx(warm.value, abs=1e-9)
                assert warm.dual.feasibility_violation(prob) <= 1e-9
                warm_pivots += warm.iterations
                cold_pivots += cold.iterations
                prev = warm
            assert 5 * warm_pivots <= cold_pivots

    def test_start_from_another_form_or_shape_raises(self, bsc_problem):
        start = solve_dp_at(bsc_problem, 0.1, form="tv")
        with pytest.raises(ProblemError, match="form"):
            solve_dp_at(bsc_problem, 0.2, form="ot", start=start)
        with pytest.raises(ProblemError, match="form"):
            solve_dp_at(random_problem(2, 2, 3), 0.2, form="tv", start=start)

    @pytest.mark.parametrize("form", ["ot", "tv"])
    def test_start_from_another_problem_is_refused_or_exact(self, form):
        # a report of another 5x10 problem passes the shape check; its basis is
        # refused unless it is optimal here at its level, and never walked to a
        # wrong value
        prob = random_problem(1, 5, 10, random_distortion=True)
        others = [random_problem(seed, 5, 10, random_distortion=True) for seed in range(2, 8)]
        # the same problem with its masses moved by 1e-9 keeps its optimal bases
        jitter = 1.0 + 1e-9 * np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 10))
        moved = prob.channel.p_xy * jitter
        others.append(make_problem(moved / moved.sum(), prob.distortion.d))
        outcomes = []
        for other in others:
            start = solve_dp_at(other, 0.1, form=form)
            try:
                rep = solve_dp_at(prob, 0.3, form=form, start=start)
            except SolverError as exc:
                assert "not optimal" in str(exc)
                outcomes.append("refused")
                continue
            assert rep.value == pytest.approx(lpmod.solve(BUILD[form](prob, 0.3)[0]).value, abs=1e-12)
            outcomes.append("walked")
        assert outcomes == ["refused"] * 6 + ["walked"]


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


class TestCrashStart:
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
        # the start, one every lp._REFRESH_EVERY pivots, and the end of the walk
        rep = solve_dp_at(random_problem(1, 16, 64, random_distortion=True), 0.1)
        assert rep.iterations >= lpmod._REFRESH_EVERY
        assert rep.refactorizations >= 2 + rep.iterations // lpmod._REFRESH_EVERY

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


def _highs_cases():
    """Seeded instances up to 10x40: plain, tied and skewed masses, two metrics."""
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
            for random_metric in (False, True):
                prob = make_problem(p_xy, metric=metric if random_metric else None)
                kind = "metric" if random_metric else "hamming"
                forms = ("ot",) if random_metric or n_x > 8 else ("ot", "tv")
                cases += [
                    pytest.param(prob, form, id=f"{n_x}x{n_y}-{masses}-{kind}-{form}")
                    for form in forms
                ]
    return cases


class TestAgainstHighs:
    @pytest.mark.parametrize("prob, form", _highs_cases())
    def test_matches_highs(self, prob, form):
        pytest.importorskip("scipy")
        for p in (0.0, 0.05, 0.2, 0.6):
            rep = solve_dp_at(prob, p, form=form)
            assert rep.value == pytest.approx(highs_dp_oracle(prob, p), abs=1e-8), p
            assert rep.perception <= p + 1e-8
            assert prob.expected_distortion(rep.estimator) == pytest.approx(rep.value, abs=1e-9)


class TestDualPolyhedron:
    def test_counts_2x2(self, bsc_problem):
        poly = dual_polyhedron(bsc_problem)
        assert poly.d == 6
        assert poly.k == 9

    def test_counts_3x5(self):
        prob = random_problem(3, 3, 5)
        poly = dual_polyhedron(prob)
        assert poly.d == 11
        assert poly.k == 25

    def test_floor_point_feasible(self, bsc_problem):
        # stochasticity duals at the columnwise cost minimum, rest zero
        poly = dual_polyhedron(bsc_problem)
        w = bsc_problem.conditional.min(axis=0)
        point = np.concatenate([w, np.zeros(4)])
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
