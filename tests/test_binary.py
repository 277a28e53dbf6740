"""Binary-source closed form, threshold estimators, reduced dual oracle."""

import numpy as np
import pytest

from dptradeoff import (
    ProblemError,
    analyze,
    breakpoint_estimators,
    closed_form_curve,
    curve_by_vertices,
    estimator_at,
    estimator_on_curve,
    make_problem,
    reduced_dual_objective,
    reduced_dual_optimum,
    solve_dp_at,
    tv_distance,
    zero_perception_estimator,
)
from dptradeoff import binary as binmod
from dptradeoff.binary import _TIE_TOL, CASE_BALANCED, CASE_OVER, CASE_UNDER
from dptradeoff.curve import mix_supports
from dptradeoff.model import Estimator

from conftest import binary_dp_oracle, random_problem

# (p_xy, distortion) inputs with tied or degenerate gap levels; gap(y) is
# exactly 0 on a column whose two entries are equal under Hamming cost
TIE_CASES = {
    "duplicate-columns-short": ([[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]], None),
    "duplicate-columns-over": ([[0.2, 0.2, 0.05], [0.1, 0.1, 0.35]], None),
    "duplicate-columns-random-cost": (
        [[0.1, 0.25, 0.1, 0.05], [0.2, 0.05, 0.2, 0.05]],
        [[0.3, 1.2], [0.9, 0.1]],
    ),
    "zero-gap-p-first-below": ([[0.3, 0.05, 0.02], [0.28, 0.05, 0.3]], None),
    "zero-gap-p-first-inside": ([[0.3, 0.2, 0.05], [0.1, 0.2, 0.15]], None),
    "zero-gap-p-first-above": ([[0.2, 0.05, 0.3], [0.01, 0.05, 0.39]], None),
    # p_first = 23/64 is the mass of the knot one step above the greedy one
    "p-first-on-knot-short": (np.array([[16, 2, 5], [1, 4, 36]]) / 64, None),
    "p-first-on-knot-over": (np.array([[1, 4, 36], [16, 2, 5]]) / 64, None),
    "p-x-first-only": ([[0.5, 0.3, 0.2], [0.0, 0.0, 0.0]], [[1.0, 0.2], [0.0, 1.0]]),
    "p-x-second-only": ([[0.0, 0.0, 0.0], [0.5, 0.3, 0.2]], [[1.0, 0.0], [0.3, 1.0]]),
    # a 1e-3 metric puts two breakpoints 3e-13 apart in perception units,
    # while their piece is 3e-10 long in total-variation units
    "small-metric-close-breakpoints": (
        [[0.25, 1e-10, 0.1], [0.05, 2e-10, 0.6 - 3e-10]],
        None,
        [[0.0, 1e-3], [1e-3, 0.0]],
    ),
}


# Reference constructions, one rule at a time through ``Estimator``: the
# stacked builds in ``binary`` must equal them bit for bit.

def _reference_threshold_rule(an, threshold):
    first = (an.gaps <= threshold + _TIE_TOL).astype(float)
    return Estimator(np.vstack([first, 1.0 - first]))


def _reference_breakpoints(an):
    return list(zip(an.breakpoints.tolist(), an.thresholds.tolist()))


def _reference_zero_perception(problem, an):
    p_y = problem.p_y
    first = np.zeros_like(an.gaps)
    short = an.p_first
    for y in np.argsort(an.gaps, kind="stable"):
        if short <= 1e-15:
            break
        take = min(p_y[y], short)
        first[y] = take / p_y[y]
        short -= take
    return Estimator(np.vstack([first, 1.0 - first]))


def _reference_estimator_at(problem, an, p_level):
    thresholds = sorted(_reference_breakpoints(an), key=lambda t: t[0])
    levels = [0.0] + [bp for bp, _ in thresholds]
    rules = [_reference_zero_perception(problem, an)]
    rules += [_reference_threshold_rule(an, t) for _, t in thresholds]
    return mix_supports(levels, rules, p_level)


def _posterior_columns(shares, masses):
    """A binary Hamming problem whose column y has mass ``masses[y]`` and
    first-symbol posterior ``shares[y]``, so that gap(y) = 1/2 - shares[y]."""
    p_xy = np.vstack([shares * masses, (1.0 - shares) * masses])
    return make_problem(p_xy / p_xy.sum())


def _near_tie_problems():
    """Posteriors drawn from three levels, each moved by 0, 2e-13, 6e-13 or
    3e-12, so that gaps tie within ``_TIE_TOL``, or just miss, in every
    arrangement."""
    out = []
    for seed in range(20):
        rng = np.random.default_rng(2100 + seed)
        n_y = int(rng.integers(3, 12))
        shares = rng.choice([0.3, 0.5, 0.7], n_y) + rng.choice([0.0, 2e-13, -6e-13, 3e-12], n_y)
        out.append(_posterior_columns(shares, rng.uniform(0.1, 1.0, n_y)))
    return out


def _tiny_mass_problems():
    """Observation masses near 1e-11 next to ordinary ones; in the first
    two the exact-marginal rule goes fractional on such a symbol."""
    out = [
        make_problem([[0.3, 0.5e-11, 0.0], [0.0, 0.5e-11, 0.7 - 1e-11]]),
        make_problem([[0.1, 0.2, 0.3e-11, 0.1], [0.1, 0.0, 0.9e-11, 0.5 - 1.2e-11]]),
    ]
    for seed in range(20):
        rng = np.random.default_rng(2200 + seed)
        n_y = int(rng.integers(3, 10))
        masses = rng.uniform(0.1, 1.0, n_y)
        masses[rng.random(n_y) < 0.4] = rng.uniform(0.5e-11, 2e-11)
        out.append(_posterior_columns(rng.uniform(0.0, 1.0, n_y), masses))
    return out


REFERENCE_POOLS = {
    "acceptance-200": lambda: [
        random_problem(seed, 2, 2 + seed % 7, random_distortion=True) for seed in range(200)
    ],
    "tie-cases": lambda: [make_problem(*case) for case in TIE_CASES.values()],
    "near-ties": _near_tie_problems,
    "tiny-masses": _tiny_mass_problems,
    "balanced": lambda: [make_problem([[0.25, 0.25], [0.25, 0.25]])],
}


class TestAnalyze:
    def test_bsc_underallocated(self, bsc_problem):
        an = analyze(bsc_problem)
        assert an.case == CASE_UNDER
        assert np.allclose(an.gaps, [-0.5 / 1.16, 0.3 / 0.84], atol=1e-9)
        assert np.allclose(an.breakpoints, [0.02], atol=1e-12)
        assert an.breakpoints.shape == (1,)

    def test_independent_overallocated(self, indep_problem):
        an = analyze(indep_problem)
        assert an.case == CASE_OVER
        assert np.allclose(an.gaps, [-0.1, -0.1], atol=1e-12)
        # both symbols share one gap level, so one knot and one breakpoint
        assert an.breakpoints.shape == (1,)
        assert an.breakpoints[0] == pytest.approx(0.4, abs=1e-12)

    def test_balanced_symmetric(self):
        prob = make_problem([[0.25, 0.25], [0.25, 0.25]])
        an = analyze(prob)
        assert an.case == CASE_BALANCED
        curve = closed_form_curve(prob, an)
        assert curve.breakpoints.size == 0
        assert curve.value(0.0) == prob.distortion_floor

    def test_noiseless_flat(self, noiseless_problem):
        an = analyze(noiseless_problem)
        curve = closed_form_curve(noiseless_problem, an)
        assert curve.value(0.0) == 0.0
        assert curve.d_star == 0.0

    def test_exactly_one_case(self):
        for seed in range(40):
            prob = random_problem(1300 + seed, 2, int(3 + seed % 5), random_distortion=True)
            case = analyze(prob).case
            assert case in (CASE_UNDER, CASE_OVER, CASE_BALANCED)

    def test_nonbinary_rejected(self):
        prob = random_problem(3, 3, 3)
        with pytest.raises(ProblemError, match="binary"):
            analyze(prob)

    def test_near_tied_gaps_give_one_threshold(self):
        # gaps 0.05 and 0.05 - 1e-14 are one level; the walk passes it
        prob = _posterior_columns(np.array([0.45, 0.45 + 1e-14, 0.3]), np.array([0.1, 0.1, 0.8]))
        an = analyze(prob)
        assert an.case == CASE_UNDER
        assert an.thresholds[0] == -np.inf
        assert an.thresholds[1:].tolist() == [an.gaps[1]]

    def test_breakpoints_step_by_group_mass(self):
        # the knot of the tied pair puts both symbols' mass, 0.2, on the first
        prob = _posterior_columns(np.array([0.45, 0.45 + 1e-14, 0.3]), np.array([0.1, 0.1, 0.8]))
        an = analyze(prob)
        assert an.breakpoints.size == 2
        assert an.breakpoints[0] == pytest.approx(an.p_first, abs=1e-15)
        assert an.breakpoints[0] - an.breakpoints[1] == pytest.approx(0.2, abs=1e-15)

    def test_stored_pieces_make_the_curve(self):
        for pool in REFERENCE_POOLS.values():
            for prob in pool():
                an = analyze(prob)
                assert an.breakpoints.size == an.thresholds.size == an.slopes.size
                got = closed_form_curve(prob, an).breakpoints
                assert got.tobytes() == an.breakpoints[::-1].tobytes()
        # p_first on a knot: the knot is at distance 0 and ends no piece
        for case in ("p-first-on-knot-short", "p-first-on-knot-over"):
            assert analyze(make_problem(*TIE_CASES[case])).breakpoints.tolist() == [0.09375]


class TestClosedFormCurve:
    def test_bsc_numbers(self, bsc_problem):
        curve = closed_form_curve(bsc_problem)
        assert np.allclose(curve.breakpoints, [0.02], atol=1e-12)
        assert curve.value(0.1) == 0.10
        assert curve.value(0.0) == pytest.approx(0.8 / 7.0, abs=1e-12)
        assert curve.slopes[0] == pytest.approx(-5.0 / 7.0, abs=1e-12)

    def test_independent_numbers(self, indep_problem):
        curve = closed_form_curve(indep_problem)
        assert np.allclose(curve.breakpoints, [0.4], atol=1e-12)
        assert curve.value(0.0) == pytest.approx(0.48, abs=1e-12)
        assert curve.value(0.7) == 0.4
        assert curve.slopes[0] == pytest.approx(-0.2, abs=1e-12)

    @pytest.mark.parametrize("seed", [*range(25), *TIE_CASES])
    def test_matches_greedy_allocation_oracle(self, seed):
        if isinstance(seed, str):
            rng = np.random.default_rng(0)
            prob = make_problem(*TIE_CASES[seed])
        else:
            rng = np.random.default_rng(seed)
            prob = random_problem(1500 + seed, 2, int(rng.integers(2, 9)), random_distortion=True)
        an = analyze(prob)
        curve = closed_form_curve(prob, an)
        assert np.all(curve.slopes[:-1] < 0.0)  # no flat piece below the plateau
        for p in [0.0, *curve.breakpoints, *rng.uniform(0.0, 1.0, 6)]:
            assert curve.value(float(p)) == pytest.approx(
                binary_dp_oracle(prob, float(p)), abs=1e-10
            )
        estimators = breakpoint_estimators(prob, an)
        assert sorted(bp for bp, _ in estimators) == list(curve.breakpoints)
        for bp, est in estimators:
            assert np.all((est.q == 0.0) | (est.q == 1.0))
            assert prob.perception_of(est)[0] <= bp + 1e-10
            assert prob.expected_distortion(est) == pytest.approx(curve.value(bp), abs=1e-10)
        zero = estimator_at(prob, an, 0.0)
        assert np.allclose(zero.q @ prob.p_y, prob.p_x, rtol=0.0, atol=1e-12)
        assert prob.expected_distortion(zero) == pytest.approx(curve.value(0.0), abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_lp(self, seed):
        prob = random_problem(1600 + seed, 2, 5, random_distortion=True)
        curve = closed_form_curve(prob)
        for p in np.linspace(0.0, 1.0, 11):
            assert abs(curve.value(float(p)) - solve_dp_at(prob, float(p)).value) <= 1e-8

    def test_distinct_levels_satisfy_mass_recursion(self):
        # with distinct gap levels, each stored piece is exactly as long as
        # the probability of the symbol it trades, whose gap level is
        # minus half the piece's slope (a Hamming metric: scale 1)
        prob = make_problem(
            [[0.5, 0.2, 0.1], [0.05, 0.05, 0.1]],
            distortion=[[0.0, 0.2], [1.0, 0.0]],
        )
        an = analyze(prob)
        assert an.case == CASE_UNDER
        # p_first = 0.8 sits on the knot at gap level 0.02, which ends no piece
        assert an.breakpoints.size == 1
        ends = np.append(an.breakpoints, 0.0)
        for i, slope in enumerate(an.slopes):
            symbol = int(np.argmin(np.abs(np.abs(an.gaps) + 0.5 * slope)))
            assert ends[i] - ends[i + 1] == pytest.approx(prob.p_y[symbol], abs=1e-12)

    def test_budget_binding_to_the_domain_edge(self):
        # deterministic source, cheap reconstruction on the other symbol
        prob = make_problem(
            [[0.5, 0.5], [0.0, 0.0]], distortion=[[5.0, 0.0], [1.0, 1.0]]
        )
        curve = closed_form_curve(prob)
        assert curve.p_star == pytest.approx(1.0, abs=1e-12)
        assert curve.d_star == 0.0
        assert curve.value(0.3) == pytest.approx(3.5, abs=1e-12)
        assert curve.value(0.3) == pytest.approx(binary_dp_oracle(prob, 0.3), abs=1e-12)

    def test_scaled_metric_rescales_axis(self, bsc_problem):
        scaled = make_problem(
            bsc_problem.channel.p_xy, metric=[[0.0, 0.5], [0.5, 0.0]]
        )
        base = closed_form_curve(bsc_problem)
        curve = closed_form_curve(scaled)
        assert np.allclose(curve.breakpoints, 0.5 * base.breakpoints, atol=1e-12)
        for p in np.linspace(0.0, 0.5, 7):
            assert curve.value(p) == pytest.approx(base.value(2 * p), abs=1e-12)
        for p in [0.0, 0.004, 0.01, 0.3]:
            assert curve.value(p) == pytest.approx(
                solve_dp_at(scaled, p).value, abs=1e-8
            )


class TestBreakpointEstimators:
    def test_bsc_threshold_rule(self, bsc_problem):
        pairs = breakpoint_estimators(bsc_problem)
        assert len(pairs) == 1
        bp, est = pairs[0]
        assert bp == pytest.approx(0.02, abs=1e-12)
        assert np.allclose(est.q, [[1.0, 0.0], [0.0, 1.0]])

    def test_independent_maps_everything_to_first(self, indep_problem):
        pairs = breakpoint_estimators(indep_problem)
        assert len(pairs) == 1
        bp, est = pairs[0]
        assert bp == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(est.q, indep_problem.minimum[1].q)

    @pytest.mark.parametrize("seed", range(15))
    def test_deterministic_feasible_and_on_curve(self, seed):
        prob = random_problem(1700 + seed, 2, 6, random_distortion=True)
        an = analyze(prob)
        curve = closed_form_curve(prob, an)
        estimators = breakpoint_estimators(prob, an)
        assert sorted(bp for bp, _ in estimators) == list(curve.breakpoints)
        for bp, est in estimators:
            assert np.all((est.q == 0.0) | (est.q == 1.0))
            out = est.q @ prob.p_y
            scale = prob.metric.h[0, 1]
            assert scale * tv_distance(prob.p_x, out / out.sum()) <= bp + 1e-10
            assert prob.expected_distortion(est) == pytest.approx(
                curve.value(bp), abs=1e-10
            )


class TestEstimatorAt:
    def test_breakpoint_returns_threshold_rule(self, bsc_problem):
        an = analyze(bsc_problem)
        est = estimator_at(bsc_problem, an, 0.02)
        assert np.allclose(est.q, [[1.0, 0.0], [0.0, 1.0]])

    def test_midpoint_is_half_mix(self, bsc_problem):
        an = analyze(bsc_problem)
        curve = closed_form_curve(bsc_problem, an)
        p = 0.01
        est = estimator_at(bsc_problem, an, p)
        assert bsc_problem.expected_distortion(est) == pytest.approx(
            curve.value(p), abs=1e-10
        )
        left = bsc_problem.expected_distortion(estimator_at(bsc_problem, an, 0.0))
        right = bsc_problem.expected_distortion(estimator_at(bsc_problem, an, 0.02))
        assert bsc_problem.expected_distortion(est) == pytest.approx(
            0.5 * (left + right), abs=1e-10
        )

    def test_bsc_zero_level_estimator(self, bsc_problem):
        est = estimator_at(bsc_problem, analyze(bsc_problem), 0.0)
        assert est.q[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert est.q[0, 1] == pytest.approx(0.02 / 0.42, abs=1e-12)
        out = est.q @ bsc_problem.p_y
        assert np.allclose(out, [0.6, 0.4], atol=1e-15)

    def test_above_first_breakpoint_returns_plateau_rule(self, indep_problem):
        an = analyze(indep_problem)
        est = estimator_at(indep_problem, an, 0.9)
        assert np.allclose(est.q, [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(12))
    def test_feasible_and_on_curve_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(1800 + seed, 2, 5, random_distortion=True)
        an = analyze(prob)
        curve = closed_form_curve(prob, an)
        scale = prob.metric.h[0, 1]
        for p in rng.uniform(0.0, 1.0, 5):
            est = estimator_at(prob, an, float(p))
            out = est.q @ prob.p_y
            assert scale * tv_distance(prob.p_x, out / out.sum()) <= p + 1e-9
            assert prob.expected_distortion(est) == pytest.approx(
                curve.value(float(p)), abs=1e-9
            )

    @pytest.mark.parametrize("level", [np.nan, np.inf, -0.1])
    def test_level_must_be_finite_and_nonnegative(self, bsc_problem, level):
        an = analyze(bsc_problem)
        for call in (
            lambda: estimator_at(bsc_problem, an, level),
            lambda: reduced_dual_objective(bsc_problem, level, 0.0, an),
            lambda: reduced_dual_optimum(bsc_problem, level, an),
        ):
            with pytest.raises(ProblemError, match="finite and >= 0"):
                call()

    def test_zero_estimator_matches_source_marginal(self):
        for seed in range(10):
            prob = random_problem(1900 + seed, 2, 7, random_distortion=True)
            est = zero_perception_estimator(prob)
            out = est.q @ prob.p_y
            assert np.allclose(out, prob.p_x, atol=1e-12)


class TestAgainstPerRuleReference:
    @pytest.mark.parametrize("pool", REFERENCE_POOLS)
    def test_stacked_rules_equal_the_reference(self, pool):
        for prob in REFERENCE_POOLS[pool]():
            an = analyze(prob)
            assert np.array_equal(
                zero_perception_estimator(prob, an).q, _reference_zero_perception(prob, an).q
            )
            got, want = breakpoint_estimators(prob, an), _reference_breakpoints(an)
            assert [bp for bp, _ in got] == [bp for bp, _ in want]
            for (_, est), (_, thr) in zip(got, want):
                assert np.array_equal(est.q, _reference_threshold_rule(an, thr).q)
            ends = sorted([0.0] + [bp for bp, _ in want])
            levels = ends + [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
            for p in levels + [1.5 * ends[-1] + 0.1, 1.0]:
                assert np.array_equal(
                    estimator_at(prob, an, p).q, _reference_estimator_at(prob, an, p).q
                )

    def test_pools_reach_every_case(self):
        cases = {analyze(prob).case for pool in REFERENCE_POOLS.values() for prob in pool()}
        assert cases == {CASE_UNDER, CASE_OVER, CASE_BALANCED}

    def test_rules_are_read_only(self, bsc_problem):
        an = analyze(bsc_problem)
        estimators = [est for _, est in breakpoint_estimators(bsc_problem, an)]
        estimators += [zero_perception_estimator(bsc_problem, an), estimator_at(bsc_problem, an, 0.01)]
        for est in estimators:
            with pytest.raises(ValueError):
                est.q[0, 0] = 0.5


class TestRulesBuiltOnce:
    # the levels at which the benchmark's binary workload asks for estimator_at
    LEVELS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize(
        "prob",
        [
            random_problem(1, 2, 8, random_distortion=True),
            random_problem(2, 2, 40, random_metric=True),
            make_problem([[0.25, 0.25], [0.25, 0.25]]),
        ],
        ids=["2x8", "2x40-metric", "balanced"],
    )
    def test_one_lazy_stack_per_analysis(self, prob, monkeypatch):
        calls = []
        real = binmod._estimator_stack
        monkeypatch.setattr(binmod, "_estimator_stack", lambda q: calls.append(1) or real(q))
        an = analyze(prob)
        closed_form_curve(prob, an)
        assert calls == []
        rounds = []
        for _ in range(2):
            rounds.append((
                zero_perception_estimator(prob, an),
                breakpoint_estimators(prob, an),
                [estimator_at(prob, an, p) for p in self.LEVELS],
            ))
        assert calls == [1]
        (zero, pairs, grid), (zero2, pairs2, grid2) = rounds
        assert zero2 is zero
        assert [bp for bp, _ in pairs2] == [bp for bp, _ in pairs]
        assert all(b is a for (_, a), (_, b) in zip(pairs, pairs2))
        assert all(np.array_equal(a.q, b.q) for a, b in zip(grid, grid2))
        assert estimator_at(prob, an, 0.0) is zero
        for bp, est in pairs:
            assert estimator_at(prob, an, bp) is est
        assert calls == [1]
        # without an analysis every call analyses and builds afresh
        assert np.array_equal(zero_perception_estimator(prob).q, zero.q)
        assert [bp for bp, _ in breakpoint_estimators(prob)] == [bp for bp, _ in pairs]
        assert np.array_equal(estimator_at(prob, None, self.LEVELS[3]).q, grid[3].q)
        assert calls == [1, 1, 1, 1]


class TestMixedSupports:
    def test_closed_form_and_vertex_supports_reach_the_curve(self):
        # estimator_at mixes threshold rules, estimator_on_curve mixes
        # solved endpoint rules; both go through one mixing rule
        prob = random_problem(1, 2, 8, random_distortion=True)
        an = analyze(prob)
        curve = closed_form_curve(prob, an)
        report = curve_by_vertices(prob)
        ends = [0.0, *curve.breakpoints, 1.0]
        levels = [0.5 * (a + b) for a, b in zip(ends[:-1], ends[1:])]
        assert len(levels) >= 3
        for p in levels:
            for est in (estimator_at(prob, an, p), estimator_on_curve(prob, report, p)):
                assert prob.expected_distortion(est) == pytest.approx(
                    curve.value(p), abs=1e-9
                )
                w1, _ = prob.perception_of(est)
                assert w1 <= p + 1e-9


class TestReducedDual:
    def test_zero_cutoff_is_floor_for_every_level(self, bsc_problem):
        for p in [0.0, 0.2, 0.37, 1.0, 3.0]:
            assert reduced_dual_objective(bsc_problem, p, 0.0) == pytest.approx(
                bsc_problem.distortion_floor, abs=1e-15
            )

    def test_bsc_cutoff_value(self, bsc_problem):
        val = reduced_dual_objective(bsc_problem, 0.0, 0.3 / 0.84)
        assert val == pytest.approx(0.8 / 7.0, abs=1e-12)

    def test_large_level_never_beats_floor(self, bsc_problem):
        an = analyze(bsc_problem)
        floor = reduced_dual_objective(bsc_problem, 1.0, 0.0)
        for u in np.concatenate([[0.0], an.gaps]):
            assert reduced_dual_objective(bsc_problem, 1.0, float(u)) <= floor + 1e-12

    def test_bsc_optimum_at_001(self, bsc_problem):
        assert reduced_dual_optimum(bsc_problem, 0.01) == pytest.approx(
            0.75 / 7.0, abs=1e-12
        )

    def test_level_one_is_floor(self, bsc_problem):
        assert reduced_dual_optimum(bsc_problem, 1.0) == pytest.approx(
            bsc_problem.distortion_floor, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(2000 + seed, 2, int(rng.integers(2, 9)), random_distortion=True)
        an = analyze(prob)
        curve = closed_form_curve(prob, an)
        for p in rng.uniform(0.0, 1.0, 5):
            assert reduced_dual_optimum(prob, float(p), an) == pytest.approx(
                curve.value(float(p)), abs=1e-10
            )
