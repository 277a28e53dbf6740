"""Grid oracle bracketing and cross-method verification."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dptradeoff import (
    BudgetExceededError,
    ProblemError,
    cross_verify,
    grid_oracle,
    make_problem,
    solve_dp_at,
)
from dptradeoff import verify
from dptradeoff.problemio import generate_instance, instance_to_problem
from dptradeoff.verify import _simplex_grid

from conftest import (
    closed_random_metric,
    edge_problems,
    highs_dp_oracle,
    random_problem,
    skewed_masses,
    three_symbol_skewed,
    tilt_sweep,
)


class TestGridOracle:
    def test_noiseless_reaches_zero(self, noiseless_problem):
        for p in [0.0, 0.3, 1.0]:
            assert grid_oracle(noiseless_problem, p, 10) == 0.0

    def test_bsc_near_floor_at_level_one(self, bsc_problem):
        val = grid_oracle(bsc_problem, 1.0, 50)
        assert val >= 0.10 - 1e-12
        assert val <= 0.10 + 0.02

    def test_independent_near_exact(self, indep_problem):
        val = grid_oracle(indep_problem, 0.2, 100)
        assert abs(val - 0.44) <= 0.01
        assert val >= 0.44 - 1e-12

    @pytest.mark.parametrize("p_level", [-0.1, math.nan, math.inf])
    def test_invalid_level_rejected(self, bsc_problem, p_level):
        with pytest.raises(ProblemError, match="perception level"):
            grid_oracle(bsc_problem, p_level, 20)

    def test_one_symbol_source_gives_the_floor(self):
        # one source symbol: no free degrees of freedom and no transport cost
        prob = make_problem([[0.2, 0.3, 0.5]], distortion=[[0.4]])
        for p in [0.0, 0.5, 1.0]:
            assert grid_oracle(prob, p, 5) == prob.distortion_floor == 0.4

    def test_dof_guard(self):
        prob = random_problem(5, 3, 5)  # 10 degrees of freedom
        with pytest.raises(BudgetExceededError, match="degrees of freedom"):
            grid_oracle(prob, 0.5, 10)

    def test_size_guard(self):
        prob = random_problem(6, 2, 8)
        with pytest.raises(BudgetExceededError, match="budget"):
            grid_oracle(prob, 0.5, 200)

    def test_size_guard_builds_no_grid(self):
        # 16^6 points are past the 1e7 budget, so the 136^3-point grid is never built
        prob = random_problem(1, 3, 3)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="1e7 budget"):
                grid_oracle(prob, 0.1, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("parts", range(1, 6))
    @pytest.mark.parametrize("steps", range(1, 9))
    def test_simplex_grid_rows(self, steps, parts):
        rows = [c for c in itertools.product(range(steps + 1), repeat=parts) if sum(c) == steps]
        expected = np.asarray(rows, dtype=float) / steps
        grid = _simplex_grid(steps, parts)
        assert grid.shape == expected.shape and grid.tobytes() == expected.tobytes()

    def test_never_below_exact(self, bsc_problem):
        for p in np.linspace(0.0, 1.0, 6):
            val = grid_oracle(bsc_problem, float(p), 60)
            if math.isfinite(val):
                assert val >= solve_dp_at(bsc_problem, float(p)).value - 1e-9

    def test_bracketing_on_grid_aligned_instance(self):
        # marginals chosen so exact-mass grid points exist at every level
        prob = make_problem([[0.4, 0.1], [0.1, 0.4]])
        steps = 200
        band = prob.n_y * float(prob.distortion.d.max() - prob.distortion.d.min()) / steps
        for p in np.linspace(0.0, 1.0, 11):
            exact = solve_dp_at(prob, float(p)).value
            val = grid_oracle(prob, float(p), steps)
            assert exact - 1e-9 <= val <= exact + band + 1e-9

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_rejected(self, bsc_problem, steps):
        with pytest.raises(ProblemError, match="at least 1 step"):
            grid_oracle(bsc_problem, 0.5, steps)

    def test_steps_not_an_integer_rejected(self, bsc_problem):
        with pytest.raises(ProblemError, match="steps must be an integer, got 2.5"):
            grid_oracle(bsc_problem, 0.1, 2.5)
        assert grid_oracle(bsc_problem, 0.1, np.int64(20)) == grid_oracle(bsc_problem, 0.1, 20)

    def test_general_metric_fallback_path(self, monkeypatch):
        # unequal off-diagonal distances force transport solves near the
        # feasibility boundary instead of the sandwich shortcut
        prob = random_problem(11, 3, 2, random_distortion=True, random_metric=True)
        for p in [0.05, 0.3]:
            val = grid_oracle(prob, p, 24)
            assert val >= solve_dp_at(prob, p).value - 1e-9

        # here the cheapest point the sandwich leaves open is accepted by its
        # own transport solve, the first and only one the scan makes
        transport, solves = verify.wasserstein1, []

        def counting(*args):
            solves.append(transport(*args))
            return solves[-1]

        monkeypatch.setattr(verify, "wasserstein1", counting)
        prob = random_problem(1, 3, 2, random_distortion=True, random_metric=True)
        val = grid_oracle(prob, 0.02, 6)
        assert len(solves) == 1 and solves[0][0] <= 0.02
        exact = solve_dp_at(prob, 0.02).value
        band = prob.n_y * float(prob.distortion.d.max() - prob.distortion.d.min()) / 6
        assert exact < val <= exact + band
        assert val == pytest.approx(0.48481458, abs=1e-8)
        assert exact == pytest.approx(0.48173552, abs=1e-8)


class TestCrossVerify:
    def test_bsc_passes(self, bsc_problem):
        report = cross_verify(bsc_problem, np.linspace(0, 1, 21), grid_steps=60)
        assert report.passed, report.failures
        assert report.max_discrepancy <= 1e-8
        assert {"sweep", "closed_form", "vertex", "pointwise", "grid_oracle"} <= set(
            report.values
        )

    def test_seeded_3x4_vertex_vs_sweep(self):
        prob = random_problem(7, 3, 4, random_distortion=True)
        report = cross_verify(prob, np.linspace(0, 1, 11))
        assert report.passed, report.failures
        assert "vertex" in report.values and "sweep" in report.values

    def test_6x4_carries_the_vertex_column(self):
        # its dual is walked whole within the default budget (2,002 bases)
        prob = instance_to_problem(generate_instance(1, 6, 4))
        report = cross_verify(prob, np.linspace(0, 1, 11))
        assert report.passed, report.failures
        assert {"sweep", "vertex", "pointwise"} <= set(report.values)

    def test_ill_conditioned_3x3_vertex_column(self):
        # observation masses near 1e-9: the vertex column once lacked a line
        # and stood 2.0e-10 off the sweep and the pointwise column at P = 0
        prob = make_problem(
            [[0.2, 1e-9, 0.1], [0.1, 2e-9, 0.2], [0.2, 0.0, 0.2 - 3e-9]],
            None,
            [[0, 0.7, 0.9], [0.7, 0, 0.6], [0.9, 0.6, 0]],
        )
        report = cross_verify(prob, np.linspace(0, 1, 101), exact_tol=1e-12)
        assert report.passed, report.failures
        assert "vertex" in report.values

    def test_walks_once(self, monkeypatch):
        # the vertex column enumerates from the sweep's walk, not a second one
        from dptradeoff import lp as lpmod

        walk, calls = lpmod.walk, []

        def counting(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(lpmod, "walk", counting)
        report = cross_verify(random_problem(1, 3, 4), np.linspace(0, 1, 11))
        assert {"sweep", "vertex"} <= set(report.values)
        assert len(calls) == 1

    def test_vertex_column_dropped_past_its_budget(self):
        # the 8x4 dual has 31,824 bases, past the default vertex budget
        prob = instance_to_problem(generate_instance(1, 8, 4))
        report = cross_verify(prob, np.linspace(0, 1, 11))
        assert set(report.values) == {"sweep", "pointwise"}
        assert report.passed, report.failures

    def test_grid_column_infinite_where_no_grid_point_is_feasible(self, bsc_problem):
        # at P = 0 no point of the 7-step grid meets the source marginal exactly
        report = cross_verify(bsc_problem, np.linspace(0, 1, 5), grid_steps=7)
        grid = report.values["grid_oracle"]
        assert grid[0] == math.inf and np.all(np.isfinite(grid[1:]))
        assert report.passed, report.failures
        assert f"grid oracle band: {2 / 7:.3e}" in report.render()

    def test_grid_column_skipped_past_its_budget(self):
        # 3x5 has 10 free degrees of freedom, one more than grid_oracle takes
        report = cross_verify(random_problem(1, 3, 5), np.linspace(0, 1, 5), grid_steps=10)
        assert report.passed, report.failures
        assert "grid_oracle" not in report.values and report.grid_band is None

    def test_grid_oracle_off_its_bracket_fails(self, bsc_problem, monkeypatch):
        # 10 steps on the binary channel: band n_y * 1 / 10 = 0.2, binding
        # from h_max * n_x / 10 = 0.2 up; the oracle's scan is moved off the
        # exact value below it at 0.5, above the band at 0.7, and above the
        # band at 0.1, below the band's floor, where it is not judged
        offsets = {0.1: 0.25, 0.5: -0.01, 0.7: 0.25}

        def scan(problem, grid, p_level, w1):
            return solve_dp_at(problem, p_level).value + offsets.get(round(p_level, 9), 0.0)

        monkeypatch.setattr("dptradeoff.verify._scan", scan)
        report = cross_verify(bsc_problem, np.linspace(0, 1, 11), grid_steps=10)
        assert report.grid_band == pytest.approx(0.2)
        assert not report.passed
        assert len(report.failures) == 2, report.failures
        below, above = report.failures
        assert below.startswith("grid oracle below exact by 1.000e-02 at P=0.500000")
        assert above.startswith("grid oracle above the band by 5.000e-02 at P=0.700000")

    def test_grid_built_once_for_all_levels(self, bsc_problem, monkeypatch):
        calls = []

        def counted(steps, parts):
            calls.append((steps, parts))
            return _simplex_grid(steps, parts)

        monkeypatch.setattr("dptradeoff.verify._simplex_grid", counted)
        report = cross_verify(bsc_problem, np.linspace(0, 1, 11), grid_steps=5)
        assert report.values["grid_oracle"].size == 11
        assert calls == [(5, 2)]

    def test_corrupted_slope_fails_with_location(self, bsc_problem, monkeypatch):
        tilt_sweep(monkeypatch, 1e-3)
        report = cross_verify(bsc_problem, np.linspace(0, 1, 21))
        assert not report.passed
        assert any("P=" in f for f in report.failures)
        assert "FAIL" in report.render()

    @pytest.mark.parametrize(
        "grid, kwargs, message",
        [(0.5, {}, r"one-dimensional, got shape \(\)"),
         (np.array([[0.1, 0.2]]), {}, r"one-dimensional, got shape \(1, 2\)"),
         (np.linspace(0, 1, 5), {"grid_steps": 2.5}, "steps must be an integer"),
         ([0.1, math.nan], {}, "perception level must be finite and >= 0, got nan"),
         ([-0.1], {}, r"perception level must be finite and >= 0, got -0\.1")],
        ids=["scalar-grid", "2d-grid", "float-steps", "nan-level", "negative-level"],
    )
    def test_malformed_input_rejected_before_any_solve(
        self, bsc_problem, monkeypatch, grid, kwargs, message
    ):
        def forbidden(problem):
            raise AssertionError("solved before the input was checked")

        monkeypatch.setattr("dptradeoff.verify._sweep", forbidden)
        with pytest.raises(ProblemError, match=message):
            cross_verify(bsc_problem, grid, **kwargs)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, bsc_problem, tol):
        # a NaN tolerance would pass every comparison, a negative one fail every one
        with pytest.raises(ProblemError, match="exact_tol must be finite and nonnegative"):
            cross_verify(bsc_problem, np.linspace(0, 1, 5), exact_tol=tol)

    def test_deterministic(self, bsc_problem):
        a = cross_verify(bsc_problem, np.linspace(0, 1, 9))
        b = cross_verify(bsc_problem, np.linspace(0, 1, 9))
        for key in a.values:
            assert np.array_equal(a.values[key], b.values[key])
        assert a.max_discrepancy == b.max_discrepancy

    def test_render_contains_table(self, bsc_problem):
        report = cross_verify(bsc_problem, np.linspace(0, 1, 5))
        text = report.render()
        assert "PASS" in text
        assert "sweep" in text


def _mixed_skewed(seed):
    """2-4 x 2-5; a random distortion on odd seeds, a path-closed random
    metric unless ``seed % 3 == 0`` (Hamming then)."""
    rng = np.random.default_rng([7, seed])
    n_x, n_y = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    p_xy = skewed_masses(rng, n_x, n_y)
    distortion = rng.uniform(size=(n_x, n_x)) if seed % 2 else None
    metric = closed_random_metric(rng, n_x) if seed % 3 else None
    return make_problem(p_xy, distortion, metric)


class TestSkewedMasses:
    """Observation columns of mass down to about 1e-12.

    Every method must agree on these, and ``solve_dp_at`` must solve every
    level: when the program's columns were scaled by their observation
    mass, the sweep on some of them raised ``curve slopes must be
    non-decreasing``, ran infeasible, or read a curve 1.6e-4 off the
    vertex one (three-symbol seeds 15, 17, 20; mixed seeds 18, 75, 83).
    """

    PS = np.linspace(0.0, 1.0, 21)

    def _check(self, prob):
        report = cross_verify(prob, self.PS, exact_tol=1e-9)
        assert report.passed, report.failures
        for p, want in zip(self.PS, report.values["pointwise"]):
            assert abs(solve_dp_at(prob, float(p)).value - want) <= 1e-9, p

    @pytest.mark.parametrize("seed", range(60))
    def test_three_symbols(self, seed):
        self._check(instance_to_problem(three_symbol_skewed(seed)))

    @pytest.mark.parametrize("seed", range(100))
    def test_mixed_shapes(self, seed):
        self._check(_mixed_skewed(seed))


class TestPointwiseColumn:
    """The pointwise column solves each level from the transport staircase."""

    LEVELS = (0.0, 0.05, 0.3)

    @staticmethod
    def pool():
        """2x3, 3x5, 5x10 and 8x20 on seeds 1-40 (a random metric on even
        seeds, Hamming on odd), then ``edge_problems()`` and 100 skewed draws."""
        for shape in ((2, 3), (3, 5), (5, 10), (8, 20)):
            for seed in range(1, 41):
                yield random_problem(seed, *shape, random_distortion=True, random_metric=seed % 2 == 0)
        yield from edge_problems().values()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            yield make_problem(skewed_masses(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7))))

    def test_pool_matches_highs_and_the_walk(self, monkeypatch):
        # HiGHS, at its feasibility tolerance of 1e-10, misses the skewed
        # draws by up to 4e-11 where an observation weighs less, so past the first
        # 160 instances the yardstick is the dual walk of solve_dp_at, which
        # shares neither the start nor the pivots; the pool's pivot total
        # pins the staircase start
        solve, pivots = verify.lpmod.solve, []

        def counted(lp, start):
            sol = solve(lp, start)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(verify.lpmod, "solve", counted)
        for k, prob in enumerate(self.pool()):
            values = verify._pointwise(prob, self.LEVELS)
            for p, value in zip(self.LEVELS, values):
                assert abs(value - solve_dp_at(prob, p).value) <= 1e-12, (k, p)
                if k < 160:
                    assert abs(value - highs_dp_oracle(prob, p)) <= 1e-12, (k, p)
        assert (len(pivots), sum(pivots)) == (792, 32993)
