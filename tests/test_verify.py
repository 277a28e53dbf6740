"""Grid oracle bracketing and cross-method verification."""

import math

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
from dptradeoff.problemio import generate_instance, instance_to_problem

from conftest import random_problem


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

    def test_dof_guard(self):
        prob = random_problem(5, 3, 5)  # 10 degrees of freedom
        with pytest.raises(BudgetExceededError, match="degrees of freedom"):
            grid_oracle(prob, 0.5, 10)

    def test_size_guard(self):
        prob = random_problem(6, 2, 8)
        with pytest.raises(BudgetExceededError, match="budget"):
            grid_oracle(prob, 0.5, 200)

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

    def test_general_metric_fallback_path(self):
        # unequal off-diagonal distances force transport solves near the
        # feasibility boundary instead of the sandwich shortcut
        prob = random_problem(11, 3, 2, random_distortion=True, random_metric=True)
        for p in [0.05, 0.3]:
            val = grid_oracle(prob, p, 24)
            assert val >= solve_dp_at(prob, p).value - 1e-9


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

    def test_corrupted_slope_fails_with_location(self, bsc_problem):
        report = cross_verify(
            bsc_problem, np.linspace(0, 1, 21), inject_slope_error=1e-3
        )
        assert not report.passed
        assert any("P=" in f for f in report.failures)
        assert "FAIL" in report.render()

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
