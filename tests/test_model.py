"""Core model: validation, elementary quantities, transport distances."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dptradeoff import (
    Coupling,
    DistortionMatrix,
    Distribution,
    Estimator,
    GroundMetric,
    JointChannel,
    PiecewiseLinearCurve,
    Problem,
    ProblemError,
    SolverError,
    curve_by_sweep,
    curve_by_vertices,
    make_problem,
    output_distribution,
    solve_dp_at,
    tv_distance,
    wasserstein1,
)

from dptradeoff import lp as lpmod
from dptradeoff.model import _estimator_stack
from dptradeoff.programs import _crash_basis, _stochastic_estimator, build_ot_form
from dptradeoff.problemio import generate_instance, instance_to_problem, random_metric
from dptradeoff.verify import cross_verify, grid_oracle

from conftest import (
    closed_random_metric,
    cost_matrix_oracle,
    deterministic_minimum_oracle,
    flow_dual,
    random_distribution,
    random_problem,
    scaled_distortion_spec,
)


def _pmf_pairs(n_max=6):
    return st.integers(2, n_max).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
            st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
        )
    )


def _walk_from_p_one(prob):
    """A built flow program and its optimal basis at P = 1, ``lp.walk``'s first arguments."""
    lp, lay = build_ot_form(prob, 0.0)
    return lp, _crash_basis(prob, lay)


def _normalize(vals):
    arr = np.asarray(vals, float)
    return arr / arr.sum()


class TestValidation:
    def test_noiseless_symmetric_accepted(self):
        prob = make_problem([[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(prob.p_x, [0.5, 0.5])
        assert np.allclose(prob.p_y, [0.5, 0.5])

    def test_zero_source_row_accepted(self):
        prob = make_problem([[0.5, 0.5], [0.0, 0.0]])
        assert np.allclose(prob.p_y, [0.5, 0.5])

    def test_zero_output_column_rejected(self):
        with pytest.raises(ProblemError, match="column 1"):
            make_problem([[1.0, 0.0], [0.0, 0.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ProblemError, match="negative"):
            make_problem([[1.1, 0.0], [-0.1, 0.0]])

    def test_bad_total_rejected(self):
        with pytest.raises(ProblemError, match="sums to"):
            make_problem([[0.5, 0.4], [0.0, 0.0]])

    def test_rounding_negatives_stored_as_zero(self):
        # entries of -4e-13 pass the sign check; stored as given, they made a
        # source marginal of -1.6e-12 that every single-level solve rejected
        prob = make_problem([[0.25 + 2e-13] * 4, [-4e-13] * 4])
        assert np.array_equal(prob.channel.p_xy[1], np.zeros(4))
        assert prob.p_x.tolist() == [1.0000000000008, 0.0]
        for form in ("ot", "tv"):
            rep = solve_dp_at(prob, 0.1, form)
            assert rep.value == 0.0
            assert prob.perception_of(rep.estimator)[0] == 0.0

    def test_rounding_negatives_zeroed_before_the_sum(self):
        # counted as given, the -5e-13 entries bring the sum back to 1; set to
        # 0, they leave it 1.5e-12 over
        with pytest.raises(ProblemError, match="sums to 1.0000000000015"):
            make_problem([[1 / 3 + 5e-13] * 3, [-5e-13] * 3])

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(ProblemError, match="symmetric"):
            make_problem([[0.5, 0.0], [0.0, 0.5]], metric=[[0, 0.2], [0.9, 0]])

    def test_triangle_violation_rejected(self):
        h = [[0, 1.0, 0.1], [1.0, 0, 0.1], [0.1, 0.1, 0]]
        with pytest.raises(ProblemError, match="triangle"):
            GroundMetric(h)

    def test_metric_outside_unit_range_rejected(self):
        with pytest.raises(ProblemError, match="rescale"):
            GroundMetric([[0, 1.5], [1.5, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ProblemError, match="diagonal"):
            GroundMetric([[0.1, 1.0], [1.0, 0.0]])

    def test_rounding_diagonal_stored_as_zero(self):
        # a diagonal of -5e-13 passes the zero check; stored as given, it made
        # the transport distance at P = 0 read -5e-13.  The caller's array stays
        given = np.array([[-5e-13, 1.0, 1.0], [1.0, 5e-13, 1.0], [1.0, 1.0, -5e-13]])
        metric = GroundMetric(given)
        assert np.array_equal(np.diag(metric.h), np.zeros(3))
        assert np.array_equal(metric.h[~np.eye(3, dtype=bool)], np.ones(6))
        assert given[0, 0] == -5e-13 and given[1, 1] == 5e-13
        prob = make_problem([[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]], metric=given)
        rep = solve_dp_at(prob, 0.0)
        assert prob.perception_of(rep.estimator)[0] >= 0.0
        assert rep.perception >= 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ProblemError, match="expected 2x2"):
            Problem(
                JointChannel([[0.5, 0.0], [0.0, 0.5]]),
                DistortionMatrix(np.zeros((3, 3))),
                GroundMetric.hamming(2),
            )

    def test_estimator_column_sums_checked(self):
        with pytest.raises(ProblemError, match="column 1"):
            Estimator([[1.0, 0.4], [0.0, 0.4]])

    @pytest.mark.parametrize(
        "q, message",
        [
            ([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
            ([[1.0, -1e-9], [0.0, 1.0 + 1e-9]], "negative entry"),
            ([[1.0, 1e308], [0.0, 1e308]], "sums to"),  # finite entries, infinite sum
            ([1.0, 1.0], "2-D"),
        ],
        ids=["nan", "negative", "overflow", "vector"],
    )
    def test_estimator_rejections(self, q, message):
        with pytest.raises(ProblemError, match=message):
            Estimator(q)

    @pytest.mark.parametrize(
        "entry, value",
        [((0, 1), -1e-9), ((1, 0), np.nan), ((1, 2), 1 / 3 + 2e-10)],
        ids=["negative", "nan", "column-sum-off-by-2e-10"],
    )
    def test_estimator_stack_rejects_a_bad_middle_block(self, entry, value):
        stack = np.stack([np.eye(3), np.full((3, 3), 1 / 3), np.eye(3)[::-1]])
        stack[1][entry] = value
        with pytest.raises(ProblemError) as single:
            Estimator(stack[1])
        with pytest.raises(ProblemError) as stacked:
            _estimator_stack(stack)
        assert str(stacked.value) == str(single.value)

    def test_estimator_stack_of_nothing(self):
        assert _estimator_stack(np.empty((0, 2, 3))) == []

    def test_estimator_shape(self):
        est = Estimator.deterministic([0, 2], 3)
        assert (est.n_x, est.n_y) == (3, 2)

    @pytest.mark.parametrize("assignment", [[-1, 0], [0.7, 1.2], [0, 2]])
    def test_deterministic_assignments_checked(self, assignment):
        with pytest.raises(ProblemError, match="integers in"):
            Estimator.deterministic(assignment, 2)

    def test_coupling_marginals_checked(self):
        with pytest.raises(ProblemError, match="row sums"):
            Coupling([[0.5, 0.0], [0.0, 0.5]], [0.7, 0.3], [0.5, 0.5])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: JointChannel([0.5, 0.5]), "joint matrix must be 2-D"),
            (lambda: DistortionMatrix([[0.0, 1.0]]), "distortion matrix must be square"),
            (lambda: DistortionMatrix([[0.0, -1.0], [1.0, 0.0]]), "negative entry"),
            (lambda: GroundMetric([[0.0, 1.0]]), "metric matrix must be square"),
            (lambda: GroundMetric(np.zeros((2, 2))), "positive off the diagonal"),
            (
                lambda: Problem(
                    JointChannel([[0.5, 0.0], [0.0, 0.5]]),
                    DistortionMatrix.hamming(2),
                    GroundMetric.hamming(3),
                ),
                "metric is 3x3, expected 2x2",
            ),
            (lambda: Coupling(np.eye(2) / 2, [1.0], [0.5, 0.5]), "shape"),
            (lambda: Coupling([[0.6, -0.1], [-0.1, 0.6]], [0.5, 0.5], [0.5, 0.5]), "negative"),
            (lambda: Coupling(np.eye(2) / 2, [0.5, 0.5], [0.7, 0.3]), "column sums"),
            (
                lambda: wasserstein1([0.5, 0.5], [1.0, 0.0, 0.0], GroundMetric.hamming(2)),
                "share one alphabet",
            ),
        ],
        ids=[
            "channel-vector",
            "distortion-not-square",
            "distortion-negative",
            "metric-not-square",
            "metric-zero-off-diagonal",
            "problem-metric-size",
            "coupling-shape",
            "coupling-negative",
            "coupling-columns",
            "w1-alphabets",
        ],
    )
    def test_input_rejections(self, build, message):
        with pytest.raises(ProblemError, match=message):
            build()

    @pytest.mark.parametrize(
        "call",
        [lambda p, q: wasserstein1(p, q, GroundMetric.hamming(2)), tv_distance],
        ids=["wasserstein1", "tv_distance"],
    )
    def test_raw_vectors_checked_like_distributions(self, call):
        # a sum 9e-10 off 1 is an input error, as for a Distribution
        with pytest.raises(ProblemError, match="first distribution sums to"):
            call([0.5, 0.5 + 9e-10], [0.5, 0.5])
        with pytest.raises(ProblemError, match="second distribution has negative entry"):
            call([0.5, 0.5], [1.0 + 1e-9, -1e-9])

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: PiecewiseLinearCurve(np.array([0.3, 0.3]), np.zeros((3, 2))), ProblemError,
             r"breakpoints must increase strictly within \(0, 1\]"),
            (lambda: PiecewiseLinearCurve(np.array([0.0, 0.5]), np.zeros((3, 2))), ProblemError,
             r"breakpoints must increase strictly within \(0, 1\]"),
            (lambda: PiecewiseLinearCurve(np.array([0.5, 1.5]), np.zeros((3, 2))), ProblemError,
             r"breakpoints must increase strictly within \(0, 1\]"),
            (lambda: PiecewiseLinearCurve(np.array([0.5]), np.array([[np.inf, -1.0], [0.5, 0.0]])),
             ProblemError, r"segment table contains non-finite entries"),
            (lambda: _stochastic_estimator(
                make_problem([[0.45, 0.05], [0.05, 0.45]]),
                np.array([[[0.25, 0.5], [0.0, 0.0]]]), 1e-9),
             SolverError, r"estimator column off stochastic by mass 0\.25 \(tolerance 1e-09\)"),
            (lambda: Estimator([[1.0, -1e-9], [0.0, 1.0]]), ProblemError, r"estimator has a negative entry"),
            (lambda: Estimator([[1.0, 0.5], [0.0, 0.6]]), ProblemError,
             r"estimator column 1 sums to (np\.float64\()?1\.1\)?, expected 1"),
            (lambda: Distribution([]), ProblemError, r"distribution must be a nonempty vector"),
            (lambda: tv_distance([[0.5, 0.5]], [0.5, 0.5]), ProblemError,
             r"first distribution must be a nonempty vector"),
            # each ended in a numpy ValueError or TypeError
            (lambda: solve_dp_at(make_problem([[0.4, 0.1], [0.2, 0.3]]), np.array([0.1])), ProblemError,
             r"perception level must be a scalar, got \[0\.1\]"),
            (lambda: generate_instance(1.5, 2, 3), ProblemError,
             r"seed and alphabet sizes must be integers, got 1\.5, 2, 3"),
            (lambda: generate_instance(1, 2.5, 3), ProblemError,
             r"seed and alphabet sizes must be integers, got 1, 2\.5, 3"),
        ],
        ids=["breakpoints-repeated", "breakpoint-at-zero", "breakpoint-past-one", "segments-inf",
             "off-stochastic", "estimator-negative", "estimator-column-sum", "empty-vector",
             "matrix-as-vector", "level-array", "float-seed", "float-size"],
    )
    def test_rejection_messages(self, build, error, message):
        # the whole message, so a faster check cannot change what it says
        with pytest.raises(error) as exc:
            build()
        assert re.fullmatch(message, str(exc.value))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PiecewiseLinearCurve(np.array([0.5]), np.array([[1.0, -0.5], [0.6, 0.0]])),
             r"curve discontinuous at breakpoint 0\.5"),
            (lambda: curve_by_sweep(instance_to_problem(scaled_distortion_spec())),
             r"curve discontinuous at breakpoint 0\.\d+"),
            (lambda: Estimator([[0.5], [0.6]]), r"estimator column 0 sums to 1\.1, expected 1"),
            (lambda: solve_dp_at(make_problem([[0.5, 0.0], [0.0, 0.5]]), np.float64(-0.5)),
             r"perception level must be finite and >= 0, got -0\.5"),
            (lambda: lpmod.walk(*_walk_from_p_one(make_problem([[0.4, 0.1], [0.2, 0.3]])), np.float64(-1.0)),
             r"a walk moves s down to 0 from a span >= 0 that is finite, got -1\.0"),
            (lambda: curve_by_vertices(make_problem([[0.4, 0.1], [0.2, 0.3]]), budget=np.float64(5.0)),
             r"a vertex walk needs a budget of at least 1 basis, in whole bases, got 5\.0"),
            (lambda: curve_by_vertices(make_problem([[0.4, 0.1], [0.2, 0.3]]), budget=True),
             r"a vertex walk needs a budget of at least 1 basis, in whole bases, got True"),
            (lambda: lpmod.enumerate_vertices(
                flow_dual(make_problem([[0.4, 0.1], [0.2, 0.3]])), np.array([0, 1, 2.5])),
             r"a start must name 4 distinct rows of 7, got \[0\.0, 1\.0, 2\.5\]"),
            (lambda: grid_oracle(make_problem([[0.4, 0.1], [0.2, 0.3]]), 0.1, np.float64(2.5)),
             r"grid oracle steps must be an integer, got 2\.5"),
            (lambda: cross_verify(make_problem([[0.4, 0.1], [0.2, 0.3]]), grid_steps=np.float64(2.5)),
             r"grid oracle steps must be an integer, got 2\.5"),
            (lambda: grid_oracle(make_problem([[0.4, 0.1], [0.2, 0.3]]), 0.1, True),
             r"grid oracle steps must be an integer, got True"),
            (lambda: cross_verify(make_problem([[0.4, 0.1], [0.2, 0.3]]), grid_steps=True),
             r"grid oracle steps must be an integer, got True"),
            (lambda: generate_instance(np.float64(1.5), 2, 2),
             r"seed and alphabet sizes must be integers, got 1\.5, 2, 2"),
            (lambda: generate_instance(1, True, 3),
             r"seed and alphabet sizes must be integers, got 1, True, 3"),
            (lambda: generate_instance(False, 2, 3),
             r"seed and alphabet sizes must be integers, got False, 2, 3"),
        ],
        ids=["breakpoint", "scaled-sweep", "column-sum", "level", "span", "budget", "bool-budget",
             "start", "grid-steps", "cross-verify-steps", "bool-grid-steps", "bool-cross-verify-steps",
             "generate-seed", "bool-generate-size", "bool-generate-seed"],
    )
    def test_error_texts_print_plain_numbers(self, build, message):
        # numpy scalars printed as np.float64(...) once, the scaled sweep's too
        with pytest.raises((ProblemError, SolverError)) as exc:
            build()
        assert re.fullmatch(message, str(exc.value))


class TestImmutability:
    def test_arrays_are_read_only(self, bsc_problem):
        import dataclasses

        for arr in (
            bsc_problem.channel.p_xy,
            bsc_problem.distortion.d,
            bsc_problem.metric.h,
            bsc_problem.cost,
            bsc_problem.p_x,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            bsc_problem.channel.p_xy = np.eye(2)

    def test_estimator_stack_blocks_read_only_in_place(self):
        stack = np.stack([np.eye(2), np.full((2, 2), 0.5)])
        estimators = _estimator_stack(stack)
        assert not stack.flags.writeable
        for est, block in zip(estimators, stack):
            assert np.shares_memory(est.q, stack) and np.array_equal(est.q, block)
            with pytest.raises(ValueError):
                est.q[0, 0] = 0.5

    def test_estimator_copies_its_input(self):
        arr = np.eye(2)
        est = Estimator(arr)
        assert arr.flags.writeable and not np.shares_memory(est.q, arr)
        arr[0, 0] = 0.5
        assert est.q[0, 0] == 1.0

    def test_estimator_and_coupling_frozen(self):
        est = Estimator(np.eye(2))
        with pytest.raises(ValueError):
            est.q[0, 0] = 0.5
        _, coupling = wasserstein1([0.5, 0.5], [0.5, 0.5], GroundMetric.hamming(2))
        with pytest.raises(ValueError):
            coupling.pi[0, 0] = 1.0


class TestCostMatrices:
    def test_bsc_cost_matches_double_sum(self, bsc_problem):
        oracle = cost_matrix_oracle(bsc_problem.channel.p_xy, bsc_problem.distortion.d)
        assert np.allclose(bsc_problem.cost, oracle, atol=1e-15)
        assert np.allclose(bsc_problem.cost, [[0.04, 0.36], [0.54, 0.06]], atol=1e-15)

    def test_zero_distortion_gives_zero_cost(self, bsc_problem):
        prob = make_problem(bsc_problem.channel.p_xy, distortion=np.zeros((2, 2)))
        assert np.all(prob.cost == 0.0)

    def test_noiseless_cost(self, noiseless_problem):
        oracle = cost_matrix_oracle(
            noiseless_problem.channel.p_xy, noiseless_problem.distortion.d
        )
        assert np.allclose(noiseless_problem.cost, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
        assert np.allclose(noiseless_problem.cost, oracle)

    def test_conditional_cost_is_cost_over_marginal(self, bsc_problem):
        expected = bsc_problem.cost / bsc_problem.p_y[None, :]
        assert np.allclose(bsc_problem.conditional, expected, atol=1e-15)
        assert np.allclose(
            bsc_problem.conditional,
            [[0.04 / 0.58, 0.36 / 0.42], [0.54 / 0.58, 0.06 / 0.42]],
        )

    def test_noiseless_conditional_is_permutation(self, noiseless_problem):
        assert np.allclose(noiseless_problem.conditional, [[0, 1], [1, 0]])

    def test_independent_observation_conditional_columns_equal(self, indep_problem):
        cond = indep_problem.conditional
        assert np.allclose(cond[:, 0], cond[:, 1])
        assert np.allclose(cond[:, 0], [0.4, 0.6])


class TestExpectedDistortion:
    def test_identity_on_noiseless_is_zero(self, noiseless_problem):
        ident = Estimator(np.eye(2))
        assert noiseless_problem.expected_distortion(ident) == 0.0

    def test_constant_cost(self, bsc_problem):
        prob = make_problem(
            bsc_problem.channel.p_xy, distortion=np.full((2, 2), 0.7)
        )
        est = Estimator([[0.3, 0.9], [0.7, 0.1]])
        assert abs(prob.expected_distortion(est) - 0.7) < 1e-12

    def test_bsc_greedy_matches_brute_force(self, bsc_problem):
        best, best_map = deterministic_minimum_oracle(
            bsc_problem.channel.p_xy, bsc_problem.distortion.d
        )
        assert abs(best - 0.10) < 1e-12
        value, greedy = bsc_problem.minimum
        assert abs(value - best) < 1e-12
        assert bsc_problem.expected_distortion(greedy) == pytest.approx(best, abs=1e-12)

    def test_shape_mismatch(self, bsc_problem):
        with pytest.raises(ProblemError):
            bsc_problem.expected_distortion(Estimator(np.eye(3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_for_random_estimators(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(seed, 3, 4, random_distortion=True)
        q = rng.uniform(0, 1, (3, 4))
        est = Estimator(q / q.sum(axis=0))
        val = prob.expected_distortion(est)
        assert prob.distortion.d.min() - 1e-12 <= val <= prob.distortion.d.max() + 1e-12


class TestPosteriorSampling:
    @pytest.mark.parametrize("seed", range(10))
    def test_output_marginal_reproduces_source(self, seed):
        # the estimator that redraws the source from its posterior, p(x | y),
        # outputs the source law
        prob = random_problem(seed, 3, 5)
        out = output_distribution(Estimator(prob.channel.p_xy / prob.p_y), prob.p_y)
        assert np.allclose(out.p, prob.p_x, atol=1e-14)


class TestMinimumDistortion:
    def test_noiseless(self, noiseless_problem):
        value, greedy = noiseless_problem.minimum
        assert value == 0.0
        assert np.allclose(greedy.q, np.eye(2))

    def test_bsc(self, bsc_problem):
        value, greedy = bsc_problem.minimum
        assert abs(value - 0.10) < 1e-15
        assert np.allclose(greedy.q, np.eye(2))

    def test_independent(self, indep_problem):
        value, greedy = indep_problem.minimum
        oracle, _ = deterministic_minimum_oracle(
            indep_problem.channel.p_xy, indep_problem.distortion.d
        )
        assert abs(value - 0.4) < 1e-15
        assert abs(value - oracle) < 1e-15
        assert np.allclose(greedy.q, [[1.0, 1.0], [0.0, 0.0]])

    def test_tie_breaks_to_lowest_index(self):
        prob = make_problem(
            [[0.25, 0.25], [0.25, 0.25]], distortion=np.full((2, 2), 0.3)
        )
        _, greedy = prob.minimum
        assert np.allclose(greedy.q, [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_beats_every_deterministic_rule(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_x = int(rng.integers(2, 5))
        n_y = int(rng.integers(2, 5))
        if n_x**n_y > 4096:
            pytest.skip("enumeration guard")
        prob = random_problem(200 + seed, n_x, n_y, random_distortion=True)
        best, _ = deterministic_minimum_oracle(prob.channel.p_xy, prob.distortion.d)
        value, greedy = prob.minimum
        assert value == pytest.approx(best, abs=1e-12)
        assert prob.expected_distortion(greedy) == pytest.approx(value, abs=1e-12)


class TestOutputDistribution:
    def test_identity(self):
        est = Estimator(np.eye(3))
        out = output_distribution(est, [0.2, 0.3, 0.5])
        assert np.allclose(out.p, [0.2, 0.3, 0.5])

    def test_constant_column(self):
        est = Estimator([[0.3, 0.3], [0.7, 0.7]])
        out = output_distribution(est, [0.9, 0.1])
        assert np.allclose(out.p, [0.3, 0.7])

    def test_length_mismatch(self):
        with pytest.raises(ProblemError):
            output_distribution(Estimator(np.eye(2)), [1.0])

    def test_accepts_columns_off_by_the_estimator_tolerance(self):
        # column sums 1 + 5e-11 pass Estimator's check; the output law must
        # still pass Distribution's tighter one
        prob = make_problem([[0.3, 0.2], [0.1, 0.4]])
        est = Estimator([[0.6 + 5e-11, 0.5], [0.4, 0.5 + 5e-11]])
        out = output_distribution(est, prob.p_y)
        assert out.p.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(out.p, est.q @ prob.p_y, atol=1e-10)
        value, _ = prob.perception_of(est)
        assert value == pytest.approx(wasserstein1(prob.p_x, out, prob.metric)[0], abs=1e-15)


class TestTotalVariation:
    def test_disjoint_support(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_half_l1(self):
        assert tv_distance([0.6, 0.4], [1.0, 0.0]) == pytest.approx(0.4, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ProblemError):
            tv_distance([1.0], [0.5, 0.5])

    @given(_pmf_pairs())
    def test_metric_axioms(self, pair):
        p, q = _normalize(pair[0]), _normalize(pair[1])
        d_pq = tv_distance(p, q)
        assert d_pq == pytest.approx(tv_distance(q, p), abs=1e-15)
        assert 0.0 <= d_pq <= 1.0
        assert tv_distance(p, p) == 0.0
        if d_pq == 0.0:
            assert np.array_equal(p, q)  # zero only for identical pmfs
        r = _normalize(np.asarray(pair[0]) + np.asarray(pair[1]))
        assert d_pq <= tv_distance(p, r) + tv_distance(r, q) + 1e-12


class TestWasserstein:
    def test_equal_marginals_zero_cost_diagonal_support(self):
        p = [0.2, 0.3, 0.5]
        h = GroundMetric.hamming(3)
        value, coupling = wasserstein1(p, p, h)
        assert value == pytest.approx(0.0, abs=1e-14)
        off_diag = coupling.pi[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 1e-12)

    def test_binary_hamming_is_gap(self):
        value, _ = wasserstein1([0.6, 0.4], [1.0, 0.0], GroundMetric.hamming(2))
        assert value == pytest.approx(0.4, abs=1e-14)

    def test_scaled_binary_metric(self):
        # the only coupling of these marginals moves 0.4 at cost 0.5
        value, coupling = wasserstein1(
            [0.6, 0.4], [1.0, 0.0], GroundMetric([[0, 0.5], [0.5, 0]])
        )
        assert value == pytest.approx(0.2, abs=1e-14)
        assert np.allclose(coupling.pi, [[0.6, 0.0], [0.4, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_total_variation_under_hamming(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        value, coupling = wasserstein1(p, q, GroundMetric.hamming(n))
        assert abs(value - tv_distance(p, q)) <= 1e-10
        assert np.allclose(coupling.pi.sum(axis=1), p, atol=1e-10)
        assert np.allclose(coupling.pi.sum(axis=0), q, atol=1e-10)

    def test_general_metric_between_tv_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            h = GroundMetric(random_metric(rng, n))
            p = random_distribution(rng, n)
            q = random_distribution(rng, n)
            value, _ = wasserstein1(p, q, h)
            t = tv_distance(p, q)
            off = h.h[~np.eye(n, dtype=bool)]
            assert off.min() * t - 1e-10 <= value <= off.max() * t + 1e-10

    @staticmethod
    def _dense_highs(p, q, h):
        """The coupling program over n^2 plan entries, solved by HiGHS."""
        from scipy.optimize import linprog

        n = p.size
        a = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
        res = linprog(h.reshape(-1), A_eq=a, b_eq=np.concatenate([p, q]), method="highs")
        assert res.status == 0
        return res.fun

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_coupling_program(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        h = GroundMetric(random_metric(rng, n))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        value, coupling = wasserstein1(p, q, h)
        assert abs(value - self._dense_highs(p, q, h.h)) <= 1e-12
        assert np.abs(coupling.pi.sum(axis=1) - p).max() <= 1e-12
        assert np.abs(coupling.pi.sum(axis=0) - q).max() <= 1e-12
        assert abs(np.sum(coupling.pi * h.h) - value) <= 1e-15

    @staticmethod
    def pool():
        """300 pairs: n = 2-8, Hamming or a closed random metric, one in five with p = q."""
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 7
            h = closed_random_metric(rng, n) if seed % 2 else GroundMetric.hamming(n).h
            p = random_distribution(rng, n)
            yield p, (p if seed % 5 == 0 else random_distribution(rng, n)), GroundMetric(h)

    def test_pool_matches_highs(self, monkeypatch):
        # each program starts from the surplus-to-deficit staircase, and the
        # pool's pivot total pins that start
        solve, pivots = lpmod.solve, []

        def counted(lp, start):
            sol = solve(lp, start)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(lpmod, "solve", counted)
        for p, q, h in self.pool():
            value = wasserstein1(p, q, h)[0]
            assert abs(value - self._dense_highs(p, q, h.h)) <= 1e-12
        assert (len(pivots), sum(pivots)) == (300, 228)

    def test_single_symbol(self):
        value, coupling = wasserstein1([1.0], [1.0], GroundMetric.hamming(1))
        assert value == 0.0 and np.array_equal(coupling.pi, [[1.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_marginals_under_a_random_metric(self, seed):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, 6)
        value, coupling = wasserstein1(p, p, GroundMetric(random_metric(rng, 6)))
        assert value == 0.0
        assert np.array_equal(coupling.pi, np.diag(p))

    def test_value_is_the_plan_cost(self):
        # h[1, 2] sits 9.9e-10 under the triangle check's allowance, so the
        # optimal flow routes 0 -> 1 -> 2 at weight 1 - 9.9e-10; the only
        # coupling of these point masses moves all of it from 0 to 2 at cost 1
        h = GroundMetric([[0, 0.5, 1.0], [0.5, 0, 0.5 - 9.9e-10], [1.0, 0.5 - 9.9e-10, 0]])
        value, coupling = wasserstein1([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], h)
        assert np.array_equal(coupling.pi, [[0, 0, 1.0], [0, 0, 0], [0, 0, 0]])
        assert value == 1.0
