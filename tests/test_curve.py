"""Whole-curve construction: envelopes, sweeps, hulls, estimators."""

from contextlib import suppress
from fractions import Fraction

import numpy as np
import pytest

from dptradeoff import (
    BudgetExceededError,
    PiecewiseLinearCurve,
    ProblemError,
    SolverError,
    assemble_curve,
    closed_form_curve,
    curve_by_sweep,
    curve_by_vertices,
    enumerate_vertices,
    estimator_on_curve,
    hull_extremes,
    build_ot_form,
    make_problem,
    solve_dp_at,
)
from dptradeoff import curve as curvemod
from dptradeoff.problemio import instance_to_problem
from dptradeoff.programs import _flow_dual

from conftest import (
    breakpoint_candidates,
    edge_problems,
    highs_dp_oracle,
    random_problem,
    scaled_distortion_spec,
)


def _exact_line(a, b, c, basis):
    """(intercept, slope) of a basis's value ``c_B B^-1 (b + P e_last)``,
    from ``B^T y = c_B`` solved by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(v) for v in a[:, j]] + [Fraction(c[j])] for j in basis]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = top = [v / rows[col][col] if v else v for v in rows[col]]
        for r, row in enumerate(rows):  # the rows are sparse: skip the zeros
            if r != col and row[col]:
                rows[r] = [x - row[col] * v if v else x for x, v in zip(row, top)]
    y = [row[-1] for row in rows]
    return sum(yi * Fraction(bi) for yi, bi in zip(y, b)), y[-1]


def _project(coords, problem):
    """Dual points to the lines ``intercept + slope * P``, as the vertex method projects them."""
    return curvemod._lines(np.asarray(coords, dtype=float), build_ot_form(problem, 0.0)[0].b)


class TestProjection:
    def test_floor_vertex_projects_to_floor_line(self, bsc_problem):
        w = bsc_problem.conditional.min(axis=0)
        coords = np.concatenate([w, np.zeros(2)])
        intercept, slope = _project(coords, bsc_problem)
        assert intercept == pytest.approx(bsc_problem.distortion_floor, abs=1e-12)
        assert slope == 0.0

    def test_zero_price_means_zero_slope(self, bsc_problem):
        coords = np.concatenate([np.zeros(3), [0.0]])
        assert _project(coords, bsc_problem)[1] == 0.0

    def test_active_vertex_matches_closed_form(self, bsc_problem):
        # some projected vertex carries the left-segment line exactly
        report = curve_by_vertices(bsc_problem)
        target = np.array([0.8 / 7.0, -5.0 / 7.0])
        dist = np.hypot(
            report.s2_points[:, 0] - target[0], report.s2_points[:, 1] - target[1]
        )
        assert dist.min() <= 1e-9
        first = report.curve.segments[0]
        assert first[0] == pytest.approx(0.8 / 7.0, abs=1e-9)
        assert first[1] == pytest.approx(-5.0 / 7.0, abs=1e-9)

    def test_stack_projects_row_by_row(self, bsc_problem):
        verts = curve_by_vertices(bsc_problem).vertices
        lines = _project(verts, bsc_problem)
        assert lines.shape == (verts.shape[0], 2)
        for vertex, line in zip(verts, lines):
            assert np.allclose(_project(vertex, bsc_problem), line, rtol=0.0, atol=1e-15)


class TestCurveByVertices:
    def test_noiseless_flat_zero(self, noiseless_problem):
        report = curve_by_vertices(noiseless_problem)
        assert report.curve.breakpoints.size == 0
        assert report.curve.value(0.0) == 0.0
        assert report.curve.value(1.0) == 0.0

    def test_independent_instance(self, indep_problem):
        report = curve_by_vertices(indep_problem)
        assert np.allclose(report.curve.breakpoints, [0.4], atol=1e-9)
        assert np.allclose(report.curve.slopes, [-0.2, 0.0], atol=1e-9)
        assert report.curve.value(0.0) == pytest.approx(0.48, abs=1e-9)

    def test_3x5_envelope_matches_pointwise(self):
        prob = random_problem(7, 3, 5, random_distortion=True)
        report = curve_by_vertices(prob)
        for p in np.linspace(0.0, 1.0, 101):
            assert abs(report.curve.value(p) - solve_dp_at(prob, float(p)).value) <= 1e-8

    def test_refuses_before_the_sweep(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("swept before refusing")

        monkeypatch.setattr(curvemod, "_sweep", forbidden)
        prob = random_problem(1, 16, 64, random_distortion=True)
        with pytest.raises(ProblemError, match="budget of at least 1 basis"):
            curve_by_vertices(prob, budget=0)
        with pytest.raises(BudgetExceededError, match="dimension 80 exceeds the enumeration limit 16"):
            curve_by_vertices(prob)

    def test_plateau_is_bitwise_floor(self, bsc_problem):
        report = curve_by_vertices(bsc_problem)
        assert report.curve.value(1.0) == bsc_problem.distortion_floor
        assert report.curve.p_star <= 1.0

    def test_plateau_starting_exactly_at_one(self):
        # a deterministic source whose cheap reconstruction is the other
        # symbol: the budget binds all the way to the domain edge
        prob = make_problem(
            [[0.5, 0.5], [0.0, 0.0]], distortion=[[5.0, 0.0], [1.0, 1.0]]
        )
        for report in (curve_by_vertices(prob), curve_by_sweep(prob)):
            curve = report.curve
            assert curve.p_star == pytest.approx(1.0, abs=1e-9)
            assert curve.d_star == 0.0
            assert curve.value(1.0) == 0.0
            assert curve.value(0.0) == pytest.approx(5.0, abs=1e-9)
            assert curve.slopes[0] == pytest.approx(-5.0, abs=1e-9)

    def test_coordinates_near_the_float_limit(self):
        # vertex coordinates of 1e308 once overflowed the rounding that
        # identified vertices, and the suite's filterwarnings makes that an error
        report = curve_by_vertices(make_problem([[0.5, 0.5]], [[1e308]]))
        assert report.vertices.shape == (1, 3)
        assert report.curve.value(0.0) == 1e308

    def test_near_degenerate_pool(self):
        # masses and metric on a 0.1 grid, each mass moved by 1e-12 to 1e-8:
        # distinct vertices lie as close as 3e-10, and no two bases of one
        # vertex may come back as two vertices
        ps = np.linspace(0.0, 1.0, 101)
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n_y = int(rng.integers(3, 5))
            p_xy = rng.integers(0, 4, size=(3, n_y)) / 10.0
            p_xy[0] += 0.1
            p_xy += rng.uniform(size=(3, n_y)) * 10.0 ** rng.uniform(-12, -8, size=(3, n_y))
            metric = np.triu(rng.integers(5, 11, size=(3, 3)) / 10.0, 1)
            prob = make_problem(p_xy / p_xy.sum(), None, metric + metric.T)
            report = curve_by_vertices(prob)
            gaps = np.linalg.norm(report.vertices[:, None] - report.vertices[None], axis=2)
            assert np.min(gaps[np.triu_indices(len(gaps), 1)]) > 1e-12, seed
            sweep = curve_by_sweep(prob).curve.value(ps)
            assert np.max(np.abs(report.curve.value(ps) - sweep)) <= 1e-9, seed

    def test_seeded_walk_finds_the_start_walks_bases(self):
        # the walk also starts from the sweep's bases of nondegenerate
        # vertices; seeding it with every basis of the sweep, the degenerate
        # P = 1 basis on the plateau vertex too, finds 284 bases here
        prob = random_problem(3, 4, 6, random_distortion=True)
        curve_by_vertices(prob, budget=220)
        with pytest.raises(BudgetExceededError, match="more than 219 bases"):
            curve_by_vertices(prob, budget=219)

    @pytest.mark.parametrize("shape", [(2, 8), (3, 4), (3, 5), (4, 6)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_seeded_walk_gives_the_start_walks_vertices(self, shape, seed):
        prob = random_problem(seed, *shape, random_distortion=True, random_metric=seed % 2 == 0)
        _, lp, last_basis, _ = curvemod._sweep(prob)
        alone = enumerate_vertices(_flow_dual(lp), last_basis)
        seeded = curve_by_vertices(prob).vertices
        assert seeded.shape == alone.shape
        assert seeded.tobytes() == alone.tobytes()


def _tangent_lines(seed):
    """Lines that end at d_star by P = 1, clear of every merge tolerance.

    Tangents of ``d + a (p_star - P)^2`` at points at least 1e-3 apart lie
    on the envelope; copies shifted down by at least 0.01 and exact
    duplicates do not.
    """
    rng = np.random.default_rng(seed)
    d_star, a, p_star = rng.uniform(0.1, 0.5), rng.uniform(0.5, 3.0), rng.uniform(0.2, 0.9)
    t = np.sort(rng.choice(np.arange(0.0, p_star - 1e-3, 1e-3), int(rng.integers(1, 12)), replace=False))
    slopes = -2.0 * a * (p_star - t)
    tangents = np.stack([d_star + a * (p_star - t) ** 2 - slopes * t, slopes], axis=1)
    shifted = tangents - [[rng.uniform(0.01, 0.1), 0.0]]
    lines = np.vstack([tangents, shifted, tangents[: len(t) // 2]])
    return lines, d_star


class TestAssembleCurve:
    def test_concurrent_lines_give_one_breakpoint(self):
        # three lines through (0.25, 1), then the plateau at 0.5
        curve = assemble_curve([(2.0, -4.0), (1.5, -2.0), (1.25, -1.0)], 0.5)
        assert curve.breakpoints.tolist() == [0.25, 0.75]
        assert curve.segments.tolist() == [[2.0, -4.0], [1.25, -1.0], [0.5, 0.0]]

    @pytest.mark.parametrize("order", [1, -1])
    def test_equal_slopes_keep_the_higher_intercept(self, order):
        curve = assemble_curve([(1.0, -1.0), (0.9, -1.0)][::order], 0.5)
        assert curve.breakpoints.tolist() == [0.5]
        assert curve.segments.tolist() == [[1.0, -1.0], [0.5, 0.0]]

    def test_slopes_within_merge_tolerance_merge(self):
        # unmerged, the second line would take over at P = 0.2
        curve = assemble_curve([(1.0, -1.0), (1.0 - 1e-13, -1.0 + 5e-13)], 0.5)
        assert curve.segments.tolist() == [[1.0, -1.0], [0.5, 0.0]]
        assert curve.breakpoints.tolist() == [0.5]

    def test_line_taking_over_past_one_is_absent(self):
        # (0.7, -0.25) would take over from (1, -0.5) only at P = 1.2
        curve = assemble_curve([(1.0, -0.5), (0.7, -0.25)], 0.5)
        assert curve.segments.tolist() == [[1.0, -0.5], [0.5, 0.0]]

    @pytest.mark.parametrize("gap", [0.0, 1e-10])
    def test_plateau_starting_at_one(self, gap):
        # a line 1e-10 above the floor at P = 1 meets it at 1 + 2e-10: clipped
        curve = assemble_curve([(1.0, -0.5)], 0.5 - gap)
        assert curve.breakpoints.tolist() == [1.0]
        assert curve.p_star == 1.0
        assert curve.value(1.0) == 0.5 - gap

    def test_segment_shorter_than_zero_length_tolerance_dropped(self):
        # (0.875 + 1e-15, -0.75) is on top only for about 8e-15 around P = 0.5
        curve = assemble_curve([(1.0, -1.0), (0.875 + 1e-15, -0.75), (0.75, -0.5)], 0.35)
        assert curve.segments.tolist() == [[1.0, -1.0], [0.75, -0.5], [0.35, 0.0]]
        assert curve.breakpoints == pytest.approx([0.5, 0.8], abs=1e-15)

    def test_tiny_slopes_join_the_plateau(self):
        curve = assemble_curve([(1.0, -1.0), (0.5 + 1e-13, -1e-12), (0.5, 1e-12)], 0.5)
        assert curve.segments.tolist() == [[1.0, -1.0], [0.5, 0.0]]
        assert curve.p_star == 0.5
        flat = assemble_curve([(0.5 + 1e-13, -1e-12), (0.5, 1e-12)], 0.5)
        assert flat.breakpoints.size == 0
        assert flat.segments.tolist() == [[0.5, 0.0]]

    def test_no_lines_is_flat_at_the_floor(self):
        curve = assemble_curve(np.empty((0, 2)), 0.3)
        assert curve.breakpoints.size == 0
        assert curve.p_star == 0.0
        assert curve.segments.tolist() == [[0.3, 0.0]]
        assert curve.value(0.0) == 0.3

    @pytest.mark.parametrize("line", [(np.nan, -0.5), (2.0, np.nan), (np.inf, -2.0)])
    def test_non_finite_lines_rejected(self, line):
        with pytest.raises(ProblemError, match="non-finite"):
            assemble_curve([(1.0, -1.0), line], 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_and_ignores_row_order(self, seed):
        lines, d_star = _tangent_lines(seed)
        curve = assemble_curve(lines, d_star)
        grid = np.linspace(0.0, 1.0, 1001)
        brute = np.max(lines[:, :1] + lines[:, 1:] * grid, axis=0)
        assert np.max(np.abs(curve.value(grid) - np.maximum(brute, d_star))) <= 1e-12
        perm = np.random.default_rng(seed + 100).permutation(len(lines))
        permuted = assemble_curve(lines[perm], d_star)
        assert np.array_equal(permuted.breakpoints, curve.breakpoints)
        assert np.array_equal(permuted.segments, curve.segments)


class TestBreakpointCandidates:
    def test_two_lines(self):
        pts = [(0.4, 0.0), (0.48, -0.2)]
        cands = breakpoint_candidates(pts)
        assert np.allclose(cands, [0.4])

    def test_parallel_lines_empty(self):
        pts = [(0.1, -0.5), (0.7, -0.5)]
        assert breakpoint_candidates(pts).size == 0

    def test_concurrent_lines_deduplicated(self):
        # three lines through the point (0.5, 0.5)
        pts = [(0.5, 0.0), (0.75, -0.5), (1.0, -1.0)]
        cands = breakpoint_candidates(pts)
        assert cands.shape == (1,)
        assert cands[0] == pytest.approx(0.5, abs=1e-12)

    def test_crossings_outside_unit_interval_dropped(self):
        pts = [(0.0, 0.0), (3.0, -1.0)]
        assert breakpoint_candidates(pts).size == 0

    @pytest.mark.parametrize("seed", [7, 11])
    def test_realized_breakpoints_are_candidates(self, seed):
        prob = random_problem(seed, 3, 4, random_distortion=True)
        report = curve_by_vertices(prob)
        cands = breakpoint_candidates(report.s2_points)
        for bp in report.curve.breakpoints:
            assert np.min(np.abs(cands - bp)) <= 1e-9


def _walk_cases():
    """Seeded 3x4 instances, the edge instances, and a degenerate first step."""
    cases = [
        pytest.param(random_problem(seed, 3, 4, random_distortion=True), id=str(seed))
        for seed in (3, 7, 19)
    ]
    cases += [
        pytest.param(
            random_problem(seed, 3, 4, random_distortion=True, random_metric=True),
            id=f"metric-{seed}",
        )
        for seed in (3, 7, 19)
    ]
    cases += [pytest.param(prob, id=name) for name, prob in edge_problems().items()]
    # every MAP pick is the symbol the source never takes, so the crash
    # basis moves all mass a distance 1 and its budget slack is 0 at P = 1
    eps_zero = make_problem(
        [[0.3, 0.1, 0.2], [0.1, 0.25, 0.05], [0.0, 0.0, 0.0]],
        distortion=[[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [1.0, 1.0, 0.0]],
    )
    return cases + [pytest.param(eps_zero, id="eps-zero-at-one")]


class TestCurveBySweep:
    def test_flat_curve_from_two_solves(self, noiseless_problem):
        report = curve_by_sweep(noiseless_problem)
        assert report.curve.breakpoints.size == 0
        assert report.curve.value(0.37) == 0.0

    def test_independent_breakpoint(self, indep_problem):
        report = curve_by_sweep(indep_problem)
        assert report.curve.breakpoints.shape == (1,)
        assert abs(report.curve.breakpoints[0] - 0.4) <= 1e-6
        assert np.allclose(report.curve.slopes, [-0.2, 0.0], atol=1e-8)

    def test_bsc_breakpoint_and_slope(self, bsc_problem):
        report = curve_by_sweep(bsc_problem)
        assert report.curve.breakpoints.shape == (1,)
        assert abs(report.curve.breakpoints[0] - 0.02) <= 1e-6
        assert abs(report.curve.slopes[0] + 5.0 / 7.0) <= 1e-6

    @pytest.mark.parametrize("prob", _walk_cases())
    def test_sweep_agrees_with_vertices(self, prob):
        by_sweep = curve_by_sweep(prob)
        by_vertex = curve_by_vertices(prob)
        assert by_sweep.curve.breakpoints.shape == by_vertex.curve.breakpoints.shape
        assert np.allclose(
            by_sweep.curve.breakpoints, by_vertex.curve.breakpoints, atol=1e-6
        )
        assert np.allclose(by_sweep.curve.slopes, by_vertex.curve.slopes, atol=1e-8)

    @pytest.mark.parametrize(
        "method,shape",
        [(curve_by_sweep, (5, 10)), (curve_by_vertices, (3, 4))],
        ids=["sweep", "vertex"],
    )
    def test_one_build_and_no_solves(self, monkeypatch, method, shape):
        # both methods build the program once, walk it once, and never
        # solve a level: the estimators come from the walk's bases
        from dptradeoff import lp as lpmod
        from dptradeoff import programs

        build = curvemod.build_ot_form
        builds = []

        def counting(*args):
            builds.append(args)
            return build(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("the curve solved a program")

        monkeypatch.setattr(curvemod, "build_ot_form", counting)
        monkeypatch.setattr(curvemod, "solve_dp_at", forbidden, raising=False)
        for module, name in ((lpmod, "solve"), (programs, "solve_dp_at")):
            monkeypatch.setattr(module, name, forbidden)
        report = method(random_problem(1, *shape, random_distortion=True))
        assert len(builds) == 1
        assert report.curve.breakpoints.size > 1
        assert len(report.estimators) == report.curve.breakpoints.size + 1

    def test_estimators_at_every_endpoint(self):
        for random_metric in (False, True):
            prob = random_problem(1, 5, 10, random_distortion=True, random_metric=random_metric)
            report = curve_by_sweep(prob)
            assert [p for p, _ in report.estimators] == [0.0] + list(report.curve.breakpoints)
            for p, est in report.estimators:
                assert prob.expected_distortion(est) == pytest.approx(
                    report.curve.value(p), abs=1e-9
                )
                assert prob.perception_of(est)[0] <= p + 1e-8

    @pytest.mark.parametrize(
        "method,shape,random_metric",
        [(curve_by_sweep, (5, 10), False), (curve_by_sweep, (8, 20), True),
         (curve_by_vertices, (3, 4), True)],
        ids=["sweep-5x10", "sweep-8x20-metric", "vertex-3x4-metric"],
    )
    def test_estimators_match_a_loop_over_the_levels(self, method, shape, random_metric):
        # the reference: per level, the nearest path entry (first on a tie),
        # its point B^-1 b + s B^-1 e_m at its own level, and a stack of one;
        # the stacked pass must match bitwise
        from dptradeoff import lp as lpmod
        from dptradeoff.programs import _crash_basis, _stochastic_estimator, build_ot_form

        prob = random_problem(2, *shape, random_distortion=True, random_metric=random_metric)
        report = method(prob)
        lp, lay = build_ot_form(prob, 0.0)
        path = lpmod.walk(lp, _crash_basis(prob, lay), 1.0)[1]
        levels = np.array([entry[0] for entry in path])
        tol = lp.feas_tol
        assert len(report.estimators) == report.curve.breakpoints.size + 1
        for p, est in report.estimators:
            s, basis, xb, rate = path[int(np.argmin(np.abs(levels - p)))]
            x = lpmod.basic_point(lp.n, basis, xb + s * rate)
            (want,) = _stochastic_estimator(prob, lay.extract_w(x)[None], tol)
            assert np.array_equal(est.q, want.q), p

    @pytest.mark.parametrize("random_metric", [False, True], ids=["hamming", "metric"])
    @pytest.mark.parametrize("shape", [(5, 10), (8, 20)], ids=["5x10", "8x20"])
    def test_matches_highs(self, shape, random_metric):
        pytest.importorskip("scipy")
        prob = random_problem(1, *shape, random_distortion=True, random_metric=random_metric)
        curve = curve_by_sweep(prob).curve
        ends = np.concatenate([[0.0], curve.breakpoints, [1.0]])
        levels = np.unique(np.concatenate([ends, 0.5 * (ends[1:] + ends[:-1])]))
        for p in levels:
            assert curve.value(p) == pytest.approx(highs_dp_oracle(prob, p), abs=1e-8), p

    @pytest.mark.parametrize("seed,random_metric", [(4, False), (1, True)], ids=["hamming", "metric"])
    def test_breakpoints_are_walk_levels_at_the_exact_crossings(self, seed, random_metric):
        # every walked basis's line c_B B^-1 (b + P e_m), in exact rationals:
        # the breakpoints are the crossings of consecutive lines.  On the
        # Hamming seed 4 instance the float crossing of two nearly parallel
        # lines is 1.39e-11 off, so the breakpoints are the walk's levels
        from dptradeoff import lp as lpmod
        from dptradeoff.programs import _crash_basis, build_ot_form

        prob = random_problem(seed, 8, 20, random_distortion=random_metric, random_metric=random_metric)
        lp, lay = build_ot_form(prob, 0.0)
        path = lpmod.walk(lp, _crash_basis(prob, lay), 1.0)[1]
        tops = [1.0] + [entry[0] for entry in path]
        lines = [
            _exact_line(lp.a, lp.b, lp.c, basis)
            for top, (s, basis, _, _) in zip(tops, path)
            if top > s
        ]
        exact = [(b2 - b1) / (m1 - m2) for (b1, m1), (b2, m2) in zip(lines, lines[1:]) if m1 != m2]
        breakpoints = curve_by_sweep(prob).curve.breakpoints
        assert set(breakpoints.tolist()) <= set(tops)
        assert breakpoints.size == len(exact) > 10
        assert np.abs(breakpoints - np.array(sorted(exact), dtype=float)).max() <= 1e-13


class TestScaledDistortion:
    # distortions scaled by 1e7 to 1e8 are valid input, but on most of these
    # instances the walk's pieces miss each other at a breakpoint by more than
    # the curve's check allows; a curve the solver built and cannot validate
    # is a solver failure (or, once programs are solved in normalized units,
    # a curve), never a ProblemError
    @pytest.mark.parametrize("build", [curve_by_sweep, curve_by_vertices], ids=["sweep", "vertex"])
    def test_never_an_input_error(self, build):
        for scale in (1e7, 3e7, 1e8):
            for seed in range(1, 21):
                with suppress(SolverError):
                    build(instance_to_problem(scaled_distortion_spec(seed, scale)))


class TestEstimatorOnCurve:
    def test_beyond_one_returns_greedy(self, bsc_problem):
        report = curve_by_sweep(bsc_problem)
        est = estimator_on_curve(bsc_problem, report, 1.5)
        assert np.allclose(est.q, bsc_problem.minimum[1].q)

    def test_at_breakpoint(self, indep_problem):
        report = curve_by_vertices(indep_problem)
        bp = float(report.curve.breakpoints[0])
        est = estimator_on_curve(indep_problem, report, bp)
        assert indep_problem.expected_distortion(est) == pytest.approx(
            report.curve.value(bp), abs=1e-8
        )
        w1, _ = indep_problem.perception_of(est)
        assert w1 <= bp + 1e-8

    @pytest.mark.parametrize("seed", [5, 13])
    def test_mid_segment_on_line_and_feasible(self, seed):
        prob = random_problem(seed, 3, 3, random_distortion=True)
        report = curve_by_vertices(prob)
        ps = [0.0] + list(report.curve.breakpoints) + [report.curve.p_star, 1.0]
        probes = sorted(set(0.5 * (a + b) for a, b in zip(ps[:-1], ps[1:])))
        for p in probes:
            est = estimator_on_curve(prob, report, p)
            assert prob.expected_distortion(est) == pytest.approx(
                report.curve.value(p), abs=1e-8
            )
            w1, _ = prob.perception_of(est)
            assert w1 <= p + 1e-8

    def test_negative_level_rejected(self, bsc_problem):
        report = curve_by_sweep(bsc_problem)
        with pytest.raises(ProblemError):
            estimator_on_curve(bsc_problem, report, -0.1)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_nonfinite_level_rejected(self, bsc_problem, level):
        report = curve_by_sweep(bsc_problem)
        with pytest.raises(ProblemError, match="finite and >= 0"):
            estimator_on_curve(bsc_problem, report, level)


class TestHullExtremes:
    def test_no_points(self):
        extremes = hull_extremes(np.empty((0, 2)))
        assert extremes.tolist() == [] and extremes.dtype.kind == "i"

    def test_single_point(self):
        assert hull_extremes([(0.3, -0.1)]).tolist() == [0]

    def test_square_with_center(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
        assert hull_extremes(pts).tolist() == [0, 1, 2, 3]

    def test_collinear_points_drop_interior(self):
        pts = np.array([[0, 0], [0.5, 0.5], [1, 1]], dtype=float)
        assert hull_extremes(pts).tolist() == [0, 2]

    @pytest.mark.parametrize("seed", [7, 21])
    def test_active_segments_are_extreme(self, seed):
        prob = random_problem(seed, 3, 4, random_distortion=True)
        report = curve_by_vertices(prob)
        s2 = report.s2_points
        extremes = s2[report.hull_extreme_indices]
        for intercept, slope in report.curve.segments:
            dist = np.hypot(extremes[:, 0] - intercept, extremes[:, 1] - slope)
            assert dist.min() <= 1e-9


class TestPiecewiseLinearCurve:
    def test_rejects_decreasing_slopes(self):
        with pytest.raises(ProblemError, match="non-decreasing"):
            PiecewiseLinearCurve(np.array([0.5]), np.array([[1.0, -0.1], [1.05, -0.2]]))

    def test_rejects_discontinuity(self):
        with pytest.raises(ProblemError, match="discontinuous"):
            PiecewiseLinearCurve(np.array([0.5]), np.array([[1.0, -0.5], [0.6, 0.0]]))

    def test_rejects_positive_slope(self):
        with pytest.raises(ProblemError, match="nonpositive"):
            PiecewiseLinearCurve(np.array([]), np.array([[1.0, 0.5]]))

    @pytest.mark.parametrize(
        "breakpoints,segments,named",
        [([np.nan], [[1.0, -1.0], [0.5, 0.0]], "breakpoint"), ([], [[np.nan, 0.0]], "segment"),
         ([0.5], [[np.inf, -1.0], [np.inf, 0.0]], "segment")],
        ids=["nan-breakpoint", "nan-plateau", "inf-intercepts"],
    )
    def test_rejects_non_finite_data(self, breakpoints, segments, named):
        # a NaN breakpoint once made a curve whose value(0.3) read 0.7, and a
        # NaN plateau one whose d_star was NaN
        with pytest.raises(ProblemError, match=f"{named} .* non-finite"):
            PiecewiseLinearCurve(np.array(breakpoints), np.array(segments))

    def test_rejects_wrong_segment_count(self):
        with pytest.raises(ProblemError, match="segment count must be breakpoint count"):
            PiecewiseLinearCurve(np.array([0.5]), np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize(
        "breakpoints", [[0.3, 0.3], [0.4, 0.2], [0.0, 0.5], [-0.1, 0.5], [0.5, 1.5]],
        ids=["repeated", "decreasing", "at-zero", "negative", "past-one"],
    )
    def test_rejects_breakpoints_outside_or_out_of_order(self, breakpoints):
        with pytest.raises(ProblemError, match=r"increase strictly within \(0, 1\]"):
            PiecewiseLinearCurve(np.array(breakpoints), np.zeros((3, 2)))

    @pytest.mark.parametrize("plateau", [(0.9, -1e-13)], ids=["slope"])
    def test_rejects_final_segment_off_the_plateau(self, plateau):
        with pytest.raises(ProblemError, match="final segment must be the exact plateau"):
            PiecewiseLinearCurve(np.array([0.5]), np.array([[1.0, -0.2], plateau]))

    @pytest.mark.parametrize(
        "breakpoints,segments,p_star",
        [([0.5], [[1.0, -0.2], [0.9, 0.0]], 0.5), ([], [[0.9, 0.0]], 0.0)],
        ids=["last-breakpoint", "flat"],
    )
    def test_p_star_and_d_star_read_off_the_segments(self, breakpoints, segments, p_star):
        curve = PiecewiseLinearCurve(np.array(breakpoints), np.array(segments))
        assert (curve.p_star, curve.d_star) == (p_star, 0.9)
        assert type(curve.p_star) is float and type(curve.d_star) is float

    def test_value_and_slope_vectorized(self, indep_problem):
        report = curve_by_vertices(indep_problem)
        ps = np.array([0.0, 0.2, 0.4, 0.7, 1.0])
        vals = report.curve.value(ps)
        assert np.allclose(vals, [0.48, 0.44, 0.4, 0.4, 0.4], atol=1e-9)
        slopes = report.curve.slope(ps)
        assert slopes[0] == pytest.approx(-0.2, abs=1e-9)
        assert slopes[-1] == 0.0

    @pytest.mark.parametrize("level", [-0.5, -np.inf, np.nan, np.inf], ids=["negative", "-inf", "nan", "inf"])
    @pytest.mark.parametrize("method", ["sweep", "vertex", "closed_form"])
    def test_value_and_slope_reject_what_check_level_rejects(self, method, level):
        # -0.5 once extrapolated the first segment above D(0), nan read slope 0,
        # and inf warned of an invalid multiply; every entry of an array counts
        prob = random_problem(1, *((2, 8) if method == "closed_form" else (3, 4)), random_distortion=True)
        curve = {
            "sweep": lambda: curve_by_sweep(prob).curve,
            "vertex": lambda: curve_by_vertices(prob).curve,
            "closed_form": lambda: closed_form_curve(prob),
        }[method]()
        for query in (level, [0.1, level], np.array([[0.2], [level]])):
            for read in (curve.value, curve.slope):
                with pytest.raises(ProblemError, match=r"perception level must be finite and >= 0, got"):
                    read(query)
        assert (curve.value(2.0), curve.slope(2.0)) == (curve.d_star, 0.0)  # past 1 stays valid
