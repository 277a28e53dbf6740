"""Command-line front end.

Subcommands: solve, curve, binary, gen, verify, w1.  Exit codes: 0 ok,
1 input error (or stdout closed by its reader, with nothing printed),
2 solver failure, 3 vertex walk past its bases budget, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import binary as binmod
from . import curve as curvemod
from . import lp as lpmod
from . import problemio, svgplot
from .errors import BudgetExceededError, ProblemError, SolverError
from .model import Distribution, GroundMetric, wasserstein1
from .problemio import _fmt
from .programs import solve_dp_at
from .verify import cross_verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _curve_json(curve, estimators, method: str, tol: float) -> str:
    doc = {
        "method": method,
        "tolerance": tol,
        "breakpoints": [float(b) for b in curve.breakpoints],
        "slopes": [float(s) for s in curve.slopes],
        "p_star": float(curve.p_star),
        "d_star": float(curve.d_star),
        "segments": [
            {"intercept": float(a), "slope": float(s)} for a, s in curve.segments
        ],
        "estimators": [
            {"p": float(p), "q": [[float(v) for v in row] for row in est.q]}
            for p, est in estimators
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _curve_csv(curve) -> str:
    lines = ["P,D,slope"]
    for p in np.linspace(0.0, 1.0, 201):
        lines.append(f"{_fmt(p)},{_fmt(curve.value(p))},{_fmt(curve.slope(p))}")
    return "\n".join(lines) + "\n"


def _active_indices(curve, s2: np.ndarray) -> list[int]:
    out = []
    for a, s in curve.segments:
        if s2.shape[0] == 0:
            break
        d = np.hypot(s2[:, 0] - a, s2[:, 1] - s)
        j = int(np.argmin(d))
        if d[j] <= 1e-6 and j not in out:
            out.append(j)
    return out


def cmd_solve(args) -> int:
    problem, _ = problemio.load_problem(args.input)
    report = solve_dp_at(problem, args.P, form=args.form)
    print(f"D(P) = {_fmt(report.value)}")
    print(f"duality gap = {report.gap:.3e}")
    print(f"perception certificate = {_fmt(report.perception)}")
    print(f"form = {report.form}")
    print(f"tolerance = {_fmt(args.tol)}")
    if args.out_json:
        doc = {
            "p_level": report.p_level,
            "value": report.value,
            "gap": report.gap,
            "perception": report.perception,
            "form": report.form,
            "tolerance": args.tol,
            "estimator": [[float(v) for v in row] for row in report.estimator.q],
            "coupling": [[float(v) for v in row] for row in report.coupling.pi],
        }
        _write(args.out_json, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _emit_curve_outputs(args, curve, estimators, method, scatter=None) -> None:
    """Write the requested files; ``scatter`` is a report whose S2 points to plot."""
    if args.out_json:
        _write(args.out_json, _curve_json(curve, estimators, method, args.tol))
    if args.out_csv:
        _write(args.out_csv, _curve_csv(curve))
    if args.out_svg:
        _write(args.out_svg, svgplot.curve_svg(curve, title="distortion-perception curve"))
        if scatter is not None and scatter.s2_points.size:
            scatter_path = (
                args.out_svg[:-4] + ".s2.svg"
                if args.out_svg.endswith(".svg")
                else args.out_svg + ".s2.svg"
            )
            _write(
                scatter_path,
                svgplot.scatter_svg(
                    scatter.s2_points,
                    scatter.hull_extreme_indices,
                    _active_indices(curve, scatter.s2_points),
                    title="projected dual vertices and hull extremes",
                ),
            )


def _closed_form_outputs(args, problem):
    """Closed-form curve and its estimators, written to the requested files."""
    analysis = binmod.analyze(problem)
    curve = binmod.closed_form_curve(problem, analysis)
    ests = [(0.0, binmod.zero_perception_estimator(problem, analysis))]
    ests += binmod.breakpoint_estimators(problem, analysis)
    ests.sort(key=lambda t: t[0])
    _emit_curve_outputs(args, curve, ests, "closed-form")
    return analysis, curve


def _print_curve(curve, tol: float) -> None:
    print(f"breakpoints = [{', '.join(_fmt(b) for b in curve.breakpoints)}]")
    print(f"slopes = [{', '.join(_fmt(s) for s in curve.slopes)}]")
    print(f"p_star = {_fmt(curve.p_star)}")
    print(f"d_star = {_fmt(curve.d_star)}")
    print(f"tolerance = {_fmt(tol)}")


def cmd_curve(args) -> int:
    problem, _ = problemio.load_problem(args.input)
    if args.method == "closed-form":
        _, curve = _closed_form_outputs(args, problem)
    elif args.method == "vertex":
        report = curvemod.curve_by_vertices(problem, budget=args.budget)
        curve = report.curve
        _emit_curve_outputs(args, curve, report.estimators, "vertex", scatter=report)
    else:
        report = curvemod.curve_by_sweep(problem)
        curve = report.curve
        _emit_curve_outputs(args, curve, report.estimators, "sweep")
    _print_curve(curve, args.tol)
    return EXIT_OK


def cmd_binary(args) -> int:
    problem, _ = problemio.load_problem(args.input)
    analysis, curve = _closed_form_outputs(args, problem)
    print(f"case = {analysis.case}")
    _print_curve(curve, args.tol)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = problemio.generate_instance(
        args.seed,
        args.nx,
        args.ny,
        random_distortion=args.random_distortion,
        use_random_metric=args.random_metric,
    )
    text = problemio.serialize_instance(spec)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, spec = problemio.load_problem(args.input)
    grid = np.linspace(0.0, 1.0, max(args.points, 0))  # cross_verify rejects an empty grid
    report = cross_verify(
        problem,
        grid,
        instance=spec.get("name") or args.input,
        exact_tol=args.tol,
        grid_steps=args.grid_steps,
        inject_slope_error=args.inject_slope_error,
    )
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _parse_vector(text: str) -> Distribution:
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ProblemError(f"not a comma-separated vector: {text!r}") from exc
    return Distribution(vals)


def cmd_w1(args) -> int:
    p = _parse_vector(args.p)
    q = _parse_vector(args.q)
    if args.input:
        problem, _ = problemio.load_problem(args.input)
        metric = problem.metric
    else:
        metric = GroundMetric.hamming(len(p))
    value, coupling = wasserstein1(p, q, metric)
    print(f"W1 = {_fmt(value)}")
    print("coupling:")
    for row in coupling.pi:
        print("  " + " ".join(_fmt(v) for v in row))
    print(f"tolerance = {_fmt(args.tol)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp",
        description=(
            "Distortion-perception curves for finite channels. Problem files are "
            "JSON objects with a row-major 'p_xy' matrix and optional 'distortion' "
            "and 'metric' matrices (both default to Hamming)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_outputs=True):
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument("--tol", type=float, default=1e-9, help="reporting tolerance")
        if with_outputs:
            p.add_argument("--out-json", default=None)
            p.add_argument("--out-csv", default=None)
            p.add_argument("--out-svg", default=None)

    p_solve = sub.add_parser("solve", help="solve at one perception level")
    common(p_solve)
    p_solve.add_argument("--P", type=float, required=True, help="perception level >= 0")
    p_solve.add_argument("--form", choices=["ot", "tv"], default="ot")
    p_solve.set_defaults(func=cmd_solve)

    p_curve = sub.add_parser("curve", help="construct the whole curve")
    common(p_curve)
    p_curve.add_argument(
        "--method", choices=["vertex", "sweep", "closed-form"], default="vertex"
    )
    p_curve.add_argument(
        "--budget",
        type=int,
        default=lpmod.VERTEX_BUDGET,
        help="most bases the vertex walk may visit before exit 3",
    )
    p_curve.set_defaults(func=cmd_curve)

    p_bin = sub.add_parser("binary", help="closed form for binary sources")
    common(p_bin)
    p_bin.set_defaults(func=cmd_binary)

    p_gen = sub.add_parser("gen", help="generate a reproducible random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--nx", type=int, required=True)
    p_gen.add_argument("--ny", type=int, required=True)
    p_gen.add_argument("--random-distortion", action="store_true")
    p_gen.add_argument("--random-metric", action="store_true")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="cross-check all applicable methods")
    common(p_ver, with_outputs=False)
    p_ver.add_argument("--points", type=int, default=21, help="perception grid size")
    p_ver.add_argument("--grid-steps", type=int, default=None)
    p_ver.add_argument(
        "--inject-slope-error",
        type=float,
        default=0.0,
        help="perturb the sweep values to exercise the failure path",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_w1 = sub.add_parser("w1", help="transport distance between two pmfs")
    p_w1.add_argument("--p", required=True, help="comma-separated pmf")
    p_w1.add_argument("--q", required=True, help="comma-separated pmf")
    p_w1.add_argument("--input", default=None, help="problem file supplying the metric")
    p_w1.add_argument("--tol", type=float, default=1e-9)
    p_w1.set_defaults(func=cmd_w1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:  # NaN compares false
            raise ProblemError(f"--tol must be finite and nonnegative, got {args.tol}")
        code = args.func(args)
        sys.stdout.flush()  # a reader that left raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout left early (``dp binary ... | head``); as the
        # signal module's SIGPIPE note does, point stdout at the null device,
        # so that the flush at exit fails no more, and print nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (ProblemError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(
            f"budget exceeded: {exc}\nhint: retry with --method sweep",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
