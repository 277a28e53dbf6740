"""Command-line front end: ``dp`` solve, curve, binary, gen, verify, w1.

Only verify takes ``--tol``; the ``tolerance`` the others print is
``lp.FEAS_TOL``.  Only ``curve --method vertex`` takes ``--budget``.
Exit codes: 0 ok, 1 input error, a malformed argument too (or stdout
closed by its reader, with nothing printed), 2 solver failure, 3 vertex
walk past its bases budget, 4 verification failure.
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
from . import problemio
from .errors import BudgetExceededError, ProblemError, SolverError
from .model import Distribution, GroundMetric, wasserstein1
from .problemio import _fmt
from .programs import solve_dp_at

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

_ACTIVE_TOL = 1e-6  # cost: a dual point this near a piece's (intercept, slope) is its line


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _curve_json(curve, estimators, method: str) -> str:
    doc = {
        "method": method,
        "tolerance": lpmod.FEAS_TOL,
        "breakpoints": curve.breakpoints.tolist(),
        "slopes": curve.slopes.tolist(),
        "p_star": float(curve.p_star),
        "d_star": float(curve.d_star),
        "segments": [{"intercept": a, "slope": s} for a, s in curve.segments.tolist()],
        "estimators": [{"p": float(p), "q": est.q.tolist()} for p, est in estimators],
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
        d = np.hypot(s2[:, 0] - a, s2[:, 1] - s)
        j = int(np.argmin(d))
        if d[j] <= _ACTIVE_TOL and j not in out:
            out.append(j)
    return out


def cmd_solve(args) -> int:
    problem, _ = problemio.load_problem(args.input)
    report = solve_dp_at(problem, args.P, form=args.form)
    print(f"D(P) = {_fmt(report.value)}")
    print(f"duality gap = {report.gap:.3e}")
    print(f"perception certificate = {_fmt(report.perception)}")
    print(f"form = {report.form}")
    print(f"tolerance = {_fmt(lpmod.FEAS_TOL)}")
    if args.out_json:
        doc = {
            "p_level": report.p_level,
            "value": report.value,
            "gap": report.gap,
            "perception": report.perception,
            "form": report.form,
            "tolerance": lpmod.FEAS_TOL,
            "estimator": report.estimator.q.tolist(),
            "coupling": report.coupling.pi.tolist(),
        }
        _write(args.out_json, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _emit_curve_outputs(args, curve, estimators, method, scatter=None) -> None:
    """Write the requested files; ``scatter`` is a report whose S2 points to plot."""
    if args.out_json:
        _write(args.out_json, _curve_json(curve, estimators, method))
    if args.out_csv:
        _write(args.out_csv, _curve_csv(curve))
    if args.out_svg:
        from . import svgplot

        _write(args.out_svg, svgplot.curve_svg(curve, title="distortion-perception curve"))
        if scatter is not None:
            _write(
                args.out_svg.removesuffix(".svg") + ".s2.svg",
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
    _emit_curve_outputs(args, curve, list(zip(*analysis.supports)), "closed-form")
    return analysis, curve


def _print_curve(curve) -> None:
    print(f"breakpoints = [{', '.join(_fmt(b) for b in curve.breakpoints)}]")
    print(f"slopes = [{', '.join(_fmt(s) for s in curve.slopes)}]")
    print(f"p_star = {_fmt(curve.p_star)}")
    print(f"d_star = {_fmt(curve.d_star)}")
    print(f"tolerance = {_fmt(lpmod.FEAS_TOL)}")


def cmd_curve(args) -> int:
    if args.budget is not None and args.method != "vertex":
        raise ProblemError(f"dp curve: --budget applies only to --method vertex, not {args.method}")
    problem, _ = problemio.load_problem(args.input)
    if args.method == "closed-form":
        _, curve = _closed_form_outputs(args, problem)
    else:
        vertex = args.method == "vertex"
        if vertex:
            budget = lpmod.VERTEX_BUDGET if args.budget is None else args.budget
            report = curvemod.curve_by_vertices(problem, budget=budget)
        else:
            report = curvemod.curve_by_sweep(problem)
        curve = report.curve
        _emit_curve_outputs(args, curve, report.estimators, args.method, report if vertex else None)
    _print_curve(curve)
    return EXIT_OK


def cmd_binary(args) -> int:
    problem, _ = problemio.load_problem(args.input)
    analysis, curve = _closed_form_outputs(args, problem)
    print(f"case = {analysis.case}")
    _print_curve(curve)
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
    from .verify import cross_verify

    if not 0.0 <= args.tol < np.inf:  # NaN compares false
        raise ProblemError(f"--tol must be finite and nonnegative, got {args.tol}")
    problem, spec = problemio.load_problem(args.input)
    grid = np.linspace(0.0, 1.0, max(args.points, 0))  # cross_verify rejects an empty grid
    report = cross_verify(
        problem,
        grid,
        instance=spec.get("name") or args.input,
        exact_tol=args.tol,
        grid_steps=args.grid_steps,
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
    print(f"tolerance = {_fmt(lpmod.FEAS_TOL)}")
    return EXIT_OK


class _ExactTol(str):
    """``dp verify --tol``'s default, ``verify.EXACT_TOL``: argparse converts
    a str default by the option's type only when it parses ``verify``
    without ``--tol``, so no other command loads ``verify``."""

    def __float__(self) -> float:
        from .verify import EXACT_TOL

        return EXACT_TOL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, a subcommand's too, is an input error
        raise ProblemError(f"{self.prog}: {message}")


class _CommandParser(_Parser):
    """A subcommand's parser, which names the leftover arguments it received
    itself: argparse would pass them up to ``dp`` with its own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dp",
        description=(
            "Distortion-perception curves for finite channels. Problem files are "
            "JSON objects with a row-major 'p_xy' matrix and optional 'distortion' "
            "and 'metric' matrices (both default to Hamming)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(p, outputs=("json", "csv", "svg")):
        p.add_argument("--input", required=True, help="problem JSON file")
        for name in outputs:
            p.add_argument(f"--out-{name}", default=None)

    p_solve = sub.add_parser("solve", help="solve at one perception level")
    common(p_solve, outputs=("json",))
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
        default=None,
        help="most bases the vertex walk may visit before exit 3 (--method vertex only)",
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
    common(p_ver, outputs=())
    p_ver.add_argument("--points", type=int, default=21, help="perception grid size")
    p_ver.add_argument("--tol", type=float, default=_ExactTol(), help="largest gap between exact methods")
    p_ver.add_argument("--grid-steps", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_w1 = sub.add_parser("w1", help="transport distance between two pmfs")
    p_w1.add_argument("--p", required=True, help="comma-separated pmf")
    p_w1.add_argument("--q", required=True, help="comma-separated pmf")
    p_w1.add_argument("--input", default=None, help="problem file supplying the metric")
    p_w1.set_defaults(func=cmd_w1)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
