"""Reproduce the 3x5 random-instance experiment end to end.

Builds a seeded random instance (|source| = 3, |observations| = 5, random
distortion) and computes the full tradeoff curve by enumerating the
vertices of the flow program's dual (8 coordinates: one per observation,
one potential per source symbol but the last, and the budget's price).
It then solves the program at a sweep of perception levels, in the same
complete-graph flow form, and checks that every optimal dual projection
lands on an extreme point of the projected hull.  Writes the curve plot,
the projection scatter, and the curve JSON under ``out/``.

Usage: python scripts/run_hull_experiment.py [--seed 7] [--out-dir out]
"""

import argparse
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dptradeoff import curve_by_vertices, solve_dp_at, svgplot  # noqa: E402
from dptradeoff.problemio import generate_instance, instance_to_problem  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    spec = generate_instance(args.seed, 3, 5, random_distortion=True)
    problem = instance_to_problem(spec)
    print(f"instance {spec['name']}: floor = {problem.distortion_floor:.6f}")

    report = curve_by_vertices(problem)
    curve = report.curve
    print(f"{report.s2_points.shape[0]} dual vertices enumerated")
    print(f"breakpoints: {np.round(curve.breakpoints, 6).tolist()}")
    print(f"slopes:      {np.round(curve.slopes, 6).tolist()}")
    print(f"plateau starts at P* = {curve.p_star:.6f}, value {curve.d_star:.6f}")

    # solve along the tradeoff and project each optimal dual point
    extremes = report.s2_points[report.hull_extreme_indices]
    active = []
    for p in np.linspace(0.0, 1.0, 41):
        rep = solve_dp_at(problem, float(p))
        point = (
            rep.value + rep.dual.perception_price * p,
            -rep.dual.perception_price,
        )
        dist = np.hypot(extremes[:, 0] - point[0], extremes[:, 1] - point[1])
        active.append(int(np.argmin(np.hypot(
            report.s2_points[:, 0] - point[0], report.s2_points[:, 1] - point[1]
        ))))
        assert dist.min() <= 1e-8, f"optimal projection off the hull at P={p}"
    print("every optimal projection sits on a hull extreme")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "curve.svg").write_text(svgplot.curve_svg(curve, title="tradeoff curve"))
    (out / "s2.svg").write_text(
        svgplot.scatter_svg(
            report.s2_points,
            report.hull_extreme_indices,
            sorted(set(active)),
            title="projected dual vertices",
        )
    )
    (out / "curve.json").write_text(
        json.dumps(
            {
                "breakpoints": curve.breakpoints.tolist(),
                "slopes": curve.slopes.tolist(),
                "p_star": curve.p_star,
                "d_star": curve.d_star,
            },
            indent=2,
        )
    )
    print(f"artifacts written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
