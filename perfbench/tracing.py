"""Spans around the calls into each layer of ``dptradeoff``, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``dptradeoff`` module that holds it, because modules import functions by
name (``curve`` and ``verify`` call their own ``solve_dp_at`` binding,
``programs`` its own ``wasserstein1``).  The program's code is not
changed.  Spans are kept in memory; ``write`` stores them when the run
ends, and ``per_layer`` turns them into per-operation figures.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

# (module, function) pairs, and what to count from each call's arguments and result
TRACED = {
    ("lp", "solve"): lambda args, res: (res.iterations, len(res.dropped_rows)),
    ("lp", "enumerate_vertices"): lambda args, res: (math.comb(args[0].k, args[0].d), res.shape[0]),
    ("programs", "build_ot_form"): None,
    ("programs", "build_tv_form"): None,
    ("programs", "solve_dp_at"): None,
    ("model", "wasserstein1"): None,
    ("curve", "curve_by_sweep"): lambda args, res: (len(res.curve.breakpoints),),
    ("curve", "curve_by_vertices"): lambda args, res: (len(res.curve.breakpoints),),
    ("curve", "assemble_curve"): None,
    ("curve", "hull_extremes"): None,
    ("binary", "analyze"): None,
    ("binary", "closed_form_curve"): None,
    ("binary", "zero_perception_estimator"): None,
    ("binary", "breakpoint_estimators"): None,
    ("binary", "estimator_at"): None,
}

NAME, OP, PARENT, START, END, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = start
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "dptradeoff" or n.startswith("dptradeoff.")]
        for (mod, fname), count in TRACED.items():
            fn = getattr(sys.modules[f"dptradeoff.{mod}"], fname)
            wrapper = self._wrap(f"{mod}.{fname}", fn, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)

    def write(self, path: str) -> None:
        keys = ("name", "op", "parent", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer(spans: list[list], n_ops: int, load_ms: float) -> dict[str, float]:
    """Per-operation totals over ``n_ops`` operations, and ratios of totals."""
    child_s: dict[int, float] = {}
    assembled_at: dict[int, float] = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] = child_s.get(s[PARENT], 0.0) + s[END] - s[START]
            if s[NAME] == "curve.assemble_curve":
                assembled_at[s[PARENT]] = s[END]

    t: dict[str, float] = dict.fromkeys(
        ("solve_calls", "solve_s", "pivots", "dropped", "enum_s", "systems", "vertices",
         "dp_calls", "build_s", "post_s", "w1_calls", "w1_s", "curve_self_s", "assemble_s",
         "hull_s", "sample", "endpoint", "breakpoints", "analyze_s", "closed_s",
         "estimators_s", "estimator_at_s"), 0.0)
    for idx, s in enumerate(spans):
        name, parent, dur, counts = s[NAME], s[PARENT], s[END] - s[START], s[COUNTS]
        own = dur - child_s.get(idx, 0.0)
        if name == "lp.solve":
            t["solve_calls"] += 1
            t["solve_s"] += dur
            if counts:
                t["pivots"] += counts[0]
                t["dropped"] += counts[1]
        elif name == "lp.enumerate_vertices":
            t["enum_s"] += dur
            if counts:
                t["systems"] += counts[0]
                t["vertices"] += counts[1]
        elif name in ("programs.build_ot_form", "programs.build_tv_form"):
            t["build_s"] += dur
        elif name == "programs.solve_dp_at":
            t["dp_calls"] += 1
            t["post_s"] += own
            if parent >= 0 and spans[parent][NAME].startswith("curve.curve_by_"):
                late = s[START] >= assembled_at.get(parent, math.inf)
                t["endpoint" if late else "sample"] += 1
        elif name == "model.wasserstein1":
            t["w1_calls"] += 1
            t["w1_s"] += dur
        elif name.startswith("curve.curve_by_"):
            t["curve_self_s"] += own
            if counts:
                t["breakpoints"] += counts[0]
        elif name == "curve.assemble_curve":
            t["assemble_s"] += dur
        elif name == "curve.hull_extremes":
            t["hull_s"] += dur
        elif name == "binary.analyze":
            t["analyze_s"] += dur
        elif name == "binary.closed_form_curve":
            t["closed_s"] += dur
        elif name in ("binary.zero_perception_estimator", "binary.breakpoint_estimators"):
            if parent < 0:  # calls made by estimator_at count under estimator_at
                t["estimators_s"] += dur
        elif name == "binary.estimator_at":
            t["estimator_at_s"] += dur

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(total):  # counts divide exactly, so they repeat for any number of rounds
        return total / n_ops

    def ms(total_s):
        return 1000.0 * total_s / n_ops

    curve_solves = t["sample"] + t["endpoint"]
    return {
        "problemio.load_ms": load_ms,
        "lp.solve_calls": per_op(t["solve_calls"]),
        "lp.solve_ms": ms(t["solve_s"]),
        "lp.pivots": per_op(t["pivots"]),
        "lp.pivots_per_solve": ratio(t["pivots"], t["solve_calls"]),
        "lp.us_per_pivot": ratio(t["solve_s"] * 1e6, t["pivots"]),
        "lp.dropped_rows": per_op(t["dropped"]),
        "lp.enum_ms": ms(t["enum_s"]),
        "lp.enum_systems": per_op(t["systems"]),
        "lp.vertices": per_op(t["vertices"]),
        "lp.vertex_yield": ratio(t["vertices"], t["systems"]),
        "programs.solve_calls": per_op(t["dp_calls"]),
        "programs.build_ms": ms(t["build_s"]),
        "programs.post_ms": ms(t["post_s"]),
        "model.wasserstein1_calls": per_op(t["w1_calls"]),
        "model.wasserstein1_ms": ms(t["w1_s"]),
        "curve.self_ms": ms(t["curve_self_s"]),
        "curve.assemble_ms": ms(t["assemble_s"]),
        "curve.hull_ms": ms(t["hull_s"]),
        "curve.sample_solves": per_op(t["sample"]),
        "curve.endpoint_solves": per_op(t["endpoint"]),
        "curve.breakpoints": per_op(t["breakpoints"]),
        "curve.solves_per_breakpoint": ratio(curve_solves, t["breakpoints"]),
        "binary.analyze_ms": ms(t["analyze_s"]),
        "binary.closed_form_ms": ms(t["closed_s"]),
        "binary.estimators_ms": ms(t["estimators_s"]),
        "binary.estimator_at_ms": ms(t["estimator_at_s"]),
    }
