"""Benchmark of dptradeoff: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs the workload's fixed round of operations a whole number of times,
checks every output against an independent HiGHS formulation
(``reference.py``), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from spans that ``tracing.py`` records around the
calls into each module, written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: OpenBLAS would otherwise start a
# thread per core and compete with this single-client loop.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy's arrays: whether the host has free
# 2 MB pages at the moment would otherwise move the peak resident memory
# of one run by up to 12 MB.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import importlib
import json
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-ups per run, spread evenly over the run so that a slow spell of the
# machine touches only some of them.
SETUP_REPEATS = 9

# The metrics to report, with their units, are those BENCHMARK.json lists.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _is_package(name: str) -> bool:
    return name == "dptradeoff" or name.startswith("dptradeoff.")


def set_up(texts: list[str], keep: bool = True):
    """Import dptradeoff afresh and load every instance from its problem-file text.

    Returns the package, the problems, the set-up seconds and the
    loading seconds.  numpy is already imported and is not counted.
    Unless ``keep``, the modules imported before are put back afterwards,
    so that the operations keep running on the package they started on.
    """
    saved = {n: sys.modules.pop(n) for n in [n for n in sys.modules if _is_package(n)]}
    start = perf_counter()
    pkg = importlib.import_module("dptradeoff")
    problemio = importlib.import_module("dptradeoff.problemio")
    loading = perf_counter()
    problems = [problemio.instance_to_problem(problemio.parse_instance(t)) for t in texts]
    end = perf_counter()
    if not keep:
        for n in [n for n in sys.modules if _is_package(n)]:
            del sys.modules[n]
        sys.modules.update(saved)
    return pkg, problems, end - start, end - loading


def run_op(pkg, problem, op: workloads.Op):
    if op.kind == "sweep":
        return pkg.curve_by_sweep(problem)
    if op.kind == "vertex":
        return pkg.curve_by_vertices(problem)
    if op.kind == "solve":
        return pkg.solve_dp_at(problem, op.level, form=op.form)
    if op.kind == "binary":
        an = pkg.analyze(problem)
        curve = pkg.closed_form_curve(problem, an)
        zero = pkg.zero_perception_estimator(problem, an)
        at_breakpoints = pkg.breakpoint_estimators(problem, an)
        on_grid = [pkg.estimator_at(problem, an, p) for p in workloads.BINARY_GRID]
        return curve, zero, at_breakpoints, on_grid
    raise ValueError(f"unknown operation kind {op.kind!r}")


def fingerprint(op: workloads.Op, out) -> bytes:
    """Bytes of everything an output reports, to compare repeated rounds exactly."""
    if op.kind == "solve":
        parts = [np.float64(out.value), out.estimator.q]
    elif op.kind == "binary":
        curve, zero, at_breakpoints, on_grid = out
        parts = [curve.breakpoints, curve.segments, zero.q]
        parts += [np.float64(p) for p, _ in at_breakpoints] + [e.q for _, e in at_breakpoints]
        parts += [e.q for e in on_grid]
    else:
        parts = [out.curve.breakpoints, out.curve.segments]
        parts += [np.float64(p) for p, _ in out.estimators] + [e.q for _, e in out.estimators]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


def check(ref, op: workloads.Op, out) -> list[str]:
    """Reference check of one output; returns the failures found."""
    if op.kind == "solve":
        return ref.check_values([op.level], [out.value], "solve") + ref.check_estimators(
            [(out.estimator.q, op.level, out.value, "solve")])
    if op.kind == "binary":
        curve, zero, at_breakpoints, on_grid = out
        failures = ref.check_curve(curve, workloads.BINARY_GRID)
        supports = [(0.0, zero)] + list(at_breakpoints) + list(zip(workloads.BINARY_GRID, on_grid))
    else:
        curve = out.curve
        failures = ref.check_curve(curve)
        supports = list(out.estimators)
    return failures + ref.check_estimators(
        [(est.q, p, curve.value(p), f"estimator at {p:.6g}") for p, est in supports])


def median_estimate(values) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, with the weights of the
    Beta((n+1)/2, (n+1)/2) law over n equal bins.  The sample median rests
    on the one or two operations in the middle, so the host's noise on
    those decides it; this estimate spreads the weight over the operations
    near the middle.
    """
    from scipy.special import betainc  # after the timed loop, like the reference check

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ x)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dptradeoff", "__init__.py")):
        print(f"error: no dptradeoff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    instances, ops = workloads.build(args.workload, args.seed)
    n_rounds = workloads.rounds(args.workload, args.seconds)
    texts = [inst.text() for inst in instances]

    clock = speed.Clock()
    setup_s, load_s = [], []

    def measure_setup(keep: bool):
        mark = clock.calibrate()
        pkg, problems, total, loading = set_up(texts, keep)
        clock.calibrate()
        setup_s.append(clock.scaled(total, mark))
        load_s.append(loading)
        return pkg, problems

    pkg, problems = measure_setup(keep=True)
    if not os.path.dirname(pkg.__file__).startswith(SRC):
        print(f"error: imported dptradeoff from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    attempted = n_rounds * len(ops)
    setups_due = [i * attempted // SETUP_REPEATS for i in range(1, SETUP_REPEATS)]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    timed = [[] for _ in ops]  # each operation's (seconds, calibration mark), round by round
    done = [False] * len(ops)
    failed = 0
    errors: dict[str, str] = {}
    first: list = [None] * len(ops)  # each operation's first output, and its fingerprint
    first_print: list = [None] * len(ops)
    mismatched: set[int] = set()
    for r in range(n_rounds):
        for k, op in enumerate(ops):
            while setups_due and setups_due[0] <= r * len(ops) + k:
                setups_due.pop(0)
                measure_setup(keep=False)
            if tracer is not None:
                tracer.op = r * len(ops) + k
            mark = clock.mark()
            start = perf_counter()
            try:
                out = run_op(pkg, problems[op.instance], op)
            except Exception as exc:  # counted as a failed operation
                timed[k].append((perf_counter() - start, mark))
                failed += 1
                errors[f"{instances[op.instance].name} {op}"] = f"{type(exc).__name__}: {exc}"
                continue
            timed[k].append((perf_counter() - start, mark))
            done[k] = True
            if first[k] is None:
                first[k], first_print[k] = out, fingerprint(op, out)
            elif fingerprint(op, out) != first_print[k]:
                mismatched.add(k)
    clock.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the reference check runs after the timed loop, so scipy's import and
    # memory count in neither the timings nor the peak
    import reference

    failures = [f"{instances[ops[k].instance].name} {ops[k]}: output differs between rounds"
                for k in sorted(mismatched)]
    refs: dict[int, reference.Reference] = {}
    for k, op in enumerate(ops):
        if first[k] is None:
            continue
        if op.instance not in refs:
            refs[op.instance] = reference.Reference(*instances[op.instance].arrays())
        failures += [f"{instances[op.instance].name} {op}: {f}"
                     for f in check(refs[op.instance], op, first[k])]

    for what, why in errors.items():
        print(f"failed: {what}: {why}", file=sys.stderr)
    for f in failures:
        print(f"incorrect: {f}", file=sys.stderr)

    # an operation's time is its median over the rounds; throughput is the
    # operations a round completes over the sum of these times
    def throughput_and_p50(seconds_of):
        per_op = [statistics.median(seconds_of(t)) for t in timed]
        p50 = median_estimate([s for s, ok in zip(per_op, done) if ok])
        return sum(done) / sum(per_op), 1000.0 * p50

    ops_per_s, op_ms_p50 = throughput_and_p50(lambda t: [clock.scaled(s, mark) for s, mark in t])
    raw = throughput_and_p50(lambda t: [s for s, _ in t])
    print(f"unscaled: {raw[0]:.6g} ops/s, op p50 {raw[1]:.6g} ms; calibration kernel "
          f"{1000.0 * statistics.median(clock.kernel_s):.4g} ms (median of {len(clock.kernel_s)})",
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": ops_per_s,
            "op_ms_p50": op_ms_p50,
            "peak_rss_mb": peak_rss_mb,
        }
        listed = "end_to_end"
    else:
        import tracing

        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = tracing.per_layer(tracer.spans, attempted, 1000.0 * statistics.median(load_s))
        listed = "per_layer"
        print(f"traced: {ops_per_s:.6g} ops/s, op p50 {op_ms_p50:.6g} ms (scaled)", file=sys.stderr)

    with open(SPEC, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[listed]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
