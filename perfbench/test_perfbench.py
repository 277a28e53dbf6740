"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root.

Runs a one-second version of every workload, traced and untraced, and
confirms that the reference check rejects wrong answers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    _, ops = workloads.build(workload, 5)
    rounds = workloads.rounds(workload, 1)
    assert result["attempted"] == rounds * len(ops)
    # the only failures are the two skewed-mass solves of the levels workload
    assert result["failed"] == (2 * rounds if workload == "levels" else 0), proc.stderr
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("binary", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def solved():
    from dptradeoff import problemio, curve_by_sweep

    inst = workloads.draw(5, 1, 3, 6, random_metric=True)
    problem = problemio.instance_to_problem(problemio.parse_instance(inst.text()))
    return reference.Reference(*inst.arrays()), curve_by_sweep(problem)


class _Shifted:
    """A curve whose value at one level is moved by ``delta``."""

    def __init__(self, curve, level, delta):
        self._curve, self._level, self._delta = curve, level, delta
        self.breakpoints, self.p_star, self.d_star = curve.breakpoints, curve.p_star, curve.d_star

    def value(self, p):
        return self._curve.value(p) + (self._delta if p == self._level else 0.0)


def test_reference_accepts_the_package(solved):
    ref, report = solved
    assert report.curve.breakpoints.size >= 2
    assert ref.check_curve(report.curve) == []
    items = [(e.q, p, report.curve.value(p), "") for p, e in report.estimators]
    assert ref.check_estimators(items) == []


def test_reference_rejects_a_perturbed_value(solved):
    ref, report = solved
    level = float(report.curve.breakpoints[0])
    failures = ref.check_curve(_Shifted(report.curve, level, 1e-6))
    assert any(f.startswith(f"curve: D({level:.6g})") and "HiGHS gives" in f for f in failures)


def test_reference_rejects_perception_over_the_level(solved):
    ref, report = solved
    p, est = report.estimators[-1]  # optimal at the last breakpoint, not below it
    failures = ref.check_estimators([(est.q, 0.5 * p, float(np.sum(ref.cost * est.q)), "e")])
    assert len(failures) == 1 and "exceeds the level" in failures[0]
