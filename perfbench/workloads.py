"""Instances and operation lists of the four workloads.

A workload is one round: a fixed list of operations over instances.  A
run repeats the round a whole number of times, so every run holds the
same operations in the same proportions and order.

Instance ``j`` of a shape is ``problemio.generate_instance(j, n_x, n_y,
random_distortion=True, ...)`` redrawn here without the package (so the
``j = 1`` instances are the ROADMAP baseline ones), with its joint law
then multiplied entrywise by ``1 + 1e-3 u``, ``u`` uniform on [-1, 1]
drawn from ``[--seed, j, n_x, n_y]``, and renormalized.  The jitter changes every
value the program computes, while the path it takes, and so the cost,
stays that of instance ``j``: unjittered draws of one shape differ in
cost by up to 2x (a 5x10 sweep takes 22 to 41 solves), which would move
a run's figures more than the benchmark's bounds allow.

Each operation is ``(kind, instance index, level, form)``; the kinds are
``sweep``, ``vertex``, ``solve`` and ``binary``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Approximate seconds of one round on a 2-core x86 virtual machine, one
# BLAS thread; a run repeats the round round(seconds / ROUND_SECONDS) times.
ROUND_SECONDS = {"sweep": 6.5, "vertex": 3.4, "levels": 4.0, "binary": 0.2}

# Relative size of the run seed's change to each joint law.
JITTER = 1e-3

# Levels at which the binary workload asks for ``estimator_at``.
BINARY_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

# The skewed-mass instance on which ``Estimator.cleaned`` rejects the
# solver's estimator at P = 0 in both program forms.
SKEWED_P_XY = [[0.3, 3e-11, 0.2], [0.2, 0.0, 0.3 - 3e-11]]


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    p_xy: np.ndarray
    distortion: np.ndarray | None  # None: Hamming
    metric: np.ndarray | None  # None: Hamming

    def text(self) -> str:
        """Problem-file text, as ``dp`` reads it."""
        spec = {"name": self.name, "p_xy": self.p_xy.tolist()}
        if self.distortion is not None:
            spec["distortion"] = self.distortion.tolist()
        if self.metric is not None:
            spec["metric"] = self.metric.tolist()
        return json.dumps(spec)

    def arrays(self):
        """``(p_xy, distortion, metric)`` with the Hamming defaults filled in."""
        hamming = 1.0 - np.eye(self.p_xy.shape[0])
        d = self.distortion if self.distortion is not None else hamming
        h = self.metric if self.metric is not None else hamming
        return self.p_xy, d, h


def draw(run_seed: int, j: int, n_x: int, n_y: int, *, random_metric: bool) -> Instance:
    """Instance ``j`` of a shape, jittered by the run's seed."""
    rng = np.random.default_rng(j)
    p = rng.uniform(0.0, 1.0, size=(n_x, n_y))
    p /= p.sum()
    d = rng.uniform(0.0, 1.0, size=(n_x, n_x))
    h = None
    if random_metric:
        h = rng.uniform(0.5, 1.0, size=(n_x, n_x))
        h = 0.5 * (h + h.T)
        np.fill_diagonal(h, 0.0)
    jitter = np.random.default_rng([run_seed, j, n_x, n_y])
    p = p * (1.0 + JITTER * jitter.uniform(-1.0, 1.0, size=p.shape))
    p /= p.sum()
    metric = "rm" if random_metric else "ham"
    return Instance(f"{n_x}x{n_y}-{metric}-{j}", p, d, h)


@dataclass(frozen=True)
class Op:
    kind: str
    instance: int
    level: float = 0.0
    form: str = "ot"


def _sweep(seed):
    # 24 5x10 curves hold the median; two 8x20 curves take a third of the time
    insts = [draw(seed, j, 5, 10, random_metric=j % 2 == 0) for j in range(1, 25)]
    insts += [draw(seed, 1, 8, 20, random_metric=rm) for rm in (False, True)]
    order = list(range(12)) + [24] + list(range(12, 24)) + [25]
    return insts, [Op("sweep", i) for i in order]


def _vertex(seed):
    # four operations, so that a run holds six rounds and each time is a median of six
    insts = [draw(seed, j, 2, 8, random_metric=j % 2 == 0) for j in range(1, 3)]
    insts += [draw(seed, j, 3, 4, random_metric=j % 2 == 0) for j in range(1, 3)]
    return insts, [Op("vertex", i) for i in range(len(insts))]


def _levels(seed):
    insts, ops = [], []
    for j in range(1, 19):  # 10x40 transport form, one level each: the median
        ops.append(Op("solve", len(insts), (0.3, 0.1, 0.0)[j % 3], "ot"))
        insts.append(draw(seed, j, 10, 40, random_metric=j % 2 == 0))
    for j in (1, 2):  # sign form: Hamming metric only
        ops += [Op("solve", len(insts), p, "tv") for p in (0.0, 0.05, 0.1, 0.2)]
        insts.append(draw(seed, j, 5, 10, random_metric=False))
    ops.append(Op("solve", len(insts), 0.1, "tv"))
    insts.append(draw(seed, 1, 8, 20, random_metric=False))
    ops.append(Op("solve", len(insts), 0.1, "ot"))
    insts.append(draw(seed, 1, 16, 64, random_metric=False))
    ops += [Op("solve", len(insts), 0.0, "ot"), Op("solve", len(insts), 0.0, "tv")]
    insts.append(Instance("skewed-2x3", np.asarray(SKEWED_P_XY), None, None))
    return insts, ops


def _binary(seed):
    insts = []
    for n_y, count in ((8, 4), (20, 4), (40, 4), (100, 4), (200, 1), (400, 1)):
        insts += [draw(seed, j, 2, n_y, random_metric=j % 2 == 0) for j in range(1, count + 1)]
    return insts, [Op("binary", i) for i in range(len(insts))]


_OPERATION_LISTS = {"sweep": _sweep, "vertex": _vertex, "levels": _levels, "binary": _binary}
WORKLOADS = tuple(_OPERATION_LISTS)


def build(workload: str, seed: int) -> tuple[list[Instance], list[Op]]:
    """Instances and the operation list of one round."""
    return _OPERATION_LISTS[workload](seed)


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))
