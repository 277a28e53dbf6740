"""Reference check of D(P) curves and estimators with scipy's HiGHS.

The program is written here from the raw problem arrays, without any
part of ``dptradeoff``.  Variables are the estimator ``q[xhat, y]`` and a
coupling ``pi[x, xhat]`` between the source marginal and the output
marginal; the perception budget is an inequality row:

    min  sum_{xhat, y} cost[xhat, y] q[xhat, y],   cost = d^T p_xy
    s.t. sum_xhat q[xhat, y] = 1                  for every y
         sum_xhat pi[x, xhat] = p_x[x]            for every x
         sum_x pi[x, xhat] = sum_y p_y[y] q[xhat, y]   for every xhat
         sum_{x, xhat} h[x, xhat] pi[x, xhat] <= P
         q, pi >= 0

The Wasserstein-1 perception of an estimator comes from a separate HiGHS
transport program between ``p_x`` and ``q p_y``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Absolute tolerance on distortion and perception values, which are of
# order one.  HiGHS runs with feasibility tolerances two orders tighter.
TOL = 1e-8
STOCHASTIC_TOL = 1e-9
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


# Programs of one instance at many levels are solved as one block-diagonal
# program of at most this many variables: its optimum is optimal in every
# block, and one HiGHS call costs less than many small ones.
_BLOCK_VARS = 20000


def _highs(c, a_eq, b_eq, a_ub=None, b_ub=None) -> np.ndarray:
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res.x


def _solve_blocks(c, a_eq, b_eqs, a_ub=None, b_ubs=None) -> np.ndarray:
    """Optimal values of ``min c.x, a_eq x = b_eq[k], a_ub x <= b_ub[k], x >= 0`` for every k."""
    n = c.size
    per_block = max(1, _BLOCK_VARS // n)
    out = []
    for lo in range(0, len(b_eqs), per_block):
        k = len(b_eqs[lo : lo + per_block])
        x = _highs(
            np.tile(c, k),
            sparse.block_diag([a_eq] * k, format="csr"),
            np.concatenate(b_eqs[lo : lo + k]),
            None if a_ub is None else sparse.block_diag([a_ub] * k, format="csr"),
            None if b_ubs is None else np.concatenate(b_ubs[lo : lo + k]),
        )
        out.append(x.reshape(k, n) @ c)
    return np.concatenate(out) if out else np.empty(0)


def _transport_rows(n: int, offset: int, n_vars: int):
    """Row-sum and column-sum constraint rows of an n x n plan stored at ``offset``."""
    cells = np.arange(n * n)
    rows = np.concatenate([cells // n, n + cells % n])
    cols = offset + np.concatenate([cells, cells])
    return sparse.csr_matrix((np.ones(2 * n * n), (rows, cols)), shape=(2 * n, n_vars))


class Reference:
    """D(P) and W1 of one instance, from its joint law, distortion and metric."""

    def __init__(self, p_xy, distortion, metric):
        self.p_xy = np.asarray(p_xy, dtype=float)
        self.d = np.asarray(distortion, dtype=float)
        self.h = np.asarray(metric, dtype=float)
        n_x, n_y = self.p_xy.shape
        self.n_x, self.n_y = n_x, n_y
        self.p_x = self.p_xy.sum(axis=1)
        self.p_y = self.p_xy.sum(axis=0)
        self.cost = self.d.T @ self.p_xy
        self.floor = float(self.cost.min(axis=0).sum())

        nq, npi = n_x * n_y, n_x * n_x
        n_vars = nq + npi
        xhat, y = np.divmod(np.arange(nq), n_y)
        stochastic = sparse.csr_matrix((np.ones(nq), (y, np.arange(nq))), shape=(n_y, n_vars))
        plan = _transport_rows(n_x, nq, n_vars)
        output = sparse.csr_matrix((-self.p_y[y], (xhat, np.arange(nq))), shape=(n_x, n_vars))
        self._a_eq = sparse.vstack(
            [stochastic, plan[:n_x], plan[n_x:] + output], format="csr"
        )
        self._b_eq = np.concatenate([np.ones(n_y), self.p_x, np.zeros(n_x)])
        self._c = np.concatenate([self.cost.ravel(), np.zeros(npi)])
        self._a_ub = sparse.csr_matrix(np.concatenate([np.zeros(nq), self.h.ravel()])[None, :])
        self._w1_a = _transport_rows(n_x, 0, npi)

    def values(self, levels) -> np.ndarray:
        """D at each level, by HiGHS."""
        levels = [np.array([float(p)]) for p in levels]
        return _solve_blocks(self._c, self._a_eq, [self._b_eq] * len(levels), self._a_ub, levels)

    def w1(self, outs) -> np.ndarray:
        """Transport distance from the source marginal to each output marginal, by HiGHS."""
        b = [np.concatenate([self.p_x, out / out.sum()]) for out in outs]
        return _solve_blocks(self.h.ravel(), self._w1_a, b)

    def check_values(self, levels, values, what: str) -> list[str]:
        """Agreement of reported values with HiGHS at each level."""
        failures = []
        for p, v, ref in zip(levels, values, self.values(levels)):
            if not abs(float(v) - ref) <= TOL:
                failures.append(f"{what}: D({p:.6g}) = {v!r}, HiGHS gives {ref!r}")
        return failures

    def check_curve(self, curve, extra_levels=()) -> list[str]:
        """Values, monotonicity, convexity and plateau of a whole curve.

        Levels checked: 0, 1, every breakpoint, the midpoint of every
        piece, and ``extra_levels``.  A convex function that matches a
        piecewise-linear curve at both ends and the midpoint of a piece
        is linear on that piece, so these levels pin the whole curve.
        """
        bps = np.asarray(curve.breakpoints, dtype=float)
        ends = np.concatenate([[0.0], bps, [1.0]])
        levels = np.unique(np.concatenate([ends, 0.5 * (ends[:-1] + ends[1:]), list(extra_levels)]))
        values = np.array([float(curve.value(float(p))) for p in levels])
        if not np.all(np.isfinite(values)):
            return ["curve has non-finite values"]
        failures = []
        if np.any(np.diff(values) > TOL):
            failures.append("curve increases somewhere")
        gaps = np.diff(levels)
        slopes = np.diff(values) / gaps
        # each pair of neighbouring slopes may fall by what a TOL error in
        # its own values allows, so a short piece loosens no other pair
        if np.any(np.diff(slopes) < -TOL * (1.0 / gaps[:-1] + 1.0 / gaps[1:])):
            failures.append("curve is not convex")
        if not abs(float(curve.d_star) - self.floor) <= TOL:
            failures.append(f"plateau {curve.d_star!r} differs from the floor {self.floor!r}")
        plateau = values[levels >= float(curve.p_star)]
        if not np.all(np.abs(plateau - self.floor) <= TOL):
            failures.append("curve is not at the floor beyond p_star")
        return failures + self.check_values(levels, values, "curve")

    def check_estimators(self, items) -> list[str]:
        """Each ``(q, level, value, what)``: column-stochastic, distortion
        equal to ``value``, and W1 perception at most ``level``."""
        failures, outs, kept = [], [], []
        for q, level, value, what in items:
            q = np.asarray(q, dtype=float)
            if q.shape != (self.n_x, self.n_y) or not np.all(np.isfinite(q)):
                failures.append(f"{what}: estimator has the wrong shape or non-finite entries")
                continue
            if np.any(q < -STOCHASTIC_TOL) or np.any(np.abs(q.sum(axis=0) - 1.0) > STOCHASTIC_TOL):
                failures.append(f"{what}: estimator is not column-stochastic")
            distortion = float(np.sum(self.cost * q))
            if not abs(distortion - value) <= TOL:
                failures.append(f"{what}: distortion {distortion!r} differs from the value {value!r}")
            outs.append(np.clip(q, 0.0, None) @ self.p_y)
            kept.append((level, what))
        for (level, what), perception in zip(kept, self.w1(outs)):
            if not perception <= level + TOL:
                failures.append(f"{what}: W1 perception {perception!r} exceeds the level {level!r}")
        return failures
