"""Core data model: channels, distortion, ground metrics, estimators, and
the elementary distortion/perception quantities built from them.

Notation
--------
A source symbol x is drawn jointly with an observation y; ``p_xy`` is the
joint probability matrix with rows indexed by the source alphabet (size
``n_x``) and columns by the observation alphabet (size ``n_y``).  A
randomized reconstruction rule is a column-stochastic matrix ``q`` whose
entry ``q[xhat, y]`` is the probability of emitting ``xhat`` after
observing ``y``.  Reconstructions are scored two ways:

* distortion: the expectation of an arbitrary nonnegative cost
  ``d[x, xhat]`` (no symmetry or zero diagonal assumed);
* perception: the Wasserstein-1 distance, under a ground metric ``h`` on
  the source alphabet, between the source marginal and the marginal of
  the reconstruction.  Under the Hamming metric this coincides with the
  total variation distance.

All arithmetic is double precision with explicit tolerances.  Types
validate on construction and are immutable afterwards, so instances are
safe to share across threads; the operations below are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ProblemError, SolverError

_MASS_TOL = 1e-12  # input probabilities and metric entries: sums, signs, zeros
_STOCHASTIC_TOL = 1e-10  # estimator column sums and coupling marginals


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ProblemError(f"{name} contains non-finite entries")


def check_level(p_level: float) -> None:
    """Raise ProblemError unless a perception level is finite and >= 0."""
    if not np.isfinite(p_level) or p_level < 0:
        raise ProblemError(f"perception level must be finite and >= 0, got {p_level!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector: nonnegative entries summing to one."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(_as_prob_vector(self.p)))

    def __len__(self) -> int:
        return self.p.size


def _as_prob_vector(dist, name: str = "distribution") -> np.ndarray:
    """A Distribution's vector, or a raw vector checked by the same rules."""
    if isinstance(dist, Distribution):
        return dist.p
    p = np.atleast_1d(np.asarray(dist, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise ProblemError(f"{name} must be a nonempty vector")
    _require_finite(p, name)
    if np.any(p < -_MASS_TOL):
        raise ProblemError(f"{name} has negative entry {p.min():g}")
    total = float(p.sum())
    if abs(total - 1.0) > _MASS_TOL:
        raise ProblemError(f"{name} sums to {total!r}, expected 1")
    return p


@dataclass(frozen=True, eq=False)
class JointChannel:
    """Joint law of (source, observation) as an ``n_x x n_y`` matrix.

    Every column must carry positive probability: observation symbols
    that can never occur are rejected rather than silently dropped,
    because re-indexing the observation alphabet would corrupt any
    user-supplied estimator matrices.
    """

    p_xy: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_xy, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ProblemError("joint matrix must be 2-D and nonempty")
        _require_finite(p, "joint matrix")
        if np.any(p < -_MASS_TOL):
            i, j = np.unravel_index(int(np.argmin(p)), p.shape)
            raise ProblemError(f"joint matrix entry ({i},{j}) is negative")
        total = float(p.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ProblemError(f"joint matrix sums to {total!r}, expected 1")
        col = p.sum(axis=0)
        dead = np.nonzero(col <= _MASS_TOL)[0]
        if dead.size:
            raise ProblemError(
                f"observation column {int(dead[0])} has zero probability; "
                "remove unused output symbols"
            )
        object.__setattr__(self, "p_xy", _readonly(p))

    @property
    def n_x(self) -> int:
        return self.p_xy.shape[0]

    @property
    def n_y(self) -> int:
        return self.p_xy.shape[1]

    @cached_property
    def p_x(self) -> np.ndarray:
        return _readonly(self.p_xy.sum(axis=1))

    @cached_property
    def p_y(self) -> np.ndarray:
        return _readonly(self.p_xy.sum(axis=0))


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Arbitrary nonnegative finite cost matrix ``d[x, xhat]``."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
            raise ProblemError("distortion matrix must be square and nonempty")
        _require_finite(d, "distortion matrix")
        if np.any(d < 0):
            raise ProblemError("distortion matrix has a negative entry")
        object.__setattr__(self, "d", _readonly(d))

    @classmethod
    def hamming(cls, n: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(n))

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True, eq=False)
class GroundMetric:
    """A metric on the source alphabet with values in [0, 1].

    Axioms (zero diagonal, symmetry, positivity off the diagonal, the
    triangle inequality) are checked at load time; the O(n^3) triangle
    check is cheap at the target scale and prevents meaningless
    transport values downstream.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
            raise ProblemError("metric matrix must be square and nonempty")
        _require_finite(h, "metric")
        if np.any(np.abs(np.diag(h)) > _MASS_TOL):
            raise ProblemError("metric diagonal must be zero")
        if np.any(np.abs(h - h.T) > _MASS_TOL):
            raise ProblemError("metric must be symmetric")
        if np.any(h < -_MASS_TOL) or np.any(h > 1.0 + _MASS_TOL):
            raise ProblemError(
                "metric entries must lie in [0, 1]; rescale the metric and "
                "the perception level jointly"
            )
        n = h.shape[0]
        if n > 1:
            off = h[~np.eye(n, dtype=bool)]
            if np.any(off <= _MASS_TOL):
                raise ProblemError("metric must be positive off the diagonal")
        # min_j (h[i,j] + h[j,k]) >= h[i,k] for all i, k
        via = np.min(h[:, :, None] + h[None, :, :], axis=1)
        if np.any(via < h - 1e-9):
            i, k = np.unravel_index(int(np.argmin(via - h)), h.shape)
            raise ProblemError(
                f"metric violates the triangle inequality at pair ({i},{k})"
            )
        object.__setattr__(self, "h", _readonly(h))

    @classmethod
    def hamming(cls, n: int) -> "GroundMetric":
        return cls(1.0 - np.eye(n))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def is_hamming(self) -> bool:
        return bool(np.all(np.abs(self.h - (1.0 - np.eye(self.n))) <= _MASS_TOL))


@dataclass(frozen=True, eq=False)
class Estimator:
    """Column-stochastic reconstruction matrix ``q[xhat, y]``."""

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)  # its own copy
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise ProblemError("estimator must be a 2-D matrix")
        _check_estimators(q[None])
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @classmethod
    def deterministic(cls, assignment, n_x: int) -> "Estimator":
        """Point-mass estimator mapping observation j to assignment[j]."""
        raw = np.asarray(assignment)
        if raw.ndim != 1 or not np.all((raw >= 0) & (raw < n_x) & (raw == np.floor(raw))):
            raise ProblemError(f"assignments must be integers in [0, {n_x})")
        assignment = raw.astype(int)
        q = np.zeros((n_x, assignment.size))
        q[assignment, np.arange(assignment.size)] = 1.0
        return cls(q)

    @property
    def n_x(self) -> int:
        return self.q.shape[0]

    @property
    def n_y(self) -> int:
        return self.q.shape[1]


def _check_estimators(q: np.ndarray) -> None:
    """Raise ProblemError unless every block of a stack ``q[k, xhat, y]`` is an estimator.

    A NaN, -inf or negative entry fails the min before any column is
    summed, and a +inf entry its column's sum; only a rejected stack is
    diagnosed entry by entry, with a single estimator's message.  The
    column sums are judged by their extremes, so the only temporary is
    the sums themselves.
    """
    with np.errstate(over="ignore"):  # finite entries may sum to inf
        ok = not q.size or (
            q.min() >= -_MASS_TOL
            and (colsum := q.sum(axis=1)).max() - 1.0 <= _STOCHASTIC_TOL
            and 1.0 - colsum.min() <= _STOCHASTIC_TOL
        )
    if not ok:
        _require_finite(q, "estimator")
        if np.any(q < -_MASS_TOL):
            raise ProblemError("estimator has a negative entry")
        bad = np.abs(colsum - 1.0) > _STOCHASTIC_TOL
        k, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ProblemError(f"estimator column {j} sums to {colsum[k, j]!r}, expected 1")


def _estimator_stack(q: np.ndarray) -> list[Estimator]:
    """The estimators of a freshly built stack ``q[k, xhat, y]``, checked once.

    The caller hands ``q`` over: it is marked read-only in place, not
    copied, and each estimator's ``q`` is one of its blocks.
    """
    _check_estimators(q)
    q.setflags(write=False)
    out = []
    for block in q:
        est = object.__new__(Estimator)
        object.__setattr__(est, "q", block)
        out.append(est)
    return out


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint pmf with prescribed marginals (transport plan)."""

    pi: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        row = _as_prob_vector(self.row_marginal, "row marginal")
        col = _as_prob_vector(self.col_marginal, "column marginal")
        if pi.shape != (row.size, col.size):
            raise ProblemError("coupling shape does not match its marginals")
        _require_finite(pi, "coupling")
        if np.any(pi < -_MASS_TOL):
            raise ProblemError("coupling has a negative entry")
        if np.max(np.abs(pi.sum(axis=1) - row)) > _STOCHASTIC_TOL:
            raise ProblemError("coupling row sums do not match the marginal")
        if np.max(np.abs(pi.sum(axis=0) - col)) > _STOCHASTIC_TOL:
            raise ProblemError("coupling column sums do not match the marginal")
        object.__setattr__(self, "pi", _readonly(pi))
        object.__setattr__(self, "row_marginal", _readonly(row))
        object.__setattr__(self, "col_marginal", _readonly(col))


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def cost_matrix(channel: JointChannel, distortion: DistortionMatrix) -> np.ndarray:
    """Output-weighted reconstruction cost, entry (xhat, y).

    ``cost[xhat, y] = sum_x d[x, xhat] p[x, y]``, i.e. the probability of
    observing y times the conditional expected cost of reconstructing it
    as xhat.  This is the objective matrix of every program below.
    """
    return distortion.d.T @ channel.p_xy


def conditional_cost(channel: JointChannel, distortion: DistortionMatrix) -> np.ndarray:
    """Conditional expected cost E[d(X, xhat) | Y = y], entry (xhat, y)."""
    return cost_matrix(channel, distortion) / channel.p_y[None, :]


def expected_distortion(
    channel: JointChannel, distortion: DistortionMatrix, estimator: Estimator
) -> float:
    """Mean cost of an estimator: the Frobenius inner product cost . q."""
    if estimator.q.shape != (distortion.n, channel.n_y):
        raise ProblemError("estimator shape does not match the problem")
    return float(np.sum(cost_matrix(channel, distortion) * estimator.q))


def posterior_sampling(channel: JointChannel) -> Estimator:
    """The estimator that redraws the source from its posterior.

    Its output marginal reproduces the source marginal, so it is feasible
    at every perception level, including zero.
    """
    return Estimator(channel.p_xy / channel.p_y[None, :])


def minimum_distortion(
    channel: JointChannel, distortion: DistortionMatrix
) -> tuple[float, Estimator]:
    """Unconstrained floor of the expected distortion and a greedy optimum.

    The floor is the sum over observations of the cheapest reconstruction
    cost; the greedy estimator deterministically picks, per column, the
    lowest-index minimizer (ties break toward the smaller index so output
    is reproducible).
    """
    cost = cost_matrix(channel, distortion)
    picks = np.argmin(cost, axis=0)
    value = float(cost[picks, np.arange(channel.n_y)].sum())
    return value, Estimator.deterministic(picks, channel.n_x)


def output_distribution(estimator: Estimator, p_y) -> Distribution:
    """Marginal of the reconstruction: q matrix applied to the observation law.

    An estimator's columns may sum to 1 within ``_STOCHASTIC_TOL``, looser
    than a distribution's ``_MASS_TOL``, so the product is renormalized.
    """
    p = _as_prob_vector(p_y, "observation marginal")
    if estimator.n_y != p.size:
        raise ProblemError("estimator width does not match the marginal")
    out = estimator.q @ p
    return Distribution(out / out.sum())


def tv_distance(p, q) -> float:
    """Total variation distance: half the L1 distance between two pmfs."""
    pv = _as_prob_vector(p, "first distribution")
    qv = _as_prob_vector(q, "second distribution")
    if pv.size != qv.size:
        raise ProblemError("distributions have different lengths")
    return 0.5 * float(np.abs(pv - qv).sum())


def _flow_plan(p, r, n_nodes: int, tail, head, flow) -> np.ndarray:
    """A transport plan from ``p`` to ``r``, read off arc flows that turn one into the other.

    Nodes are the ``p.size`` symbols, then any node without mass; arc k
    carries ``flow[k]`` from ``tail[k]`` to ``head[k]``.  The mass that
    passes node j is ``T[j] = p[j] + in(j)``; a share ``flow / T[j]`` of
    it moves on along each arc out of j and ``r[j] / T[j]`` stops there.
    Symbol i's mass passes node j as ``X[i, j]``, where ``X = diag(p) (I
    - diag(1 / T) F)^-1`` for the flow matrix F, so ``X[i, j] r[j] /
    T[j]`` of it ends at j.  No unit ends farther than its route's
    weight, so under a metric the plan costs at most the flow's weight.
    """
    n_x = p.size
    flows = np.zeros((n_nodes, n_nodes))
    flows[tail, head] = np.clip(flow, 0.0, None)
    supply = np.zeros(n_nodes)
    supply[:n_x] = p
    through = supply + flows.sum(axis=0)
    share = np.divide(flows, through[:, None], out=np.zeros_like(flows), where=through[:, None] > 0)
    passes = np.linalg.solve((np.eye(n_nodes) - share).T, np.diag(supply)).T
    stops = np.divide(r, through[:n_x], out=np.zeros(n_x), where=through[:n_x] > 0)
    return passes[:n_x, :n_x] * stops


def wasserstein1(p, q, metric: GroundMetric) -> tuple[float, Coupling]:
    """Minimal transport cost between two pmfs under a ground metric.

    Solves the Kantorovich-Rubinstein form with the simplex core: flows
    on every ordered pair of distinct symbols, of weight ``h[i, j]``, with
    node rows ``out(i) - in(i) = p[i] - q[i]`` (phase one drops the one
    that depends on the others).  Returns the coupling read off the
    optimal flow by ``solve_dp_at``'s rule and, as the value, its cost
    ``sum(pi * h)``, which is the flow's weight up to rounding and the
    triangle check's allowance.
    """
    from . import lp  # deferred: lp has no model dependency

    pv = _as_prob_vector(p, "first distribution")
    qv = _as_prob_vector(q, "second distribution")
    n = pv.size
    if qv.size != n or metric.n != n:
        raise ProblemError("marginals and metric must share one alphabet")
    if n == 1:  # no arcs
        return 0.0, Coupling(np.ones((1, 1)), pv, qv)

    tail, head = np.nonzero(~np.eye(n, dtype=bool))
    nodes = np.arange(n)[:, None]
    a = (nodes == tail) - (nodes == head).astype(float)  # node-arc incidence
    sol = lp.solve(lp.StandardLP(a, pv - qv, metric.h[tail, head]))
    if sol.status != "optimal":
        raise SolverError(f"transport program ended with status {sol.status}")
    plan = _flow_plan(pv, qv, n, tail, head, sol.x)
    return float(np.sum(plan * metric.h)), Coupling(plan, pv, qv)


# ---------------------------------------------------------------------------
# Validated problem handle
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Problem:
    """A validated (channel, distortion, metric) triple with cached data."""

    channel: JointChannel
    distortion: DistortionMatrix
    metric: GroundMetric

    def __post_init__(self):
        n_x = self.channel.n_x
        if self.distortion.n != n_x:
            raise ProblemError(
                f"distortion matrix is {self.distortion.n}x{self.distortion.n}, "
                f"expected {n_x}x{n_x}"
            )
        if self.metric.n != n_x:
            raise ProblemError(
                f"metric is {self.metric.n}x{self.metric.n}, expected {n_x}x{n_x}"
            )

    @property
    def n_x(self) -> int:
        return self.channel.n_x

    @property
    def n_y(self) -> int:
        return self.channel.n_y

    @property
    def is_binary(self) -> bool:
        return self.n_x == 2

    @cached_property
    def p_x(self) -> np.ndarray:
        return self.channel.p_x

    @cached_property
    def p_y(self) -> np.ndarray:
        return self.channel.p_y

    @cached_property
    def cost(self) -> np.ndarray:
        return _readonly(cost_matrix(self.channel, self.distortion))

    @cached_property
    def conditional(self) -> np.ndarray:
        return _readonly(conditional_cost(self.channel, self.distortion))

    @cached_property
    def minimum(self) -> tuple[float, Estimator]:
        return minimum_distortion(self.channel, self.distortion)

    @property
    def distortion_floor(self) -> float:
        return self.minimum[0]

    def expected_distortion(self, estimator: Estimator) -> float:
        return expected_distortion(self.channel, self.distortion, estimator)

    def posterior_sampling(self) -> Estimator:
        return posterior_sampling(self.channel)

    def perception_of(self, estimator: Estimator) -> tuple[float, Coupling]:
        """Transport distance between the source marginal and the output."""
        out = output_distribution(estimator, self.p_y)
        return wasserstein1(self.p_x, out, self.metric)


def validate_problem(
    channel: JointChannel, distortion: DistortionMatrix, metric: GroundMetric
) -> Problem:
    """Check dimensional consistency and return a cached problem handle.

    Type-level invariants (normalization, metric axioms, positive output
    columns) are enforced by the component constructors; this adds the
    cross-checks between them.
    """
    return Problem(channel, distortion, metric)


def make_problem(p_xy, distortion=None, metric=None) -> Problem:
    """Convenience builder from raw arrays; costs and metric default to Hamming."""
    channel = JointChannel(p_xy)
    n = channel.n_x
    d = DistortionMatrix(distortion) if distortion is not None else DistortionMatrix.hamming(n)
    h = GroundMetric(metric) if metric is not None else GroundMetric.hamming(n)
    return validate_problem(channel, d, h)
