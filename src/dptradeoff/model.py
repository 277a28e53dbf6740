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

from . import lp
from .errors import ProblemError

_MASS_TOL = 1e-12  # mass: slack of the sums and signs of probabilities, and a column's least mass
_STOCHASTIC_TOL = 1e-10  # mass: estimator column sums and coupling marginals
_METRIC_TOL = 1e-12  # metric: entry-wise slack of the axioms, but the triangle's, and of Hamming
_TRIANGLE_TOL = 1e-9  # metric: how far a pair's entry may exceed its shortest detour


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ProblemError(f"{name} contains non-finite entries")


def check_level(p_level: float) -> None:
    """Raise ProblemError unless a perception level is a finite scalar >= 0."""
    finite = np.isfinite(p_level)
    if not isinstance(finite, np.bool_):  # a ufunc gives an array only for an array of levels
        raise ProblemError(f"perception level must be a scalar, got {np.asarray(p_level).tolist()}")
    if not finite or p_level < 0:
        raise ProblemError(f"perception level must be finite and >= 0, got {float(p_level)!r}")


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
    if (least := p.min()) < -_MASS_TOL:
        raise ProblemError(f"{name} has negative entry {least:g}")
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
    user-supplied estimator matrices.  Entries in [-1e-12, 0) are set
    to 0 before the sums are checked, so the channel holds what passed.
    """

    p_xy: np.ndarray

    def __post_init__(self):
        p = np.array(self.p_xy, dtype=float)  # its own copy, zeroed below
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ProblemError("joint matrix must be 2-D and nonempty")
        _require_finite(p, "joint matrix")
        if np.any(p < -_MASS_TOL):
            i, j = np.unravel_index(int(np.argmin(p)), p.shape)
            raise ProblemError(f"joint matrix entry ({i},{j}) is negative")
        p[p < 0.0] = 0.0
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
    transport values downstream.  A diagonal within 1e-12 of 0 is set to
    exactly 0, so no transport cost is negative.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)  # its own copy, its diagonal zeroed below
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
            raise ProblemError("metric matrix must be square and nonempty")
        _require_finite(h, "metric")
        if np.any(np.abs(np.diag(h)) > _METRIC_TOL):
            raise ProblemError("metric diagonal must be zero")
        np.fill_diagonal(h, 0.0)
        if np.any(np.abs(h - h.T) > _METRIC_TOL):
            raise ProblemError("metric must be symmetric")
        if np.any(h < -_METRIC_TOL) or np.any(h > 1.0 + _METRIC_TOL):
            raise ProblemError(
                "metric entries must lie in [0, 1]; rescale the metric and "
                "the perception level jointly"
            )
        if np.any(h[~np.eye(h.shape[0], dtype=bool)] <= _METRIC_TOL):
            raise ProblemError("metric must be positive off the diagonal")
        # min_j (h[i,j] + h[j,k]) >= h[i,k] for all i, k
        via = np.min(h[:, :, None] + h[None, :, :], axis=1)
        if np.any(via < h - _TRIANGLE_TOL):
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
        return bool((abs(self.h - (1.0 - np.eye(self.n))) <= _METRIC_TOL).all())


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
        if q.min() < -_MASS_TOL:
            raise ProblemError("estimator has a negative entry")
        bad = np.abs(colsum - 1.0) > _STOCHASTIC_TOL
        k, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ProblemError(f"estimator column {j} sums to {float(colsum[k, j])!r}, expected 1")


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
        if pi.min() < -_MASS_TOL:
            raise ProblemError("coupling has a negative entry")
        if abs(pi.sum(axis=1) - row).max() > _STOCHASTIC_TOL:
            raise ProblemError("coupling row sums do not match the marginal")
        if abs(pi.sum(axis=0) - col).max() > _STOCHASTIC_TOL:
            raise ProblemError("coupling column sums do not match the marginal")
        object.__setattr__(self, "pi", _readonly(pi))
        object.__setattr__(self, "row_marginal", _readonly(row))
        object.__setattr__(self, "col_marginal", _readonly(col))


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

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


def _staircase(supply: list, demand: list) -> list[tuple[int, int]]:
    """The north-west-corner staircase from ``supply`` to ``demand``, as (i, j) cells.

    It ships ``min(supply[i], demand[j])`` at each cell and moves on from
    the side that is used up (from i on a tie, unless i is the last), so
    ``len(supply) + len(demand) - 1`` cells carry equal totals with no
    negative shipment.  The cells form a spanning tree of the two sides,
    hence a basis of the transport rows (Bertsimas and Tsitsiklis,
    chapter 7), primal feasible where the totals agree.
    """
    supply, demand = list(supply), list(demand)
    cells, i, j = [], 0, 0
    for _ in range(len(supply) + len(demand) - 1):
        cells.append((i, j))
        t = min(supply[i], demand[j])
        supply[i] -= t
        demand[j] -= t
        if (supply[i] <= demand[j] and i < len(supply) - 1) or j == len(demand) - 1:
            i += 1
        else:
            j += 1
    return cells


def _arc_place(n_nodes: int, tail, head, i, j):
    """The place of arc ``i -> j``, or of each arc of arrays ``i`` and ``j``, in
    the arc list ``tail[k] -> head[k]`` over ``n_nodes`` nodes: the one rule for
    an arc's column.  KeyError for an arc the list lacks or a node out of range."""
    place = np.full((n_nodes, n_nodes), -1)
    place[tail, head] = np.arange(len(tail))
    try:
        k = place.ravel()[np.ravel_multi_index((i, j), place.shape)]
    except ValueError:  # a node out of range
        raise KeyError((i, j)) from None
    if (k < 0).any():
        raise KeyError((i, j))
    return k


def _transfer_tree(p: list, r: list) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the ``len(p) - 1`` arcs of a spanning tree whose flow turns ``p`` into ``r``.

    The symbols split into the surplus (``p >= r``; a symbol with
    ``p == r`` joins with zero mass) and the deficit; if a side is empty,
    the two agree up to rounding and the last symbol alone forms the
    deficit side.  The arcs are the staircase from the surplus to the
    deficit, so the flow moves exactly the total variation.
    """
    src = [i for i in range(len(p)) if p[i] >= r[i]]
    dst = [i for i in range(len(p)) if p[i] < r[i]]
    if not src or not dst:  # the two agree up to rounding: any split spans
        src, dst = list(range(len(p) - 1)), [len(p) - 1]
    cells = _staircase([max(p[i] - r[i], 0.0) for i in src], [max(r[j] - p[j], 0.0) for j in dst])
    return np.array([(src[a], dst[b]) for a, b in cells], dtype=np.intp).reshape(-1, 2).T


def wasserstein1(p, q, metric: GroundMetric) -> tuple[float, Coupling]:
    """Minimal transport cost between two pmfs under a ground metric.

    Solves the Kantorovich-Rubinstein form with the simplex core: flows
    on every ordered pair of distinct symbols, of weight ``h[i, j]``, with
    node rows ``out(i) - in(i) = p[i] - q[i]`` but the last symbol's,
    which is minus the sum of the others, from the primal feasible tree
    ``_transfer_tree(p, q)``, whose columns ``_arc_place`` reads off the
    arc list.  Returns the coupling read off the optimal flow by
    ``solve_dp_at``'s rule and, as the value, its cost ``sum(pi * h)``,
    which is the flow's weight up to rounding and the triangle check's
    allowance.
    """
    pv = _as_prob_vector(p, "first distribution")
    qv = _as_prob_vector(q, "second distribution")
    n = pv.size
    if qv.size != n or metric.n != n:
        raise ProblemError("marginals and metric must share one alphabet")
    if n == 1:  # no arcs
        return 0.0, Coupling(np.ones((1, 1)), pv, qv)

    tail, head = np.nonzero(~np.eye(n, dtype=bool))
    nodes = np.arange(n - 1)[:, None]
    a = (nodes == tail) - (nodes == head).astype(float)  # node-arc incidence
    start = np.sort(_arc_place(n, tail, head, *_transfer_tree(pv.tolist(), qv.tolist())))
    sol = lp.solve(lp.StandardLP(a, (pv - qv)[:-1], metric.h[tail, head]), start)
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
        """Output-weighted reconstruction cost, entry (xhat, y).

        ``cost[xhat, y] = sum_x d[x, xhat] p[x, y]``, i.e. the probability of
        observing y times the conditional expected cost of reconstructing it
        as xhat.  This is the objective matrix of every program.
        """
        return _readonly(self.distortion.d.T @ self.channel.p_xy)

    @cached_property
    def conditional(self) -> np.ndarray:
        """Conditional expected cost E[d(X, xhat) | Y = y], entry (xhat, y)."""
        return _readonly(self.cost / self.p_y[None, :])

    @cached_property
    def minimum(self) -> tuple[float, Estimator]:
        """Unconstrained floor of the expected distortion and a greedy optimum.

        The floor is the sum over observations of the cheapest reconstruction
        cost; the greedy estimator deterministically picks, per column, the
        lowest-index minimizer (ties break toward the smaller index so output
        is reproducible).
        """
        picks = np.argmin(self.cost, axis=0)
        value = float(self.cost[picks, np.arange(self.n_y)].sum())
        return value, Estimator.deterministic(picks, self.n_x)

    @property
    def distortion_floor(self) -> float:
        return self.minimum[0]

    def expected_distortion(self, estimator: Estimator) -> float:
        """Mean cost of an estimator: the Frobenius inner product cost . q."""
        if estimator.q.shape != self.cost.shape:
            raise ProblemError("estimator shape does not match the problem")
        return float(np.sum(self.cost * estimator.q))

    def perception_of(self, estimator: Estimator) -> tuple[float, Coupling]:
        """Transport distance between the source marginal and the output."""
        out = output_distribution(estimator, self.p_y)
        return wasserstein1(self.p_x, out, self.metric)


def make_problem(p_xy, distortion=None, metric=None) -> Problem:
    """Convenience builder from raw arrays; costs and metric default to Hamming."""
    channel = JointChannel(p_xy)
    n = channel.n_x
    d = DistortionMatrix(distortion) if distortion is not None else DistortionMatrix.hamming(n)
    h = GroundMetric(metric) if metric is not None else GroundMetric.hamming(n)
    return Problem(channel, d, h)
