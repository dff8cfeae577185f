"""State-dependent regime switching driven by a Poisson random measure.

Regimes live in {1, ..., m0}.  Switching events arrive as a Poisson stream
with rate m0*(m0-1)*K on [0, horizon]; each event carries a mark z uniform on
[0, m0*(m0-1)*K).  Given the current pair (x, i), the mark is matched against
consecutive half-open intervals, one per target state j != i in increasing j,
packed from 0 with lengths q_ij(x).  A mark inside the interval of j moves
the chain to j; a mark beyond the packed region leaves the state unchanged.
Rate callbacks must satisfy 0 <= q_ij <= K off the diagonal and zero row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, SpecError, UnsupportedConfigError
from .levy_noise import as_rng

ROW_SUM_TOL = 1e-9


@dataclass
class RateMatrixSpec:
    """Rate matrix q(x), shape (m0, m0), with global off-diagonal bound K."""

    m0: int
    bound: float
    matrix_fn: Callable[[np.ndarray | None], np.ndarray]
    state_dependent: bool = False

    def __post_init__(self):
        if self.m0 < 1:
            raise SpecError(f"state count must be at least 1, got {self.m0}")
        if self.m0 > 1 and self.bound <= 0:
            raise SpecError(f"rate bound must be positive, got {self.bound}")

    def mark_space(self) -> float:
        return self.m0 * (self.m0 - 1) * self.bound

    def at(self, x) -> np.ndarray:
        q = np.asarray(self.matrix_fn(x), dtype=float)
        if q.shape != (self.m0, self.m0):
            raise SpecError(f"rate matrix must have shape {(self.m0, self.m0)}, got {q.shape}")
        return q


def constant_rates(matrix, bound: float | None = None) -> RateMatrixSpec:
    q = np.asarray(matrix, dtype=float)
    m0 = q.shape[0]
    if bound is None:
        bound = float(np.abs(q).max()) if m0 > 1 else 1.0
        bound = max(bound, 1e-12)
    spec = RateMatrixSpec(m0=m0, bound=bound, matrix_fn=lambda x: q, state_dependent=False)
    if m0 > 1:
        validate_rates(spec, [None])
    return spec


def no_switching() -> RateMatrixSpec:
    return RateMatrixSpec(m0=1, bound=1.0, matrix_fn=lambda x: np.zeros((1, 1)))


def sigmoid_two_state(bound: float, w, b0: float = 0.0) -> RateMatrixSpec:
    """Two-state rates q12(x) = K s(w.x + b0), q21(x) = K s(-(w.x + b0)), s = logistic."""
    w = np.asarray(w, dtype=float)

    def fn(x):
        if x is None:
            raise UnsupportedConfigError("state-dependent rates need a state value")
        u = float(np.dot(w, np.asarray(x, dtype=float))) + b0
        with np.errstate(over="ignore"):  # exp(-u) = inf gives p = 0 exactly
            p = 1.0 / (1.0 + np.exp(-u))
        q12 = bound * p
        q21 = bound * (1.0 - p)
        return np.array([[-q12, q12], [q21, -q21]])

    return RateMatrixSpec(m0=2, bound=bound, matrix_fn=fn, state_dependent=True)


@dataclass
class RateValidationReport:
    max_offdiag_violation: float
    max_bound_violation: float
    max_rowsum_residual: float
    points_checked: int


def validate_rates(spec: RateMatrixSpec, xs, tol: float = ROW_SUM_TOL) -> RateValidationReport:
    """Check q(x) over probe points: off-diagonals in [0, K], rows summing to zero."""
    worst_neg = 0.0
    worst_bound = 0.0
    worst_row = 0.0
    count = 0
    for x in xs:
        q = spec.at(x)
        count += 1
        off = q[~np.eye(spec.m0, dtype=bool)]
        neg = float(max(0.0, -(off.min() if off.size else 0.0)))
        over = float(max(0.0, (np.abs(q).max() - spec.bound)))
        row = float(np.abs(q.sum(axis=1)).max())
        worst_neg = max(worst_neg, neg)
        worst_bound = max(worst_bound, over)
        worst_row = max(worst_row, row)
        if neg > tol:
            raise SpecError(f"negative off-diagonal rate {-neg} at x={x}")
        if over > tol:
            raise SpecError(f"rate magnitude exceeds bound {spec.bound} by {over} at x={x}")
        if row > tol:
            raise SpecError(f"rate rows must sum to zero, residual {row} at x={x}")
    return RateValidationReport(worst_neg, worst_bound, worst_row, count)


def partition_point(spec: RateMatrixSpec, x, i: int, z: float) -> int:
    """Map a mark z to the post-event state given (x, i).

    Target intervals for the current state are packed consecutively from 0 in
    increasing target order and are closed on the left, open on the right.
    """
    if not 1 <= i <= spec.m0:
        raise ValueError(f"state must lie in 1..{spec.m0}, got {i}")
    total = spec.mark_space()
    if not 0.0 <= z < total:
        raise ValueError(f"mark must lie in [0, {total}), got {z}")
    q = spec.at(x)
    left = 0.0
    for j in range(1, spec.m0 + 1):
        if j == i:
            continue
        width = q[i - 1, j - 1]
        if width < 0:
            raise SpecError(f"negative rate q[{i},{j}] = {width}")
        if left <= z < left + width:
            return j
        left += width
    return i


@dataclass
class PRMEventStream:
    """Event times and marks of the switching Poisson random measure."""

    horizon: float
    rate: float
    times: np.ndarray
    marks: np.ndarray

    def validate(self) -> None:
        if np.any(np.diff(self.times) < 0):
            raise DataError("event times must be sorted")
        if self.times.size and (self.times[0] < 0 or self.times[-1] > self.horizon):
            raise DataError("event times must lie in [0, horizon]")
        if np.any(self.marks < 0) or np.any(self.marks >= self.rate):
            raise DataError("marks must lie in [0, rate)")


def simulate_regime_events(
    m0: int, bound: float, horizon: float, seed=None
) -> PRMEventStream:
    """Poisson stream with rate m0*(m0-1)*bound and uniform marks; empty when horizon=0."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    rate = m0 * (m0 - 1) * bound
    rng = as_rng(seed)
    if horizon == 0 or rate == 0:
        return PRMEventStream(horizon, rate, np.empty(0), np.empty(0))
    count = rng.poisson(rate * horizon)
    times = np.sort(rng.uniform(0.0, horizon, count))
    marks = rng.uniform(0.0, rate, count)
    return PRMEventStream(horizon, rate, times, marks)


@dataclass
class RegimePath:
    """Piecewise-constant regime path: states[k] holds on [times[k], times[k+1])."""

    times: np.ndarray  # switch times, starting at 0
    states: np.ndarray
    horizon: float

    def state_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.states[idx])

    def occupancy(self, state: int) -> float:
        bounds = np.concatenate([self.times, [self.horizon]])
        mask = self.states == state
        return float(np.sum(np.diff(bounds)[mask]))


def simulate_regime_path(
    spec: RateMatrixSpec, alpha0: int, horizon: float, seed=None, x=None
) -> RegimePath:
    """Evolve the regime alone, valid when rates do not depend on the state x.

    For state-dependent rates the chain is only defined jointly with the
    diffusion; pass a frozen x to force evaluation at that point.
    """
    if spec.state_dependent and x is None:
        raise UnsupportedConfigError(
            "state-dependent rates cannot be simulated without the coupled path"
        )
    rng = as_rng(seed)
    events = simulate_regime_events(spec.m0, spec.bound, horizon, rng)
    times = [0.0]
    states = [alpha0]
    cur = alpha0
    for t, z in zip(events.times, events.marks):
        nxt = partition_point(spec, x, cur, z)
        if nxt != cur:
            times.append(float(t))
            states.append(nxt)
            cur = nxt
    return RegimePath(np.array(times), np.array(states, dtype=int), horizon)


def longest_constant_interval(event_times, horizon: float) -> tuple[float, float]:
    """Endpoints of the longest gap between consecutive events in [0, horizon].

    With k events the gap length is at least horizon / (k + 1); ties resolve
    to the earliest gap.
    """
    t = np.sort(np.asarray(event_times, dtype=float))
    if t.size and (t[0] < 0 or t[-1] > horizon):
        raise DataError("event times must lie in [0, horizon]")
    pts = np.concatenate([[0.0], t, [horizon]])
    gaps = np.diff(pts)
    k = int(np.argmax(gaps))
    return float(pts[k]), float(pts[k + 1])
