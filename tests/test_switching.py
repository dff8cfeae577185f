"""Tests for the regime-switching layer.

The two-state constant chain with symmetric rate lam has
P(alpha_t = alpha_0) = (1 + exp(-2 lam t)) / 2 and expected occupancy time
of the initial state integral(0,t) of that, = t/2 + (1 - exp(-2 lam t)) / (4 lam).
Both constants below are frozen from those formulas at lam = t = 1.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import (
    DataError,
    PRMEventStream,
    RateMatrixSpec,
    SpecError,
    UnsupportedConfigError,
    constant_rates,
    longest_constant_interval,
    no_switching,
    partition_point,
    sigmoid_two_state,
    simulate_regime_events,
    simulate_regime_path,
    validate_rates,
)

P_SAME_STATE = 0.5676676416183064  # (1 + e^-2) / 2
E_OCCUPANCY = 0.7161661791954890  # 1/2 + (1 - e^-2) / 4

# hand matrix used for exact partition boundaries, bound 3
Q3 = np.array([[-3.0, 1.0, 2.0], [0.5, -0.5, 0.0], [1.0, 1.0, -2.0]])


def test_mark_space():
    spec = constant_rates(Q3, bound=3.0)
    assert spec.mark_space() == 18.0
    assert no_switching().mark_space() == 0.0


def test_partition_point_exact_boundaries():
    spec = constant_rates(Q3, bound=3.0)
    # from state 1: [0,1) -> 2, [1,3) -> 3, beyond -> stay
    assert partition_point(spec, None, 1, 0.0) == 2
    assert partition_point(spec, None, 1, 0.999999) == 2
    assert partition_point(spec, None, 1, 1.0) == 3
    assert partition_point(spec, None, 1, 2.9999) == 3
    assert partition_point(spec, None, 1, 3.0) == 1
    assert partition_point(spec, None, 1, 17.9) == 1
    # from state 2: [0,0.5) -> 1, empty interval for 3
    assert partition_point(spec, None, 2, 0.0) == 1
    assert partition_point(spec, None, 2, 0.499) == 1
    assert partition_point(spec, None, 2, 0.5) == 2
    # from state 3: [0,1) -> 1, [1,2) -> 2
    assert partition_point(spec, None, 3, 0.5) == 1
    assert partition_point(spec, None, 3, 1.0) == 2
    assert partition_point(spec, None, 3, 1.999) == 2
    assert partition_point(spec, None, 3, 2.0) == 3


def test_partition_point_rejects_bad_inputs():
    spec = constant_rates(Q3, bound=3.0)
    with pytest.raises(ValueError):
        partition_point(spec, None, 0, 0.5)
    with pytest.raises(ValueError):
        partition_point(spec, None, 4, 0.5)
    with pytest.raises(ValueError):
        partition_point(spec, None, 1, -0.1)
    with pytest.raises(ValueError):
        partition_point(spec, None, 1, 18.0)


@given(
    z=st.floats(min_value=0.0, max_value=18.0, exclude_max=True),
    i=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_partition_point_always_valid_state(z, i):
    spec = constant_rates(Q3, bound=3.0)
    j = partition_point(spec, None, i, z)
    assert 1 <= j <= 3
    # mark beyond the packed width sum(q_ij, j != i) must leave the state alone
    packed = float(Q3[i - 1].clip(min=0.0).sum())
    if z >= packed:
        assert j == i
    else:
        assert j != i


def test_rate_validation_catches_violations():
    with pytest.raises(SpecError):
        constant_rates([[-1.0, 1.0], [2.0, -2.0]], bound=1.5)  # 2 exceeds bound
    with pytest.raises(SpecError):
        constant_rates([[-1.0, 1.0], [-0.5, 0.5]])  # negative off-diagonal
    with pytest.raises(SpecError):
        constant_rates([[-1.0, 0.5], [1.0, -1.0]])  # row sum not zero
    spec = sigmoid_two_state(2.0, w=[1.0, 0.0])
    rep = validate_rates(spec, [np.zeros(2), np.ones(2), -np.ones(2)])
    assert rep.points_checked == 3
    assert rep.max_rowsum_residual < 1e-12


def test_sigmoid_rates_need_a_state():
    spec = sigmoid_two_state(2.0, w=[1.0])
    with pytest.raises(UnsupportedConfigError):
        spec.at(None)
    q = spec.at(np.array([0.0]))
    np.testing.assert_allclose(q, [[-1.0, 1.0], [1.0, -1.0]])


def test_sigmoid_rates_finite_at_extreme_states():
    # exp(-u) overflows for u < -709; the logistic must still saturate to 0 or 1 silently
    spec = sigmoid_two_state(2.0, w=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = spec.at(np.array([-800.0]))
        high = spec.at(np.array([800.0]))
    np.testing.assert_array_equal(low, [[0.0, 0.0], [2.0, -2.0]])
    np.testing.assert_array_equal(high, [[-2.0, 2.0], [0.0, 0.0]])


def test_event_stream_generation():
    ev = simulate_regime_events(2, 1.0, 3.0, seed=1)
    ev.validate()
    assert ev.rate == 2.0
    assert np.all(np.diff(ev.times) >= 0)
    assert simulate_regime_events(2, 1.0, 0.0, seed=1).times.size == 0
    assert simulate_regime_events(1, 1.0, 5.0, seed=1).times.size == 0
    with pytest.raises(ValueError):
        simulate_regime_events(2, 1.0, -1.0)
    # mean count: rate * horizon = 6
    counts = [simulate_regime_events(2, 1.0, 3.0, seed=k).times.size for k in range(4000)]
    assert abs(np.mean(counts) - 6.0) < 4 * np.std(counts) / math.sqrt(len(counts))


def test_event_stream_validate_rejects_corruption():
    ev = PRMEventStream(1.0, 2.0, np.array([0.5, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(DataError):
        ev.validate()
    ev = PRMEventStream(1.0, 2.0, np.array([0.5]), np.array([2.0]))
    with pytest.raises(DataError):
        ev.validate()


def test_regime_path_lookup_and_occupancy():
    path = simulate_regime_path(constant_rates(Q3, bound=3.0), 1, 4.0, seed=5)
    assert path.states[0] == 1 and path.times[0] == 0.0
    assert np.all(np.diff(path.times) > 0)
    assert set(np.unique(path.states)) <= {1, 2, 3}
    # states[k] holds on [times[k], times[k+1])
    for k in range(path.times.size - 1):
        assert path.state_at(path.times[k]) == path.states[k]
        mid = 0.5 * (path.times[k] + path.times[k + 1])
        assert path.state_at(mid) == path.states[k]
    total = sum(path.occupancy(s) for s in (1, 2, 3))
    assert total == pytest.approx(4.0, abs=1e-12)


def test_two_state_marginal_and_occupancy():
    spec = constant_rates([[-1.0, 1.0], [1.0, -1.0]])
    n = 40_000
    same = np.empty(n)
    occ = np.empty(n)
    for k in range(n):
        path = simulate_regime_path(spec, 1, 1.0, seed=k)
        same[k] = path.state_at(1.0) == 1
        occ[k] = path.occupancy(1)
    se_same = math.sqrt(P_SAME_STATE * (1 - P_SAME_STATE) / n)
    assert abs(same.mean() - P_SAME_STATE) < 4 * se_same
    se_occ = occ.std(ddof=1) / math.sqrt(n)
    assert abs(occ.mean() - E_OCCUPANCY) < 4 * se_occ


def test_state_dependent_path_requires_frozen_state():
    spec = sigmoid_two_state(2.0, w=[10.0])
    with pytest.raises(UnsupportedConfigError):
        simulate_regime_path(spec, 1, 1.0, seed=0)
    # frozen far in the positive tail: q12 ~ 2, q21 ~ 0, so state 2 absorbs
    path = simulate_regime_path(spec, 1, 50.0, seed=0, x=np.array([10.0]))
    assert path.states[-1] == 2
    assert np.sum(path.states == 2) == 1


def test_longest_interval_exact_cases():
    assert longest_constant_interval([], 2.0) == (0.0, 2.0)
    assert longest_constant_interval([0.5], 2.0) == (0.5, 2.0)
    # tie between [0, 1) and [1, 2): earliest wins
    assert longest_constant_interval([1.0], 2.0) == (0.0, 1.0)
    assert longest_constant_interval([0.2, 0.3, 1.4], 2.0) == (0.3, 1.4)
    with pytest.raises(DataError):
        longest_constant_interval([2.5], 2.0)
    with pytest.raises(DataError):
        longest_constant_interval([-0.1], 2.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_longest_interval_pigeonhole(times):
    start, end = longest_constant_interval(times, 1.0)
    assert 0.0 <= start <= end <= 1.0
    assert end - start >= 1.0 / (len(times) + 1) - 1e-12
    # endpoints come from the event set plus the window edges
    pts = set(times) | {0.0, 1.0}
    assert start in pts and end in pts
