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
    LevyMeasureSpec,
    RateMatrixSpec,
    SpecError,
    UnsupportedConfigError,
    batch_flows,
    constant_rates,
    make_linear,
    no_switching,
    partition_point,
    sample_batch_noise,
    sigmoid_two_state,
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


def _loop_rule(q, i, z):
    """The mark rule read off q interval by interval: the reference."""
    left = 0.0
    for j in range(1, q.shape[0] + 1):
        if j == i:
            continue
        if left <= z < left + q[i - 1, j - 1]:
            return j
        left += q[i - 1, j - 1]
    return i


@pytest.mark.parametrize("state_dependent", [False, True], ids=["summed_once", "per_call"])
def test_partition_point_lookup_matches_the_loop_rule(state_dependent):
    # marks are looked up in interval ends, summed once per spec for
    # state-independent rates and per call otherwise: three regimes, the
    # zero-width interval 2 -> 3 and the stay region
    spec = RateMatrixSpec(3, 3.0, lambda x: Q3, state_dependent=state_dependent)
    rng = np.random.default_rng(12)
    marks = np.concatenate([rng.uniform(0.0, 3.5, 3000), rng.uniform(0.0, 18.0, 1000),
                            [0.0, 0.5, 1.0, 2.0, 3.0, np.nextafter(1.0, 0.0)]])
    for i in (1, 2, 3):
        got = [partition_point(spec, None, i, z) for z in marks]
        assert got == [_loop_rule(Q3, i, z) for z in marks]
        assert set(got) == ({1, 2, 3} if i != 2 else {1, 2})


def test_partition_point_negative_width_raises_where_the_loop_does():
    # a negative width raises once the mark passes the intervals before it,
    # with the same error for state-independent and state-dependent rates
    q = np.array([[-0.5, 1.0, -0.5], [0.5, -0.5, 0.0], [1.0, 1.0, -2.0]])
    for state_dependent in (False, True):
        spec = RateMatrixSpec(3, 3.0, lambda x: q, state_dependent=state_dependent)
        assert partition_point(spec, None, 1, 0.5) == 2
        with pytest.raises(SpecError, match=r"negative rate q\[1,3\] = -0.5"):
            partition_point(spec, None, 1, 1.5)


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


def test_two_state_marginal_and_occupancy():
    # the chain as the engine runs it: zero drift, so only the regime moves
    model = make_linear(np.zeros((2, 1, 1)), rates=constant_rates([[-1.0, 1.0], [1.0, -1.0]]))
    n = 40_000
    noise = sample_batch_noise(model, LevyMeasureSpec(alpha=1.0), 1.0, 8, n, seed=0)
    res = batch_flows(model, noise, want_Q=False, record=True)
    # mean event count: rate * horizon = m0 (m0 - 1) K * 1 = 2
    counts = np.bincount([p for p, _, _ in noise.events], minlength=n)
    assert abs(counts.mean() - 2.0) < 4 * counts.std(ddof=1) / math.sqrt(n)
    same = res.alpha_path[:, -1] == 1
    # alpha_path[:, k] holds on [t_k, t_{k+1}); padded steps have dt = 0
    occ = np.sum((res.alpha_path[:, :-1] == 1) * np.diff(noise.times, axis=1), axis=1)
    se_same = math.sqrt(P_SAME_STATE * (1 - P_SAME_STATE) / n)
    assert abs(same.mean() - P_SAME_STATE) < 4 * se_same
    se_occ = occ.std(ddof=1) / math.sqrt(n)
    assert abs(occ.mean() - E_OCCUPANCY) < 4 * se_occ
