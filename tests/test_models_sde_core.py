"""Tests for the model builders and the coupled Euler engines.

The per-path engine is checked by re-deriving every step from the stored
noise record with plain arithmetic; the batched integrator must agree with the
per-path rule applied row by row on the same noise.
"""

import math

import numpy as np
import pytest

from switchsde import (
    DataError,
    LevyMeasureSpec,
    ModelSpec,
    NumericError,
    PerturbationSpec,
    SpecError,
    UnsupportedConfigError,
    batch_flows,
    build_time_grid,
    constant_direction,
    constant_rates,
    frozen_regime_path,
    grid_index,
    make_kalman,
    make_linear,
    make_model,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    sample_batch_noise,
    simulate_path,
    simulate_perturbed_path,
    validate_model,
)

LEVY = LevyMeasureSpec(alpha=1.0)
LEVY_TRUNC = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)


@pytest.mark.parametrize(
    "model",
    [
        make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]]),
        make_linear([[0.0, 1.0], [-1.0, 0.0]]),
        make_kalman(),
        make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0)),
        make_two_regime_linear(),
    ],
    ids=lambda m: m.name,
)
def test_builders_pass_jacobian_check(model):
    assert validate_model(model) < 1e-5
    assert model.sigma.shape == (model.n, model.d)


def test_validate_model_catches_wrong_jacobian():
    model = make_kalman()
    broken = ModelSpec(
        name="broken",
        n=2,
        d=1,
        sigma=model.sigma,
        rates=model.rates,
        drift=model.drift,
        drift_jac=lambda x, a: np.zeros((2, 2)),
        grad_bound=1.0,
    )
    with pytest.raises(SpecError):
        validate_model(broken)


def test_model_spec_shape_errors():
    base = make_kalman()
    with pytest.raises(SpecError):
        ModelSpec(
            name="bad",
            n=2,
            d=1,
            sigma=np.zeros((1, 1)),
            rates=base.rates,
            drift=base.drift,
            drift_jac=base.drift_jac,
            grad_bound=1.0,
        )
    with pytest.raises(SpecError):
        make_kalman(x0=[1.0, 2.0, 3.0])
    with pytest.raises(SpecError):
        make_sin_bounded(n=2, sigma=[[1.0], [0.0]])  # d defaults to n here


def test_linear_derivative_stack():
    A = np.array([[0.5, -1.0], [2.0, 0.25]])
    model = make_linear(A)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(model.drift(x, 1), A @ x)
    np.testing.assert_allclose(model.drift_jac(x, 1), A)
    # deriv[a1, r] = d b_r / d x_a1 = A[r, a1]
    np.testing.assert_allclose(model.drift_derivs(x, 1, 1), A.T)
    np.testing.assert_allclose(model.drift_derivs(x, 1, 2), np.zeros((2, 2, 2)))


def test_sin_bounded_derivatives_match_differences():
    model = make_sin_bounded(n=3, amp=(0.5,), freq=(1.7,))
    x = np.array([0.2, -1.1, 0.4])
    eta = 1e-6
    d2 = model.drift_derivs(x, 1, 2)
    for a1 in range(3):
        e = np.zeros(3)
        e[a1] = eta
        fd = (model.drift_jac(x + e, 1) - model.drift_jac(x - e, 1)) / (2 * eta)
        # fd[r, c] = d^2 b_r / d x_a1 d x_c = d2[a1, c, r]
        np.testing.assert_allclose(d2[a1].T, fd, atol=1e-6)
    # drift stays bounded by amp
    big = model.drift(100.0 * np.ones(3), 1)
    assert np.all(np.abs(big) <= 0.5 + 1e-12)


def test_make_model_registry():
    model = make_model("kalman")
    assert model.name == "kalman" and model.n == 2 and model.d == 1
    with pytest.raises(SpecError):
        make_model("no_such_model")


def test_grid_building_and_lookup():
    times = build_time_grid(1.0, 0.25, extra_times=[0.3, 1.7, 0.0])
    np.testing.assert_allclose(times, [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    assert grid_index(times, 0.3) == 2
    assert grid_index(times, 1.0) == 5
    with pytest.raises(DataError):
        grid_index(times, 0.4)
    with pytest.raises(ValueError):
        build_time_grid(0.0, 0.1)


def test_euler_steps_rederived_from_noise_record():
    model = make_two_regime_linear()
    path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 32, seed=42)
    assert path.times[0] == 0.0 and path.times[-1] == 1.0
    # every event time appears as a grid point
    for t in path.event_times:
        grid_index(path.times, t)
    np.testing.assert_allclose(path.dS, np.diff(path.S))
    x = model.x0.copy()
    for k in range(path.n_steps):
        dt = path.times[k + 1] - path.times[k]
        dw = math.sqrt(path.dS[k]) * path.normals[k]
        x = x + model.drift(x, path.alpha[k]) * dt + model.sigma @ dw
        np.testing.assert_allclose(x, path.X[k + 1], rtol=1e-12, atol=1e-14)
    assert path.state_at_time(1.0) is not None


def test_regime_changes_at_event_times():
    model = make_two_regime_linear()
    found = False
    for seed in range(30):
        path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 16, seed=seed)
        if np.any(np.diff(path.alpha) != 0):
            found = True
            k = int(np.flatnonzero(np.diff(path.alpha))[0]) + 1
            # the regime flip lands exactly on a recorded event time
            assert np.any(np.abs(path.event_times - path.times[k]) < 1e-12)
    assert found


def test_perturbation_table_arithmetic():
    pert = PerturbationSpec(breakpoints=[0.0, 1.0, 2.0], values=[[1.0], [-2.0]], eps=0.1)
    assert pert.d == 1
    assert pert.l2_norm_sq() == pytest.approx(5.0)
    u = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 7.0])
    np.testing.assert_allclose(
        pert.integral(u)[:, 0], [0.0, 0.5, 1.0, 0.0, -1.0, -1.0]
    )
    with pytest.raises(DataError):
        PerturbationSpec(breakpoints=[0.0, 1.0], values=[[1.0], [2.0]])
    with pytest.raises(DataError):
        PerturbationSpec(breakpoints=[1.0, 0.5], values=[[1.0]])


def test_zero_eps_reproduces_base_bitwise():
    model = make_two_regime_linear()
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=3)
    pert = constant_direction([1.0], upto=10.0)  # eps defaults to 0
    again = simulate_perturbed_path(model, base, pert)
    assert np.array_equal(again.X, base.X)
    assert np.array_equal(again.alpha, base.alpha)


def test_perturbed_zero_drift_shifts_by_integral():
    # with b = 0 the shift accumulates exactly: X_eps - X = eps sigma H(S_t)
    model = make_zero_drift(n=2, d=2)
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 32, seed=8)
    pert = PerturbationSpec(
        breakpoints=[0.0, 2.0, 5.0], values=[[1.0, 0.0], [0.0, -1.0]], eps=0.25
    )
    shifted = simulate_perturbed_path(model, base, pert)
    expect = base.X + 0.25 * pert.integral(base.S) @ model.sigma.T
    np.testing.assert_allclose(shifted.X, expect, rtol=1e-12, atol=1e-14)


def test_perturbed_path_rejects_wrong_direction_width():
    model = make_zero_drift(n=2, d=2)
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 8, seed=1)
    with pytest.raises(DataError):
        simulate_perturbed_path(model, base, constant_direction([1.0], upto=1.0))


def test_frozen_regime_window():
    model = make_two_regime_linear()
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 32, seed=11)
    frozen = frozen_regime_path(model, regime=2, window=(0.25, 0.75), base=base)
    assert frozen.times[0] == 0.25 and frozen.times[-1] == 0.75
    assert np.all(frozen.alpha == 2)
    np.testing.assert_allclose(frozen.X[0], base.state_at_time(0.25))
    k1 = grid_index(base.times, 0.25)
    x = base.X[k1].copy()
    for k in range(frozen.n_steps):
        dt = frozen.times[k + 1] - frozen.times[k]
        dw = math.sqrt(base.dS[k1 + k]) * base.normals[k1 + k]
        x = x + model.drift(x, 2) * dt + model.sigma @ dw
        np.testing.assert_allclose(x, frozen.X[k + 1], rtol=1e-12)
    with pytest.raises(ValueError):
        frozen_regime_path(model, regime=2, window=(0.75, 0.25), base=base)
    with pytest.raises(ValueError):
        frozen_regime_path(model, regime=5, window=(0.0, 0.5), base=base)


def test_overflow_raises_numeric_error():
    model = make_linear([[50.0]], sigma=[[1.0]])
    with pytest.raises(NumericError):
        simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=0)
    noise = sample_batch_noise(model, LEVY, 1.0, 512, 4, seed=0)
    with pytest.raises(NumericError):
        batch_flows(model, noise)


def test_batch_matches_per_row_arithmetic():
    model = make_two_regime_linear()
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 8, seed=17)
    out = batch_flows(model, noise, want_Q=False).X
    for p in range(8):
        x = model.x0.copy()
        for k in range(16):
            dt = noise.times[k + 1] - noise.times[k]
            dw = math.sqrt(noise.dS[p, k]) * noise.normals[p, k]
            x = x + model.drift(x, noise.alpha[p, k]) * dt + model.sigma @ dw
        np.testing.assert_allclose(out[p], x, rtol=1e-12)


def test_batch_rejects_state_dependent_rates():
    model = make_two_regime_linear(state_dependent=True, rate_direction=[1.0, 0.0])
    with pytest.raises(UnsupportedConfigError):
        sample_batch_noise(model, LEVY, 1.0, 8, 4, seed=0)


def test_batch_frozen_regime_and_broadcast_start():
    model = make_two_regime_linear()
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 8, 6, seed=2, regime_frozen=2)
    assert np.all(noise.alpha == 2)
    starts = np.stack([model.x0, model.x0 + 0.5])  # (2, n) over the bundle
    out = batch_flows(model, noise, x0=starts[:, None, :], want_Q=False).X
    assert out.shape == (2, 6, 2)


def test_coarsen_preserves_driver_increments():
    model = make_zero_drift(n=1, d=1)
    noise = sample_batch_noise(model, LEVY, 1.0, 16, 5, seed=23)
    half = noise.coarsen()
    assert half.dS.shape == (5, 8)
    np.testing.assert_allclose(half.times, noise.times[::2])
    np.testing.assert_allclose(half.dS, noise.dS[:, ::2] + noise.dS[:, 1::2])
    fine = np.sqrt(noise.dS)[..., None] * noise.normals
    merged = fine[:, 0::2] + fine[:, 1::2]
    np.testing.assert_allclose(
        np.sqrt(half.dS)[..., None] * half.normals, merged, atol=1e-14
    )
    with pytest.raises(DataError):
        sample_batch_noise(model, LEVY, 1.0, 7, 2, seed=0).coarsen()
