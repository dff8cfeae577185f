"""Tests for the tangent flow pair, reduced covariance, and the shift response.

Exactness anchors: with zero drift J = K = I on the nose and M_t = S_t I
when sigma sigma^T = I; for any drift the flow recursions keep J K = I up to
O(dt) controlled by the a-priori defect tolerance.
"""

import math

import numpy as np
import pytest

from switchsde import (
    LevyMeasureSpec,
    UnsupportedConfigError,
    batch_flows,
    constant_direction,
    directional_derivative,
    evolve_flows,
    finite_difference_check,
    make_kalman,
    make_linear,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    product_defect_tolerance,
    reduced_covariance,
    representation_residual,
    sample_batch_noise,
    sample_covariances,
    simulate_path,
)

LEVY = LevyMeasureSpec(alpha=1.0)
LEVY_TRUNC = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)


def test_zero_drift_flows_are_identity():
    model = make_zero_drift(n=2, d=2)
    path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=0)
    flow = evolve_flows(model, path)
    assert flow.max_product_defect() == 0.0
    eye = np.eye(2)
    assert np.array_equal(flow.J, np.broadcast_to(eye, flow.J.shape))
    assert np.array_equal(flow.K, np.broadcast_to(eye, flow.K.shape))
    # sigma sigma^T = I: the reduced covariance is the subordinator clock itself
    cov = reduced_covariance(model, path, flow)
    expect = path.S[:, None, None] * eye
    assert np.max(np.abs(cov.M - expect)) == 0.0
    assert np.max(np.abs(cov.Q - expect)) == 0.0


def test_kalman_flows_exact_inverse():
    # nilpotent Jacobian: (I + gA)(I - gA) = I - g^2 A^2 = I exactly
    model = make_kalman()
    path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 128, seed=4)
    flow = evolve_flows(model, path)
    assert flow.max_product_defect() == 0.0
    cov = reduced_covariance(model, path, flow)
    # Q is zero at t=0, rank 1 after one step, full rank once K has rotated
    # the noise column into the first coordinate
    assert np.all(cov.min_eigenvalues()[:2] == 0.0)
    assert np.all(cov.min_eigenvalues()[2:] > 0)


def test_defect_within_tolerance_under_switching():
    model = make_two_regime_linear()
    dt = 1e-3
    tol = product_defect_tolerance(model.n, model.grad_bound, 1.0, dt)
    worst = 0.0
    for seed in range(20):
        path = simulate_path(model, LEVY, horizon=1.0, grid_step=dt, seed=seed)
        flow = evolve_flows(model, path)
        worst = max(worst, flow.max_product_defect())
    assert worst <= tol


def test_exponential_norm_envelope():
    model = make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0))
    path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 256, seed=7)
    flow = evolve_flows(model, path)
    # Euler flows exceed exp(L t) by at most O(dt)
    assert flow.exp_bound_excess(model.grad_bound) <= 10.0 / 256


def test_flow_against_matrix_exponential():
    # constant drift matrix, no switching: J_t = exp(A t) up to O(dt)
    A = np.array([[0.0, 1.0], [-1.0, -0.5]])
    model = make_linear(A, sigma=[[0.0], [1.0]])
    path = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 4096, seed=1)
    flow = evolve_flows(model, path)
    from scipy.linalg import expm

    target = expm(A)
    assert np.max(np.abs(flow.J[-1] - target)) < 5e-4
    assert np.max(np.abs(flow.K[-1] - np.linalg.inv(target))) < 5e-4


def test_directional_derivative_linear_exact():
    # for linear drift the response is exactly linear: X^eps - X = eps * D
    model = make_two_regime_linear()
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=9)
    pert = constant_direction([0.05], upto=50.0)
    res = finite_difference_check(model, base, pert, eps_list=[1e-1, 1e-2, 1e-3])
    assert res.state_residuals.max() < 1e-10


def test_fd_slope_near_one_for_smooth_drift():
    model = make_sin_bounded(n=2, d=1, sigma=[[0.0], [1.0]], amp=(0.8, 0.5), freq=(1.0, 2.0))
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=12)
    pert = constant_direction([0.05], upto=50.0)
    res = finite_difference_check(
        model,
        base,
        pert,
        eps_list=[1e-1, 1e-2, 1e-3, 1e-4],
        f=lambda x, a: np.sin(x[..., 0]) + 0.1 * x[..., 1],
        grad_f=lambda x, a: np.stack(
            [np.cos(x[..., 0]), 0.1 * np.ones_like(x[..., 1])], axis=-1
        ),
    )
    assert 0.9 <= res.slope <= 1.1
    assert 0.9 <= res.chain_slope <= 1.1
    # residuals shrink monotonically with eps
    assert np.all(np.diff(res.state_residuals) < 0)


def test_fd_check_rejects_state_dependent_rates():
    model = make_two_regime_linear(state_dependent=True)
    base = simulate_path(make_two_regime_linear(), LEVY, 1.0, 1 / 16, seed=0)
    with pytest.raises(UnsupportedConfigError):
        finite_difference_check(model, base, constant_direction([1.0], 1.0), [0.1])


def test_representation_identity_within_first_order_budget():
    # per step: K_{k+1} D_{k+1} - K_k D_k = K_k sigma dH_k - K_k g_k^2 D_k
    #           - K_k g_k sigma dH_k, so the residual telescopes into the
    # exact triangle bound sum ||K g^2 D|| + ||K g sigma dH||
    model = make_two_regime_linear()
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=15)
    flow = evolve_flows(model, base)
    pert = constant_direction([1.0], upto=50.0)
    deriv = directional_derivative(model, base, pert)
    residual = representation_residual(model, base, flow, deriv)

    dts = np.diff(base.times)
    g = model.drift_jac(base.X[:-1], base.alpha[:-1]) * dts[:, None, None]
    dH = np.diff(pert.integral(base.S), axis=0) @ model.sigma.T
    norm_k = np.linalg.norm(flow.K[:-1], ord=2, axis=(1, 2))
    norm_g = np.linalg.norm(g, ord=2, axis=(1, 2))
    norm_d = np.linalg.norm(deriv.D[:-1], axis=1)
    budget = float(np.sum(norm_k * norm_g**2 * norm_d
                          + norm_k * norm_g * np.linalg.norm(dH, axis=1)))
    assert 0.0 < residual <= budget
    # the budget itself is small next to the transported signal
    signal = np.abs(np.einsum("kab,kb->ka", flow.K, deriv.D)).max()
    assert budget < 0.1 * signal


def test_representation_residual_zero_drift():
    model = make_zero_drift(n=1, d=1)
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 32, seed=2)
    flow = evolve_flows(model, base)
    deriv = directional_derivative(model, base, constant_direction([1.0], 50.0))
    assert representation_residual(model, base, flow, deriv) == 0.0


def test_batch_flows_match_per_path_recursions():
    model = make_two_regime_linear()
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 32, 6, seed=21)
    res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
    assert np.any(res.alpha_path != model.alpha0)  # the recorded regime paths switch
    for p in range(6):
        x = model.x0.copy()
        J = np.eye(2)
        K = np.eye(2)
        Q = np.zeros((2, 2))
        for k in range(noise.dS.shape[1]):  # 32 uniform steps refined to the event times
            dt = noise.times[p, k + 1] - noise.times[p, k]
            a = int(res.alpha_path[p, k])
            r = K @ model.sigma
            Q = Q + (r @ r.T) * noise.dS[p, k]
            g = model.drift_jac(x, a) * dt
            J = J + g @ J
            K = K - K @ g
            x = x + model.drift(x, a) * dt + model.sigma @ (
                math.sqrt(noise.dS[p, k]) * noise.normals[p, k]
            )
        np.testing.assert_allclose(res.X[p], x, rtol=1e-12)
        np.testing.assert_allclose(res.J[p], J, rtol=1e-12)
        np.testing.assert_allclose(res.K[p], K, rtol=1e-12)
        np.testing.assert_allclose(res.Q[p], Q, rtol=1e-12, atol=1e-14)


def test_batch_flows_broadcast_start():
    model = make_kalman()
    noise = sample_batch_noise(model, LEVY_TRUNC, 0.5, 8, 4, seed=5)
    starts = model.x0 + np.linspace(0.0, 1.0, 3)[:, None, None] * np.ones((1, 1, 2))
    res = batch_flows(model, noise, x0=starts)
    assert res.X.shape == (3, 4, 2) and res.K.shape == (3, 4, 2, 2)


def test_sample_covariances_deterministic_and_chunk_invariant():
    model = make_kalman()
    a = sample_covariances(model, LEVY_TRUNC, 1.0, 16, 30, seed=77, chunk=30)
    b = sample_covariances(model, LEVY_TRUNC, 1.0, 16, 30, seed=77, chunk=30)
    assert np.array_equal(a, b)
    assert a.shape == (30, 2, 2)
    # eigenvalues are nonnegative by construction
    assert np.linalg.eigvalsh(a).min() > -1e-15
