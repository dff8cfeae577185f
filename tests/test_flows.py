"""Tests for the tangent flow pair, reduced covariance, and the shift response.

Exactness anchors: with zero drift J = K = I on the nose and M_t = S_t I
when sigma sigma^T = I; for any drift the flow recursions keep J K = I up to
O(dt) controlled by the a-priori defect tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from switchsde import (
    BatchNoise,
    LevyMeasureSpec,
    UnsupportedConfigError,
    batch_flows,
    constant_direction,
    directional_derivative,
    exp_bound_excess,
    finite_difference_check,
    make_kalman,
    make_linear,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    product_defect,
    product_defect_tolerance,
    representation_residual,
    sample_batch_noise,
    sample_covariances,
)

LEVY = LevyMeasureSpec(alpha=1.0)
LEVY_TRUNC = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)


def test_zero_drift_flows_are_identity():
    model = make_zero_drift(n=2, d=2)
    noise = sample_batch_noise(model, LEVY, 1.0, 64, 1, seed=0)
    res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
    J, K, Q = res.J_path[0], res.K_path[0], res.Q_path[0]
    assert product_defect(J, K).max() == 0.0
    eye = np.eye(2)
    assert np.array_equal(J, np.broadcast_to(eye, J.shape))
    assert np.array_equal(K, np.broadcast_to(eye, K.shape))
    # sigma sigma^T = I: the reduced covariance is the subordinator clock itself
    S = np.concatenate([[0.0], np.cumsum(noise.dS[0])])
    expect = S[:, None, None] * eye
    assert np.max(np.abs(J @ Q @ np.swapaxes(J, 1, 2) - expect)) == 0.0
    assert np.max(np.abs(Q - expect)) == 0.0


def test_kalman_flows_exact_inverse():
    # nilpotent Jacobian: (I + gA)(I - gA) = I - g^2 A^2 = I exactly
    model = make_kalman()
    noise = sample_batch_noise(model, LEVY, 1.0, 128, 1, seed=4)
    res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
    assert product_defect(res.J_path, res.K_path).max() == 0.0
    # Q is zero at t=0, rank 1 after one step, full rank once K has rotated
    # the noise column into the first coordinate
    min_eigs = np.linalg.eigvalsh(res.Q_path[0])[:, 0]
    assert np.all(min_eigs[:2] == 0.0)
    assert np.all(min_eigs[2:] > 0)


def test_defect_within_tolerance_under_switching():
    model = make_two_regime_linear()
    dt = 1e-3
    tol = product_defect_tolerance(model.n, model.grad_bound, 1.0, dt)
    noise = sample_batch_noise(model, LEVY, 1.0, 1000, 20, seed=0)
    res = batch_flows(model, noise, want_J=True, want_Q=False, record=True)
    assert float(product_defect(res.J_path, res.K_path).max()) <= tol


def _one_path(model, n_steps, seed):
    noise = sample_batch_noise(model, LEVY, 1.0, n_steps, 1, seed)
    return noise, batch_flows(model, noise, want_J=True, want_Q=False, record=True)


def test_exponential_norm_envelope():
    model = make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0))
    noise, res = _one_path(model, 256, 7)
    # Euler flows exceed exp(L t) by at most O(dt)
    assert exp_bound_excess(res.J_path, res.K_path, noise.times, model.grad_bound) <= 10.0 / 256


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "model", [make_kalman(), make_two_regime_linear(), make_sin_bounded()], ids=lambda m: m.name
)
def test_exp_bound_excess_is_the_full_svd_value(model, seed):
    # the SVD runs only where the maximum can be, and the value is the full SVD's
    # bit for bit; at grad_bound 0 the maximum sits inside the grid, not at t = 0
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 128, 64, seed)
    res = batch_flows(model, noise, want_J=True, want_Q=False, record=True)
    nj = np.linalg.svd(res.J_path, compute_uv=False)[..., 0]
    nk = np.linalg.svd(res.K_path, compute_uv=False)[..., 0]
    for bound in (model.grad_bound, 0.0):
        full = float((np.maximum(nj, nk) / np.exp(bound * noise.times)).max() - 1.0)
        assert exp_bound_excess(res.J_path, res.K_path, noise.times, bound) == full


def _full_svd_excess(J, K, times, bound):
    nj = np.linalg.svd(J, compute_uv=False)[..., 0]
    nk = np.linalg.svd(K, compute_uv=False)[..., 0]
    return float((np.maximum(nj, nk) / np.exp(bound * times)).max() - 1.0)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except np.linalg.LinAlgError as e:
        return type(e).__name__


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_bound_excess_gram_bounds_keep_the_full_svd_value(n):
    # each point's norm lies between its Gram's largest diagonal entry and its
    # largest absolute row sum: on random stacks, with every start tied at the
    # identity and with all points tied, the value is the full SVD's bit for bit;
    # a stack holding NaN gives what the full SVD gives
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 1.0, 30)
    for bound in (0.0, 0.7):
        for _ in range(50):
            J, K = rng.normal(scale=rng.uniform(0.2, 2.0), size=(2, 4, 30, n, n))
            J[:, 0] = K[:, 0] = np.eye(n)
            assert exp_bound_excess(J, K, t, bound) == _full_svd_excess(J, K, t, bound)
    eye = np.broadcast_to(np.eye(n), (4, 30, n, n))
    assert exp_bound_excess(eye, eye, t, 0.0) == _full_svd_excess(eye, eye, t, 0.0) == 0.0
    for bad in (np.nan, np.inf):
        J = eye.copy()
        J[1, 7, 0, n - 1] = bad
        want = _outcome(_full_svd_excess, J, eye, t, 0.7)
        assert _outcome(exp_bound_excess, J, eye, t, 0.7) == want


def test_flow_against_matrix_exponential():
    # constant drift matrix, no switching: J_t = exp(A t) up to O(dt)
    A = np.array([[0.0, 1.0], [-1.0, -0.5]])
    model = make_linear(A, sigma=[[0.0], [1.0]])
    _, res = _one_path(model, 4096, 1)
    from scipy.linalg import expm

    target = expm(A)
    assert np.max(np.abs(res.J[0] - target)) < 5e-4
    assert np.max(np.abs(res.K[0] - np.linalg.inv(target))) < 5e-4


def test_directional_derivative_linear_exact():
    # for linear drift the response is exactly linear: X^eps - X = eps * D
    model = make_two_regime_linear()
    noise, base = _one_path(model, 64, 9)
    pert = constant_direction([0.05], upto=50.0)
    res = finite_difference_check(model, noise, base, pert, eps_list=[1e-1, 1e-2, 1e-3])
    assert res.state_residuals.max() < 1e-10


def test_fd_slope_near_one_for_smooth_drift():
    model = make_sin_bounded(n=2, d=1, sigma=[[0.0], [1.0]], amp=(0.8, 0.5), freq=(1.0, 2.0))
    noise, base = _one_path(model, 64, 12)
    pert = constant_direction([0.05], upto=50.0)
    res = finite_difference_check(
        model,
        noise,
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
    noise, base = _one_path(make_two_regime_linear(), 16, 0)
    with pytest.raises(UnsupportedConfigError):
        finite_difference_check(model, noise, base, constant_direction([1.0], 1.0), [0.1])


def test_representation_identity_within_first_order_budget():
    # per step: K_{k+1} D_{k+1} - K_k D_k = K_k sigma dH_k - K_k g_k^2 D_k
    #           - K_k g_k sigma dH_k, so the residual telescopes into the
    # exact triangle bound sum ||K g^2 D|| + ||K g sigma dH||
    model = make_two_regime_linear()
    noise, base = _one_path(model, 64, 15)
    pert = constant_direction([1.0], upto=50.0)
    deriv = directional_derivative(model, noise, base, pert)
    residual = representation_residual(model, noise, base, deriv)

    X, alpha, K, D = base.X_path[0], base.alpha_path[0], base.K_path[0], deriv.D[0]
    dts = np.diff(np.atleast_2d(noise.times)[0])
    g = np.moveaxis(model.drift_jac(X[:-1].T, alpha[:-1]), -1, 0) * dts[:, None, None]
    dH = np.diff(pert.integral(noise.clock()[0]), axis=0) @ model.sigma.T
    norm_k = np.linalg.norm(K[:-1], ord=2, axis=(1, 2))
    norm_g = np.linalg.norm(g, ord=2, axis=(1, 2))
    norm_d = np.linalg.norm(D[:-1], axis=1)
    budget = float(np.sum(norm_k * norm_g**2 * norm_d
                          + norm_k * norm_g * np.linalg.norm(dH, axis=1)))
    assert 0.0 < residual <= budget
    # the budget itself is small next to the transported signal
    signal = np.abs(np.einsum("kab,kb->ka", K, D)).max()
    assert budget < 0.1 * signal


def test_representation_residual_zero_drift():
    model = make_zero_drift(n=1, d=1)
    noise, base = _one_path(model, 32, 2)
    deriv = directional_derivative(model, noise, base, constant_direction([1.0], 50.0))
    assert representation_residual(model, noise, base, deriv) == 0.0


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
            # Q_path holds the left-endpoint sum over the steps before t_k
            np.testing.assert_allclose(res.Q_path[p, k], Q, rtol=1e-12, atol=1e-14)
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


def _per_path_recursion(model, noise, p, alpha, x0, K0, column_order=True):
    """One path's X, J, K and Q at the end of the grid, step by step at one point.

    column_order sums the flow products as batch_flows does, column by column:
    (K g)[:, s] = sum_c K[:, c] g[c, s] and (g J)[r, :] = sum_c g[r, c] J[c, :];
    otherwise they are matrix products.
    """
    times = np.broadcast_to(noise.times, (noise.n_paths, noise.dS.shape[1] + 1))[p]
    x, J, K, Q = x0.copy(), np.eye(model.n), K0.copy(), np.zeros((model.n, model.n))
    for k in range(noise.dS.shape[1]):
        dt = times[k + 1] - times[k]
        a = int(alpha[k])
        r = K @ model.sigma
        rr = np.outer(r[:, 0], r[:, 0])
        for c in range(1, model.d):
            rr = rr + np.outer(r[:, c], r[:, c])
        Q = Q + rr * noise.dS[p, k]
        g = model.drift_jac(x, a) * dt
        if column_order:
            gJ, Kg = np.outer(g[:, 0], J[0]), np.outer(K[:, 0], g[0])
            for c in range(1, model.n):
                gJ, Kg = gJ + np.outer(g[:, c], J[c]), Kg + np.outer(K[:, c], g[c])
        else:
            gJ, Kg = g @ J, K @ g
        J, K = J + gJ, K - Kg
        dw = math.sqrt(noise.dS[p, k]) * noise.normals[p, k]
        x = x + model.drift(x, a) * dt + model.sigma @ dw
    return x, J, K, Q


def _per_path_grids(noise, rng):
    """The same noise on a jittered grid of its own for every path."""
    steps = noise.dS.shape[1]
    dts = rng.uniform(0.5, 1.5, (noise.n_paths, steps)) / steps
    times = np.concatenate([np.zeros((noise.n_paths, 1)), np.cumsum(dts, axis=1)], axis=1)
    return BatchNoise(times, noise.dS, noise.normals, noise.n_paths, noise.events)


FLOW_MODELS = {
    "kalman": make_kalman(),  # one regime, affine
    "linear": make_linear([[0.3, -1.1], [0.7, -0.45]], shifts=[0.3, -0.1]),  # dense columns
    "sin_bounded": make_sin_bounded(n=2, switch_rate=3.0),  # Jacobian from the callback
    "two_regime_linear": make_two_regime_linear(switch_rate=3.0),  # one affine flow per path
}


def _flow_case(model, case, rng):
    """Noise, x0 and K0 (paths-first) of one layout of the flows."""
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 24, 1 if case == "one_path" else 4, rng)
    x0 = K0 = None
    if case == "window":  # per-path starts and inverse flows, as a frozen window has
        x0 = rng.normal(size=(noise.n_paths, model.n))
        K0 = np.eye(model.n) + 0.3 * rng.normal(size=(noise.n_paths, model.n, model.n))
    elif case == "per_path_grids":
        noise = _per_path_grids(noise, rng)
    elif case == "start_axes":
        x0 = model.x0 + rng.normal(size=(3, 1, model.n))
    return noise, x0, K0


@pytest.mark.parametrize("family", sorted(FLOW_MODELS))
@pytest.mark.parametrize("case", ["window", "per_path_grids", "start_axes", "one_path"])
def test_flow_layouts_match_per_path_recursions(case, family):
    # the components-first flow update is, path by path and start by start, the
    # per-point recursion with its products summed in column order, bit for bit;
    # one regime on a shared grid with per-path K0 is the frozen window's layout
    model = FLOW_MODELS[family]
    noise, x0, K0 = _flow_case(model, case, np.random.default_rng(4))
    res = batch_flows(model, noise, x0=x0, K0=K0, want_J=True, record=True)
    starts = np.broadcast_to(model.x0 if x0 is None else x0, res.X.shape)
    K0s = np.broadcast_to(np.eye(model.n) if K0 is None else K0, res.K.shape)
    for idx in np.ndindex(res.X.shape[:-1]):
        p = idx[-1]
        want = _per_path_recursion(model, noise, p, res.alpha_path[p], starts[idx], K0s[idx])
        for got, ref in zip((res.X, res.J, res.K, res.Q), want):
            assert got[idx].tobytes() == ref.tobytes()


def test_dense_callback_flows_match_the_matrix_recursion():
    # a dense 3x3 Jacobian from the callbacks: the column-order sums agree with
    # matrix products to rounding, on every flow layout
    model = make_linear(
        [[-0.2, 1.3, 0.4], [0.1, -0.7, 0.9], [0.5, 0.4, -0.35]], sigma=np.eye(3, 2)
    )
    model = replace(model, affine=None)
    rng = np.random.default_rng(8)
    for case in ("window", "per_path_grids", "start_axes", "one_path"):
        noise, x0, K0 = _flow_case(model, case, rng)
        res = batch_flows(model, noise, x0=x0, K0=K0, want_J=True, record=True)
        starts = np.broadcast_to(model.x0 if x0 is None else x0, res.X.shape)
        K0s = np.broadcast_to(np.eye(3) if K0 is None else K0, res.K.shape)
        for idx in np.ndindex(res.X.shape[:-1]):
            p = idx[-1]
            want = _per_path_recursion(
                model, noise, p, res.alpha_path[p], starts[idx], K0s[idx], column_order=False
            )
            for got, ref in zip((res.X, res.J, res.K, res.Q), want):
                np.testing.assert_allclose(got[idx], ref, rtol=1e-12, atol=1e-15)


def test_batch_flows_broadcast_start():
    model = make_kalman()
    noise = sample_batch_noise(model, LEVY_TRUNC, 0.5, 8, 4, seed=5)
    starts = model.x0 + np.linspace(0.0, 1.0, 3)[:, None, None] * np.ones((1, 1, 2))
    res = batch_flows(model, noise, x0=starts)
    assert res.X.shape == (3, 4, 2) and res.K.shape == (3, 4, 2, 2)


def test_sample_covariances_deterministic():
    model = make_kalman()
    a = sample_covariances(model, LEVY_TRUNC, 1.0, 16, 30, seed=77)
    b = sample_covariances(model, LEVY_TRUNC, 1.0, 16, 30, seed=77)
    assert np.array_equal(a, b)
    assert a.shape == (30, 2, 2)
    # eigenvalues are nonnegative by construction
    assert np.linalg.eigvalsh(a).min() > -1e-15
