"""Tests for the statistical verification toolbox.

Deterministic anchors: the Wilson interval against scipy's implementation,
the KS machinery against scipy's asymptotic two-sample test, capped moments
on hand-picked samples, and the frozen-window integrals on the canonical
degenerate pair where K(t) = I - t A holds exactly on the grid.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from switchsde import (
    DataError,
    LevyMeasureSpec,
    NorrisCurve,
    NorrisParams,
    constant_field,
    decomposition_ks_test,
    drift_field_bracket,
    eigen_tail,
    gradient_representation_check,
    grid_index,
    kde_density,
    ks_calibration,
    ks_statistic,
    make_kalman,
    make_linear,
    make_two_regime_linear,
    make_zero_drift,
    negative_moment,
    norris_joint_probability,
    scaled_cos_field,
    simulate_path,
    two_sample_ks,
    wilson_interval,
    window_integrals,
)

LEVY = LevyMeasureSpec(alpha=1.0)


# -- binomial intervals ------------------------------------------------------


def test_wilson_matches_scipy():
    z = stats.norm.ppf(0.975)
    for k, n in [(0, 10), (3, 17), (10, 10), (250, 1000)]:
        lo, hi = wilson_interval(k, n, z=z)
        ci = stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-12)
        assert hi == pytest.approx(ci.high, abs=1e-12)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# -- two-sample KS -----------------------------------------------------------


def test_ks_matches_scipy_asymptotic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(400)
    b = rng.standard_normal(600) + 0.1
    res = two_sample_ks(a, b)
    ref = stats.ks_2samp(a, b, method="asymp")
    assert res.statistic == pytest.approx(ref.statistic, abs=1e-14)
    # p-value follows the limiting Kolmogorov law (scipy's asymp mode swaps in
    # the finite-n one-sample law instead)
    en = math.sqrt(400 * 600 / 1000)
    assert res.pvalue == pytest.approx(stats.kstwobign.sf(en * res.statistic), rel=1e-9)
    assert (res.n1, res.n2) == (400, 600)
    with pytest.raises(DataError):
        ks_statistic([], [1.0])


def test_ks_statistic_hand_case():
    # F1 jumps at 1,2; F2 jumps at 1.5: sup gap is 1/2 at t in [1, 1.5)
    assert ks_statistic([1.0, 2.0], [1.5, 1.5]) == pytest.approx(0.5)


def test_ks_calibration_null_rate():
    frac, hits = ks_calibration(
        lambda n, rng: rng.standard_normal(n), n=300, reps=40, level=0.01, seed=0
    )
    assert hits == frac * 40
    assert frac <= 0.1
    again = ks_calibration(
        lambda n, rng: rng.standard_normal(n), n=300, reps=40, level=0.01, seed=0
    )
    assert again == (frac, hits)


def test_decomposition_rebuild_same_law():
    res = decomposition_ks_test(LEVY, horizon=1.0, n_samples=4000, seed=0)
    assert res.pvalue >= 0.01


def test_decomposition_rebuild_same_law_truncated():
    # heavy jumps must come from (1, upper_cutoff), not from the untruncated tail
    spec = LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0)
    res = decomposition_ks_test(spec, horizon=1.0, n_samples=8000, seed=0)
    assert res.pvalue >= 0.01


# -- capped negative moments -------------------------------------------------


def test_negative_moment_hand_samples():
    est = negative_moment([1.0, 2.0, 4.0], order=1.0)
    assert est.value == pytest.approx(7.0 / 12.0)
    assert est.stable
    est2 = negative_moment([1.0, 2.0, 4.0], order=2.0)
    assert est2.value == pytest.approx(0.4375)
    mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
    est3 = negative_moment(mats, order=1.0)
    assert est3.value == pytest.approx(0.625)


def test_negative_moment_clock_inverse():
    # E[1/S_1] = 1/(2 pi) for the alpha=1 driver
    from switchsde import sample_increments

    s1 = sample_increments(LEVY, np.array([1.0]), 200_000, seed=5)[:, 0]
    est = negative_moment(s1, order=1.0, cap=1e6)
    assert est.stable
    assert abs(est.value - 0.15915494309189535) < 4 * est.se


def test_negative_moment_rejects_bad_input():
    with pytest.raises(DataError):
        negative_moment([])
    with pytest.raises(DataError):
        negative_moment([1.0, -2.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # det -1
    with pytest.raises(DataError):
        negative_moment(np.stack([np.eye(2), flip]))
    with pytest.raises(ValueError):
        negative_moment([1.0], order=0.0)


def test_negative_moment_cap_instability():
    est = negative_moment(np.full(10, 1e-9), order=1.0, cap=1e6)
    assert not est.stable
    assert est.value == pytest.approx(1e6)
    np.testing.assert_allclose(est.cap_values, [2.5e5, 5e5, 1e6])


# -- spectral tail curve ------------------------------------------------------


def test_eigen_tail_power_law():
    # lambda = U^(1/2) has P(lambda <= t) = t^2: slope 2 in log-log
    rng = np.random.default_rng(3)
    lam = rng.uniform(size=100_000) ** 0.5
    curve = eigen_tail(lam)
    assert abs(curve.slope - 2.0) < 0.2
    assert curve.is_decaying()
    assert np.all(curve.lo <= curve.probs) and np.all(curve.probs <= curve.hi)
    assert np.all(np.diff(curve.thresholds) > 0)
    assert np.all(curve.counts >= 5)


def test_eigen_tail_matrix_route_matches_scalar():
    rng = np.random.default_rng(4)
    lam = rng.uniform(size=8000) ** 0.5
    mats = np.zeros((8000, 2, 2))
    mats[:, 0, 0] = lam
    mats[:, 1, 1] = lam + 1.0
    a = eigen_tail(lam)
    b = eigen_tail(mats)
    assert a.slope == pytest.approx(b.slope, rel=1e-9)
    np.testing.assert_allclose(a.probs, b.probs)


def test_eigen_tail_rejects_degenerate_input():
    with pytest.raises(DataError):
        eigen_tail(np.ones(30))  # too few samples
    with pytest.raises(DataError):
        eigen_tail(-np.ones(1000))
    with pytest.raises(DataError):
        eigen_tail(np.ones(1000), thresholds=[-1.0, 0.0])


# -- test fields and the frozen window ---------------------------------------


def test_constant_field_shapes():
    fld = constant_field([[1.0], [0.5]])
    x = np.zeros((7, 2))
    assert fld.value(x, 1).shape == (7, 2, 1)
    assert np.all(fld.jac(x, 1) == 0.0)
    assert fld.dv == 1


def test_scaled_cos_field_jacobian_matches_differences():
    fld = scaled_cos_field([[0.0], [1.0]], amp=0.8, freq=3.0)
    x = np.array([[0.3, -0.5], [1.2, 0.1]])
    eta = 1e-6
    jac = fld.jac(x, 1)
    for c in range(2):
        e = np.zeros(2)
        e[c] = eta
        fd = (fld.value(x + e, 1) - fld.value(x - e, 1)) / (2 * eta)
        np.testing.assert_allclose(jac[:, c], fd, atol=1e-6)


def test_drift_field_bracket_linear_constant():
    A = np.array([[0.0, 1.0], [-0.5, 0.2]])
    model = make_linear(A, sigma=[[0.0], [1.0]])
    fld = constant_field(model.sigma)
    x = np.array([[0.4, 0.9], [0.0, 0.0], [-1.0, 2.0]])
    out = drift_field_bracket(model, fld, x, 1)
    expect = np.broadcast_to(-A @ model.sigma, (3, 2, 1))
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_norris_params_validation():
    p = NorrisParams(window=(0.0, 0.5), regime=1, direction=[3.0, 4.0], eps_grid=[0.01, 0.1])
    np.testing.assert_allclose(p.direction, [0.6, 0.8])
    np.testing.assert_allclose(p.eps_grid, [0.1, 0.01])  # sorted large to small
    assert p.threshold(1.0) == 1.0
    assert p.threshold(0.01) == pytest.approx(0.01 ** (0.5 / 17.5))
    with pytest.raises(ValueError):
        NorrisParams(window=(0.0, 0.5), regime=1, direction=[0.0, 0.0], eps_grid=[0.1])
    with pytest.raises(ValueError):
        NorrisParams(window=(0.0, 0.5), regime=1, direction=[1.0], eps_grid=[-0.1])
    with pytest.raises(ValueError):
        NorrisParams(window=(0.0, 0.5), regime=1, direction=[1.0], eps_grid=[0.1], beta=1.5)
    with pytest.raises(ValueError):
        NorrisParams(window=(0.5, 0.2), regime=1, direction=[1.0], eps_grid=[0.1])


def test_window_integrals_exact_on_degenerate_pair():
    # K(t) = I - t A exactly (A nilpotent), so with V = sigma and direction e_1:
    # y_field(t) = -t and y_bracket(t) = -1, giving w^3/3 and w up to trapezoid error
    model = make_kalman()
    base = simulate_path(model, LEVY, horizon=0.5, grid_step=1 / 128, seed=6)
    params = NorrisParams(
        window=(0.0, 0.5), regime=1, direction=[1.0, 0.0], eps_grid=[0.1]
    )
    fld = constant_field(model.sigma)
    i_field, i_bracket = window_integrals(model, base, params, fld)
    assert i_bracket == pytest.approx(0.5, abs=1e-12)
    assert i_field == pytest.approx(0.5**3 / 3.0, rel=1e-3)


def test_window_integrals_zero_drift():
    model = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    base = simulate_path(model, LEVY, horizon=0.5, grid_step=1 / 64, seed=2)
    params = NorrisParams(
        window=(0.0, 0.5), regime=1, direction=[0.0, 1.0], eps_grid=[0.1]
    )
    i_field, i_bracket = window_integrals(model, base, params, constant_field(model.sigma))
    assert i_bracket == 0.0
    assert i_field == pytest.approx(0.5, abs=1e-12)


def test_window_integrals_opening_after_zero():
    # K runs along the base regimes up to t1, then in the frozen regime with the
    # frozen state; both integrals by the trapezoid rule on the window grid
    model = make_two_regime_linear()
    base = simulate_path(model, LEVY, horizon=1.0, grid_step=1 / 64, seed=5)
    k1, k2 = grid_index(base.times, 0.25), grid_index(base.times, 0.75)
    assert len(set(base.alpha[: k1 + 1])) == 2  # the prefix crosses a switch
    params = NorrisParams(
        window=(0.25, 0.75), regime=2, direction=[1.0, 0.0], eps_grid=[0.1]
    )
    fld = scaled_cos_field(model.sigma)
    i_field, i_bracket = window_integrals(model, base, params, fld)

    K = np.eye(2)
    for k in range(k1):
        dt = base.times[k + 1] - base.times[k]
        K = K - K @ (model.drift_jac(base.X[k], base.alpha[k]) * dt)
    x = base.X[k1].copy()
    y_field, y_bracket = [], []
    for k in range(k1, k2 + 1):
        v = params.direction @ K
        y_field.append(np.sum((v @ fld.value(x, 2)) ** 2))
        y_bracket.append(np.sum((v @ drift_field_bracket(model, fld, x, 2)) ** 2))
        if k == k2:
            break
        dt = base.times[k + 1] - base.times[k]
        K = K - K @ (model.drift_jac(x, 2) * dt)
        dw = math.sqrt(base.dS[k]) * base.normals[k]
        x = x + model.drift(x, 2) * dt + model.sigma @ dw
    t = base.times[k1 : k2 + 1]
    assert i_field == pytest.approx(np.trapezoid(y_field, t), rel=1e-12)
    assert i_bracket == pytest.approx(np.trapezoid(y_bracket, t), rel=1e-12)


def test_norris_curve_monotonicity_rule():
    mk = lambda probs, se: NorrisCurve(
        eps=np.array([0.1, 0.01]),
        probs=np.array(probs),
        se=np.array(se),
        counts=np.zeros(2, dtype=int),
        thresholds=np.zeros(2),
        n_paths=100,
    )
    assert mk([0.3, 0.1], [0.01, 0.01]).is_nonincreasing()
    assert mk([0.10, 0.11], [0.01, 0.01]).is_nonincreasing()  # within slack
    assert not mk([0.1, 0.3], [0.01, 0.01]).is_nonincreasing()


def test_norris_probability_curve_zero_drift_vanishes():
    model = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    params = NorrisParams(
        window=(0.0, 0.25), regime=1, direction=[0.0, 1.0], eps_grid=[0.1, 0.01]
    )
    curve = norris_joint_probability(
        model, LEVY, horizon=0.25, grid_step=1 / 32, params=params,
        fld=constant_field(model.sigma), n_paths=30, seed=0,
    )
    assert np.all(curve.probs == 0.0)
    assert np.all(curve.counts == 0)
    assert curve.is_nonincreasing()


def test_norris_probability_curve_deterministic():
    model = make_kalman()
    params = NorrisParams(
        window=(0.0, 0.25), regime=1, direction=[1.0, 0.0], eps_grid=[0.1, 0.03]
    )
    fld = scaled_cos_field(model.sigma, amp=1.0, freq=3.0)
    runs = [
        norris_joint_probability(
            model, LEVY, 0.25, 1 / 32, params, fld, n_paths=25, seed=3
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].probs, runs[1].probs)
    assert np.all((runs[0].probs >= 0) & (runs[0].probs <= 1))
    np.testing.assert_allclose(
        runs[0].thresholds, [0.1 ** (1 / 35), 0.03 ** (1 / 35)]
    )


# -- derivative transfer ------------------------------------------------------


def test_gradient_representation_quick():
    model = make_kalman()
    w = np.array([1.0, 0.7])
    res = gradient_representation_check(
        model,
        LEVY,
        horizon=1.0,
        n_steps=64,
        n_paths=4000,
        f=lambda x: np.sin(x @ w),
        grad_f=lambda x: np.cos(x @ w)[:, None] * w,
        seed=0,
    )
    assert res.passes(z=3.0)
    assert res.combined_se.shape == (2,)
    assert np.all(res.combined_se > 0)
    with pytest.raises(ValueError):
        gradient_representation_check(
            model, LEVY, 1.0, 63, 100, f=lambda x: x[:, 0], grad_f=lambda x: x
        )


@pytest.mark.parametrize(
    "model", [make_kalman(), make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])], ids=lambda m: m.name
)
def test_gradient_representation_affine_path_is_bitwise(model):
    # AC-12's verdict does not depend on whether the flows come from the
    # affine data or from the drift callbacks
    w = np.array([1.0, 0.7])
    kw = dict(
        horizon=1.0,
        n_steps=64,
        n_paths=2000,
        f=lambda x: np.sin(x @ w),
        grad_f=lambda x: np.cos(x @ w)[:, None] * w,
        seed=4,
        chunk=1000,
    )
    fast = gradient_representation_check(model, LEVY, **kw)
    slow = gradient_representation_check(replace(model, affine=None), LEVY, **kw)
    for name in ("residual", "se_mc", "fd_bias", "dt_bias", "lhs"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name


# -- kernel density ------------------------------------------------------------


def test_kde_recovers_standard_normal():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(30_000)
    est = kde_density(y)
    phi = np.exp(-0.5 * est.grid**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(est.values - phi)) < 0.02
    assert est.mass == pytest.approx(1.0, abs=0.01)
    assert np.all(est.se >= 0) and est.bandwidth > 0


def test_kde_custom_grid_and_errors():
    grid = np.linspace(-1, 1, 11)
    est = kde_density([0.0, 0.5, -0.5, 0.2], grid=grid)
    assert np.array_equal(est.grid, grid)
    with pytest.raises(DataError):
        kde_density([1.0])
    with pytest.raises(DataError):
        kde_density(np.full(100, 3.25))
