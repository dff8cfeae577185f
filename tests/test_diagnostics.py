"""Tests for the statistical verification toolbox.

Deterministic anchors: the Wilson interval against scipy's implementation,
the KS machinery against scipy's asymptotic two-sample test, capped moments
on hand-picked samples, and the frozen-window integrals on the canonical
degenerate pair where K(t) = I - t A holds exactly on the grid.
"""

import json
import math
import operator
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from scipy import special, stats

from switchsde import (
    DataError,
    LevyMeasureSpec,
    NorrisCurve,
    NorrisParams,
    NumericError,
    RunConfig,
    batch_flows,
    constant_field,
    decomposition_ks_test,
    drift_field_bracket,
    eigen_tail,
    gradient_representation_check,
    kde_density,
    ks_calibration,
    ks_statistic,
    make_kalman,
    make_linear,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    negative_moment,
    norris_joint_probability,
    sample_batch_noise,
    scaled_cos_field,
    two_sample_ks,
    wilson_interval,
    window_integrals,
)
from switchsde import diagnostics, runner, sde_core
from switchsde.diagnostics import (
    GradRepResult,
    KSResult,
    TailCurve,
    Verdict,
    exp_bound_verdict,
    gradrep_verdict,
    h3_verdict,
    kappa1_verdict,
    kolmogorov_sf,
    ks_verdict,
    norris_verdict,
    product_defect_verdict,
    tail_verdict,
)
from switchsde.flows import product_defect_tolerance, sample_covariances
from switchsde.levy_noise import check_H3

LEVY = LevyMeasureSpec(alpha=1.0)
# the small-jump part of LEVY, decompose_large_jumps(LEVY).truncated
LEVY_UNIT = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)


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


def test_kolmogorov_sf_matches_scipy():
    # both series against scipy's implementation, across the switch at lambda = 1;
    # a RuntimeWarning (overflow, division by zero) would fail this suite
    lam = np.concatenate([np.linspace(0.0, 8.0, 8001), [1.0 - 2**-52], np.geomspace(1e-300, 0.1, 50)])
    lam.sort()
    q = np.array([kolmogorov_sf(float(x)) for x in lam])
    ref = special.kolmogorov(lam)
    live = ref > 1e-300
    assert np.all(np.abs(q[live] - ref[live]) <= 1e-13 * ref[live])
    assert kolmogorov_sf(0.0) == 1.0 and kolmogorov_sf(5e-324) == 1.0
    assert np.all((q >= 0.0) & (q <= 1.0)) and np.all(np.diff(q) <= 0.0)


def test_ks_statistic_hand_case():
    # F1 jumps at 1,2; F2 jumps at 1.5: sup gap is 1/2 at t in [1, 1.5)
    assert ks_statistic([1.0, 2.0], [1.5, 1.5]) == pytest.approx(0.5)


def test_ks_calibration_null_rate():
    frac, hits = ks_calibration(lambda n, rng: rng.standard_normal(n), n=300, reps=40, seed=0)
    assert hits == frac * 40
    assert frac <= 0.1
    again = ks_calibration(lambda n, rng: rng.standard_normal(n), n=300, reps=40, seed=0)
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
    assert tail_verdict(curve).holds
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
    # beta = 0.5 is below the floor 4 * 1.9 - 7 = 0.6 of the alpha = 1.9 clock
    assert diagnostics.beta_floor(LEVY) == 0.0
    with pytest.raises(ValueError, match="beta must exceed"):
        norris_joint_probability(
            make_kalman(), LevyMeasureSpec(alpha=1.9), 1.0, 4, p, constant_field(np.eye(2)), 8
        )


def _window_integrals(model, horizon, n_steps, seed, params, fld):
    """Window integrals of one path, with its noise."""
    noise = sample_batch_noise(model, LEVY, horizon, n_steps, 1, seed)
    (i_field,), (i_bracket,) = window_integrals(model, noise, params, fld)
    return i_field, i_bracket, noise


def test_window_integrals_exact_on_degenerate_pair():
    # K(t) = I - t A exactly (A nilpotent), so with V = sigma and direction e_1:
    # y_field(t) = -t and y_bracket(t) = -1, giving w^3/3 and w up to trapezoid error
    model = make_kalman()
    params = NorrisParams(
        window=(0.0, 0.5), regime=1, direction=[1.0, 0.0], eps_grid=[0.1]
    )
    fld = constant_field(model.sigma)
    i_field, i_bracket, _ = _window_integrals(model, 0.5, 64, 6, params, fld)
    assert i_bracket == pytest.approx(0.5, abs=1e-12)
    assert i_field == pytest.approx(0.5**3 / 3.0, rel=1e-3)


def test_window_integrals_zero_drift():
    model = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    params = NorrisParams(
        window=(0.0, 0.5), regime=1, direction=[0.0, 1.0], eps_grid=[0.1]
    )
    fld = constant_field(model.sigma)
    i_field, i_bracket, _ = _window_integrals(model, 0.5, 32, 2, params, fld)
    assert i_bracket == 0.0
    assert i_field == pytest.approx(0.5, abs=1e-12)


def test_window_integrals_opening_after_zero():
    # K runs along the base regimes up to t1, then in the frozen regime with the
    # frozen state; both integrals by the trapezoid rule on the window grid
    model = make_two_regime_linear()
    params = NorrisParams(
        window=(0.25, 0.75), regime=2, direction=[1.0, 0.0], eps_grid=[0.1]
    )
    fld = scaled_cos_field(model.sigma)
    i_field, i_bracket, noise = _window_integrals(model, 1.0, 64, 5, params, fld)
    base = batch_flows(model, noise, want_Q=False, record=True)
    times, X, alpha = noise.times[0], base.X_path[0], base.alpha_path[0]
    k1, k2 = np.searchsorted(times, [0.25, 0.75])
    assert times[k1] == 0.25 and times[k2] == 0.75
    assert len(set(alpha[: k1 + 1])) == 2  # the prefix crosses a switch

    K = np.eye(2)
    for k in range(k1):
        dt = times[k + 1] - times[k]
        K = K - K @ (model.drift_jac(X[k], alpha[k]) * dt)
    x = X[k1].copy()
    y_field, y_bracket = [], []
    for k in range(k1, k2 + 1):
        v = params.direction @ K
        y_field.append(np.sum((v @ fld.value(x, 2)) ** 2))
        y_bracket.append(np.sum((v @ drift_field_bracket(model, fld, x, 2)) ** 2))
        if k == k2:
            break
        dt = times[k + 1] - times[k]
        K = K - K @ (model.drift_jac(x, 2) * dt)
        dw = math.sqrt(noise.dS[0, k]) * noise.normals[0, k]
        x = x + model.drift(x, 2) * dt + model.sigma @ dw
    t = times[k1 : k2 + 1]
    assert i_field == pytest.approx(np.trapezoid(y_field, t), rel=1e-12)
    assert i_bracket == pytest.approx(np.trapezoid(y_bracket, t), rel=1e-12)


@pytest.mark.parametrize(
    "model, t1",
    [(make_two_regime_linear(switch_rate=3.0, state_dependent=True), 0.25), (make_kalman(), 0.0)],
    ids=["two_regime_linear_state", "kalman"],
)
def test_window_integrals_equal_the_recorded_base_recipe(model, t1):
    # reference: the whole horizon recorded, then the frozen window integrated from
    # each path's recorded X and K at t1; opening the window by integrating up to
    # t1 gives every path's integrals bit for bit
    noise = sample_batch_noise(
        model, LEVY, 1.0, 64, *sde_core.seed_blocks(3, sde_core.STREAM_NORRIS, 0, 100)
    )
    params = NorrisParams(
        window=(t1, t1 + 0.5), regime=model.rates.m0, direction=[1.0, 0.0], eps_grid=[0.1]
    )
    fld = scaled_cos_field(model.sigma)
    base = batch_flows(model, noise, want_Q=False, record=True)
    times = np.broadcast_to(noise.times, (noise.n_paths, noise.times.shape[-1]))
    rows, k1 = np.arange(noise.n_paths), np.argmax(np.abs(times - t1) <= 1e-10, axis=1)
    if t1 > 0:  # per-path grids, and some paths switch before the window opens
        assert noise.times.ndim == 2 and any(0 < j <= k1[p] for p, j, _ in noise.events)
    win = replace(noise.window(*params.window), events=[])
    frozen = batch_flows(
        model, win, x0=base.X_path[rows, k1], K0=base.K_path[rows, k1],
        alpha0=params.regime, want_Q=False, record=True,
    )
    X, a = frozen.X_path, frozen.alpha_path
    vk = np.einsum("a,pkab->pkb", params.direction, frozen.K_path)
    dt = np.diff(np.broadcast_to(win.times, a.shape), axis=1)

    def trapezoid(w):
        y = np.sum(np.einsum("pkb,pkbv->pkv", vk, w) ** 2, axis=-1)
        return np.cumsum(dt * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)[:, -1]

    want = trapezoid(fld.value(X, a)), trapezoid(drift_field_bracket(model, fld, X, a))
    for got, ref in zip(window_integrals(model, noise, params, fld), want):
        assert got.tobytes() == ref.tobytes()


# -- exit verdicts --------------------------------------------------------------


def _tail(slope, stderr):
    three = np.array([0.1, 0.2, 0.3])
    return TailCurve(three, three, three, three, np.array([5, 10, 15]), slope, stderr, 100)


def _norris(probs):
    two = np.array([0.1, 0.01])
    return NorrisCurve(two, np.array(probs), np.array([0.01, 0.01]), np.zeros(2, int), two, 100)


def _gradrep(residual):
    two = np.array([0.1, 0.1])
    return GradRepResult(np.array(residual), two, two, two, two, two, 1e-3, 100, 16)


def _verdict_pairs():
    """Each builder on hand-built statistics: (holding verdict, failing verdict)."""
    model = make_kalman()
    eps = np.geomspace(1e-1, 1e-4, 7)
    tol = product_defect_tolerance(model.n, model.grad_bound, 1.0, 0.01)
    return {
        "product_defect": [product_defect_verdict(d, model, 1.0, 0.01) for d in (tol, 1.01 * tol)],
        "exp_bound": [exp_bound_verdict(e, 0.01) for e in (0.1, 0.101)],  # 10 grid steps
        "kappa1": [kappa1_verdict(k, 1e-8) for k in (2e-8, 1e-8)],
        "tail_slope": [tail_verdict(_tail(s, 0.25)) for s in (0.51, 0.5)],  # slope > 2 se
        "ks_split": [ks_verdict(KSResult(0.1, p, 100, 100)) for p in (0.01, 0.0099)],
        "h3_balance": [
            h3_verdict(check_H3(LevyMeasureSpec(alpha=1.0), theta, eps)) for theta in (1.0, 1.5)
        ],
        "norris_monotone": [norris_verdict(_norris(p)) for p in ([0.1, 0.12], [0.1, 0.13])],
        "gradrep_ratio": [gradrep_verdict(_gradrep(r)) for r in ([0.3, -0.1], [0.1, -0.31])],
    }


# how each verdict compares its statistic with its bound; the rest hold at statistic <= bound
COMPARES = {"kappa1": operator.gt, "tail_slope": operator.gt, "ks_split": operator.ge}


@pytest.mark.parametrize("name", list(_verdict_pairs()))
def test_each_verdict_flips_at_its_bound(name):
    holding, failing = _verdict_pairs()[name]
    assert holding.holds and not failing.holds
    assert holding.name == failing.name == name and holding.bound == failing.bound
    rule = COMPARES.get(name, operator.le)
    for v in (holding, failing):
        assert v.holds == rule(v.statistic, v.bound)  # holds reads only the record's own numbers
        record = json.loads(json.dumps(asdict(v)))
        assert set(record) == {f.name for f in fields(Verdict)} and record["certifies"]
        assert isinstance(record["holds"], bool) and isinstance(record["statistic"], float)
    if name == "tail_slope":
        assert (holding.stderr, holding.bound) == (0.25, 0.5)  # bound = TAIL_Z * stderr


def test_norris_curve_monotonicity_rule():
    mk = lambda probs, se: NorrisCurve(
        eps=np.array([0.1, 0.01]),
        probs=np.array(probs),
        se=np.array(se),
        counts=np.zeros(2, dtype=int),
        thresholds=np.zeros(2),
        n_paths=100,
    )
    assert norris_verdict(mk([0.3, 0.1], [0.01, 0.01])).holds
    assert norris_verdict(mk([0.10, 0.11], [0.01, 0.01])).holds  # within slack
    assert not norris_verdict(mk([0.1, 0.3], [0.01, 0.01])).holds


def test_norris_probability_curve_zero_drift_vanishes():
    model = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    params = NorrisParams(
        window=(0.0, 0.25), regime=1, direction=[0.0, 1.0], eps_grid=[0.1, 0.01]
    )
    curve = norris_joint_probability(
        model, LEVY, horizon=0.25, n_steps=8, params=params,
        fld=constant_field(model.sigma), n_paths=30, seed=0,
    )
    assert np.all(curve.probs == 0.0)
    assert np.all(curve.counts == 0)
    assert norris_verdict(curve).holds


def test_norris_probability_curve_deterministic():
    model = make_kalman()
    params = NorrisParams(
        window=(0.0, 0.25), regime=1, direction=[1.0, 0.0], eps_grid=[0.1, 0.03]
    )
    fld = scaled_cos_field(model.sigma, amp=1.0, freq=3.0)
    runs = [
        norris_joint_probability(
            model, LEVY, 0.25, 8, params, fld, n_paths=25, seed=3
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
        LEVY_UNIT,
        horizon=1.0,
        n_steps=64,
        n_paths=4000,
        f=lambda x: np.sin(x @ w),
        grad_f=lambda x: np.cos(x @ w)[:, None] * w,
        seed=0,
    )
    assert gradrep_verdict(res).holds
    assert res.combined_se.shape == (2,)
    assert np.all(res.combined_se > 0)
    with pytest.raises(ValueError):
        gradient_representation_check(
            model, LEVY, 1.0, 63, 100, f=lambda x: x[:, 0], grad_f=lambda x: x
        )


def test_gradient_representation_coarse_run_integrates_the_starts_it_reads(monkeypatch):
    # the half-resolution residual reads the center and the +-eta starts only
    model, calls = make_kalman(), []

    def spy(model, noise, x0=None, **kw):
        calls.append((noise.dS.shape[1], np.shape(x0)))
        return batch_flows(model, noise, x0=x0, **kw)

    monkeypatch.setattr(diagnostics, "batch_flows", spy)
    w = np.array([1.0, 0.7])
    gradient_representation_check(
        model, LEVY_UNIT, 1.0, 16, 100, f=lambda x: np.sin(x @ w),
        grad_f=lambda x: np.cos(x @ w)[:, None] * w, seed=2,
    )
    assert calls == [(16, (9, 1, 2)), (8, (5, 1, 2))]


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
    )
    fast = gradient_representation_check(model, LEVY_UNIT, **kw)
    slow = gradient_representation_check(replace(model, affine=None), LEVY_UNIT, **kw)
    for name in ("residual", "se_mc", "fd_bias", "dt_bias", "lhs"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name


@pytest.mark.parametrize(
    "model",
    [make_kalman(), make_two_regime_linear(switch_rate=3.0), make_sin_bounded(switch_rate=3.0)],
    ids=lambda m: m.name,
)
def test_tiles_of_one_seed_block_change_no_bit(model, monkeypatch):
    # 330 paths in one gradrep tile of 2048 or in six tiles of 64, and in one
    # covariance bundle or six of one seed block: every gradrep field and every
    # covariance draw keeps its bits
    w = np.array([1.0, 0.7])
    gradrep = dict(
        horizon=1.0,
        n_steps=16,
        n_paths=330,
        f=lambda x: np.sin(x @ w),
        grad_f=lambda x: np.cos(x @ w)[:, None] * w,
        seed=5,
    )
    calls = []
    sample = sde_core.sample_batch_noise

    def spy(*args):
        noise = sample(*args)
        calls.append((noise.n_paths, noise.times.ndim))
        return noise

    runs = {}
    for tile, budget in ((sde_core.PATH_TILE, sde_core.BUNDLE_BYTES), (sde_core.SEED_BLOCK, 0)):
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "PATH_TILE", tile)
            m.setattr(sde_core, "BUNDLE_BYTES", budget)
            m.setattr(sde_core, "sample_batch_noise", spy)
            runs[tile] = (
                gradient_representation_check(model, LEVY_UNIT, **gradrep),
                sample_covariances(model, LEVY_UNIT, 1.0, 16, 330, seed=9),
            )
    assert [size for size, _ in calls] == [330, 330] + [64] * 5 + [10] + [64] * 5 + [10]
    # per-path grids whenever the model switches
    assert {ndim for _, ndim in calls} == {1 + (model.rates.m0 > 1)}
    (whole, q_whole), (tiled, q_tiled) = runs.values()
    for name, value in vars(whole).items():
        assert np.asarray(getattr(tiled, name)).tobytes() == np.asarray(value).tobytes(), name
    assert q_tiled.tobytes() == q_whole.tobytes()


@pytest.mark.parametrize("model", ["kalman", "sin_bounded"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sample_covariances_reads_the_draws_of_tails(model, workers, tmp_path, monkeypatch):
    cfg = RunConfig.from_dict(
        {
            "seed": 7,
            "workers": workers,
            "model": {"name": model, "params": {"switch_rate": 3.0} if model == "sin_bounded" else {}},
            "levy": {"upper_cutoff": 4.0},
            "simulation": {"horizon": 1.0, "n_steps": 16, "n_paths": 3000},
            "output": {"dir": str(tmp_path)},
        }
    )
    seen = []

    def spy(lam, **kw):
        seen.append(lam)
        return eigen_tail(lam, **kw)

    monkeypatch.setattr(runner, "eigen_tail", spy)
    manifest = runner.run_tails(cfg)
    assert manifest["workers_used"] == workers
    sim = cfg.simulation
    Q = sample_covariances(cfg.model.build(), cfg.levy.build(), sim.horizon, sim.n_steps,
                           sim.n_paths, cfg.seed)
    assert np.linalg.eigvalsh(Q)[:, 0].tobytes() == seen[0].tobytes()


@pytest.mark.parametrize(
    "run",
    [
        lambda n: gradient_representation_check(
            make_kalman(), LEVY, 1.0, 4, n, f=lambda x: x[:, 0], grad_f=lambda x: x
        ),
        lambda n: sample_covariances(make_kalman(), LEVY, 1.0, 4, n, seed=0),
        lambda n: norris_joint_probability(
            make_kalman(), LEVY, 1.0, 4, NorrisParams((0.0, 0.5), 1, [1.0, 0.0], [0.1, 0.01]),
            constant_field(make_kalman().sigma), n, seed=0,
        ),
    ],
    ids=["gradient_representation_check", "sample_covariances", "norris_joint_probability"],
)
@pytest.mark.parametrize("n_paths", [0, -3])
def test_monte_carlo_loops_reject_zero_paths(run, n_paths):
    with pytest.raises(ValueError, match="n_paths >= 1"):
        run(n_paths)


def _traced_peak(call):
    """Peak bytes that tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_representation_memory_scales_with_a_tile():
    # kalman at 512 steps: one tile's noise (17 MB), merged in place for the
    # half-resolution run, the flows and the per-path values, about 22 MB
    # whether 8000 paths (the benchmark's gradrep size) or 20000; a separate
    # half-resolution copy would read 30 MB
    w = np.array([1.0, 0.7])
    levy = LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0)
    for n_paths in (8000, 20000):
        peak = _traced_peak(lambda: gradient_representation_check(
            make_kalman(), levy, 1.0, 512, n_paths,
            f=lambda x: np.sin(x @ w), grad_f=lambda x: np.cos(x @ w)[:, None] * w,
        ))
        assert peak <= 24e6, n_paths
    # sin_bounded at 8192 paths x 256 steps, in the 512-path bundles of
    # bundle_ranges: one bundle's noise is 3.1 MB and the call peaks at about
    # 7.3 MB; a previous bundle still held would read 11.8 MB
    model = make_sin_bounded()
    peak = _traced_peak(lambda: sample_covariances(model, levy, 1.0, 256, 8192, seed=5))
    assert peak <= 9e6


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


def test_kde_rejects_a_bandwidth_that_overflows():
    # the density stays finite, but its standard error overflows
    y = np.random.default_rng(3).standard_normal(100)
    with pytest.raises(NumericError, match="not finite"):
        kde_density(y, bandwidth=1e-300)
    # far-away kernels overflow u**2 to a kernel value of exactly 0, which is no error
    est = kde_density(y * 1e10, bandwidth=1e-145)
    assert np.all(np.isfinite(est.values)) and np.all(np.isfinite(est.se))
