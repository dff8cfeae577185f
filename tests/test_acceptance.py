"""End-to-end acceptance criteria.

Each test records one verdict line "[AC-NN] PASS/FAIL detail" (replayed in
the terminal summary by conftest) and then asserts it.  Statistical criteria
use frozen seeds with tolerances stated next to each check; closed-form
targets are written out as literals with their derivation in a comment.
"""

import math
import pickle
import time
from functools import partial

import numpy as np

import conftest

from switchsde import (
    LevyMeasureSpec,
    NorrisParams,
    RunConfig,
    batch_flows,
    check_H3,
    constant_direction,
    constant_field,
    decomposition_ks_test,
    eigen_tail,
    estimate_kappa1,
    exp_bound_excess,
    finite_difference_check,
    gradient_representation_check,
    ks_calibration,
    make_kalman,
    make_linear,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    negative_moment,
    norris_joint_probability,
    product_defect,
    product_defect_tolerance,
    sample_batch_noise,
    sample_covariances,
    sample_increments,
    scaled_cos_field,
    constant_rates,
)
from switchsde.diagnostics import (
    gradrep_verdict,
    h3_verdict,
    kappa1_verdict,
    ks_verdict,
    norris_verdict,
    tail_verdict,
)
from switchsde.runner import run_simulate

LEVY = LevyMeasureSpec(alpha=1.0)

# closed forms for the alpha = 1 driver
P_S1_LE_1 = 0.012188882184802895  # P(S_1 <= 1) = erfc(sqrt(pi)), S_1 = 2 pi / Z^2
E_INV_S1 = 0.15915494309189535  # E[1/S_1] = 1/(2 pi)
P_SAME_STATE = 0.5676676416183064  # (1 + e^-2)/2, symmetric two-state chain at t=1


def report(tag: str, passed: bool, detail: str):
    line = f"[{tag}] {'PASS' if passed else 'FAIL'} {detail}"
    conftest.record_verdict(line)
    print(line)
    assert passed, line


def test_ac01_flow_inverse_defect_bound():
    t0 = time.perf_counter()
    model = make_two_regime_linear()
    dt = 1e-3
    tol = product_defect_tolerance(model.n, model.grad_bound, 1.0, dt)
    worst = 0.0
    for lo in range(0, 100, 64):
        noise = sample_batch_noise(model, LEVY, 1.0, 1000, min(64, 100 - lo), seed=lo)
        res = batch_flows(model, noise, want_J=True, want_Q=False, record=True)
        worst = max(worst, float(product_defect(res.J_path, res.K_path).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 10.0
    report(
        "AC-01",
        ok,
        f"max |J K - I| = {worst:.3e} <= {tol:.3e} over 100 switching paths "
        f"at dt={dt} in {elapsed:.1f}s",
    )


def test_ac02_flow_norm_envelope():
    model = make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0))
    dt = 1.0 / 256
    worst = -np.inf
    for lo in range(0, 1000, 64):
        noise = sample_batch_noise(model, LEVY, 1.0, 256, min(64, 1000 - lo), seed=lo)
        res = batch_flows(model, noise, want_J=True, want_Q=False, record=True)
        excess = exp_bound_excess(res.J_path, res.K_path, noise.times, model.grad_bound)
        worst = max(worst, excess)
    ok = worst <= 10.0 * dt
    report(
        "AC-02",
        ok,
        f"flow norms exceed exp(L t) by at most {worst:.3e} <= {10 * dt:.3e} "
        f"over 1000 paths",
    )


def test_ac03_driftless_covariance_is_the_clock():
    model = make_zero_drift(n=2, d=2)
    worst = 0.0
    for seed in range(50):
        noise = sample_batch_noise(model, LEVY, 1.0, 512, 1, seed)
        res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
        J, Q = res.J_path[0], res.Q_path[0]
        M = J @ Q @ np.swapaxes(J, 1, 2)
        expect = np.concatenate([[0.0], np.cumsum(noise.dS[0])])[:, None, None] * np.eye(2)
        worst = max(worst, float(np.max(np.abs(M - expect))))
    ok = worst <= 1e-12
    report("AC-03", ok, f"max |M_t - S_t I| = {worst:.3e} <= 1e-12 over 50 paths")


def test_ac04_perturbation_response_slope():
    model = make_sin_bounded(n=2, d=1, sigma=[[0.0], [1.0]], amp=(0.8, 0.5), freq=(1.0, 2.0))
    pert = constant_direction([0.05], upto=50.0)
    slopes = []
    for seed in (0, 1, 2):
        noise = sample_batch_noise(model, LEVY, 1.0, 64, 1, seed)
        base = batch_flows(model, noise, want_Q=False, record=True)
        res = finite_difference_check(
            model, noise, base, pert, eps_list=[1e-1, 1e-2, 1e-3, 1e-4]
        )
        slopes.append(res.slope)
    ok = all(0.9 <= s <= 1.1 for s in slopes)
    report(
        "AC-04",
        ok,
        "first-order response slopes "
        + ", ".join(f"{s:.4f}" for s in slopes)
        + " all within [0.9, 1.1]",
    )


def test_ac05_regime_marginal_matches_two_state_law():
    t0 = time.perf_counter()
    # the engine's own chain: zero drift, so only the regime moves
    model = make_linear(np.zeros((2, 1, 1)), rates=constant_rates([[-1.0, 1.0], [1.0, -1.0]]))
    n = 100_000
    noise = sample_batch_noise(model, LEVY, 1.0, 16, n, seed=0)
    res = batch_flows(model, noise, want_Q=False, record=True)
    p_hat = float(np.mean(res.alpha_path[:, -1] == 1))
    se = math.sqrt(P_SAME_STATE * (1 - P_SAME_STATE) / n)
    elapsed = time.perf_counter() - t0
    ok = abs(p_hat - P_SAME_STATE) <= 3 * se and elapsed < 30.0
    report(
        "AC-05",
        ok,
        f"P(alpha_1 = 1) = {p_hat:.5f} vs (1+e^-2)/2 = {P_SAME_STATE:.5f} "
        f"(|diff| = {abs(p_hat - P_SAME_STATE):.2e} <= 3 se = {3 * se:.2e}, "
        f"n = {n}, {elapsed:.1f}s)",
    )


def test_ac06_small_jump_balance_constants():
    eps = np.geomspace(1e-1, 1e-4, 7)
    res1 = check_H3(LevyMeasureSpec(alpha=1.0), theta=1.0, eps_grid=eps)
    res2 = check_H3(LevyMeasureSpec(alpha=0.5), theta=0.5, eps_grid=eps)
    # c_theta = 2/(2 - alpha): 2 at alpha=1, 4/3 at alpha=0.5
    ok = (
        h3_verdict(res1).holds
        and abs(res1.c_theta - 2.0) <= 0.05 * 2.0
        and h3_verdict(res2).holds
        and abs(res2.c_theta - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
    )
    report(
        "AC-06",
        ok,
        f"balance constants {res1.c_theta:.6f} (target 2) and "
        f"{res2.c_theta:.6f} (target 4/3), both within 5%",
    )


def test_ac07_span_certificate_and_degenerate_witness():
    est = estimate_kappa1(make_kalman(), depth=2, radius=1.0, n_samples=64)
    degenerate = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    est0 = estimate_kappa1(degenerate, depth=3, radius=1.0, n_samples=64)
    ok = (
        abs(est.kappa1 - 1.0) <= 1e-6
        and kappa1_verdict(est.kappa1, 1e-8).holds
        and est0.kappa1 <= 1e-10
        and not kappa1_verdict(est0.kappa1, 1e-8).holds
    )
    report(
        "AC-07",
        ok,
        f"kappa_1 = {est.kappa1:.9f} (target 1 +- 1e-6); degenerate model "
        f"kappa_1 = {est0.kappa1:.1e} <= 1e-10 with witness direction "
        f"{np.round(est0.witness_direction, 6).tolist()}",
    )


def test_ac08_subordinator_marginals():
    n = 100_000
    s1 = sample_increments(LEVY, np.array([1.0]), n, seed=7)[:, 0]
    p_hat = float(np.mean(s1 <= 1.0))
    se_p = math.sqrt(P_S1_LE_1 * (1 - P_S1_LE_1) / n)
    trunc = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)
    st = sample_increments(trunc, np.array([1.0]), n, seed=8)[:, 0]
    se_m = st.std(ddof=1) / math.sqrt(n)
    # E S'_1 = integral(0,1) u nu(du) = 2
    ok = abs(p_hat - P_S1_LE_1) <= 3 * se_p and abs(st.mean() - 2.0) <= 3 * se_m
    report(
        "AC-08",
        ok,
        f"P(S_1 <= 1) = {p_hat:.6f} vs erfc(sqrt(pi)) = {P_S1_LE_1:.6f} "
        f"(3 se = {3 * se_p:.1e}); truncated mean = {st.mean():.4f} vs 2 "
        f"(3 se = {3 * se_m:.1e})",
    )


def test_ac09_inverse_clock_moment():
    t0 = time.perf_counter()
    n = 1_000_000
    s1 = sample_increments(LEVY, np.array([1.0]), n, seed=9)[:, 0]
    est = negative_moment(s1, order=1.0, cap=1e6)
    elapsed = time.perf_counter() - t0
    ok = (
        est.stable
        and abs(est.value - E_INV_S1) <= 0.10 * E_INV_S1
        and elapsed < 60.0
    )
    report(
        "AC-09",
        ok,
        f"E[1/S_1] = {est.value:.6f} vs 1/(2 pi) = {E_INV_S1:.6f} "
        f"({100 * abs(est.value - E_INV_S1) / E_INV_S1:.2f}% off, cap-stable="
        f"{est.stable}, n = {n}, {elapsed:.1f}s)",
    )


def test_ac10_decomposition_law_and_ks_calibration():
    res = decomposition_ks_test(LEVY, horizon=1.0, n_samples=20_000, seed=0)
    # both reject below KS_LEVEL = 0.01
    frac, hits = ks_calibration(lambda n, rng: rng.standard_normal(n), n=2000, reps=100, seed=0)
    ok = ks_verdict(res).holds and hits <= 2
    report(
        "AC-10",
        ok,
        f"split-rebuild KS p = {res.pvalue:.3f} >= 0.01 (n = 20000); "
        f"null rejection {hits}/100 <= 2 at the 1% level",
    )


def test_ac11_joint_window_curve():
    model = make_kalman(x0=[math.pi / 6, 0.0])
    params = NorrisParams(
        window=(0.0, 0.5),
        regime=1,
        direction=[1.0, 0.0],
        eps_grid=[0.03, 0.01, 0.003, 0.001, 0.0003],
        beta=0.5,
    )
    fld = scaled_cos_field(model.sigma, amp=1.0, freq=3.0)
    curve = norris_joint_probability(
        model, LEVY, horizon=0.5, n_steps=128, params=params, fld=fld,
        n_paths=1500, seed=0,
    )
    flat = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    params0 = NorrisParams(
        window=(0.0, 0.5), regime=1, direction=[0.0, 1.0], eps_grid=[0.03, 0.003]
    )
    curve0 = norris_joint_probability(
        flat, LEVY, horizon=0.5, n_steps=32, params=params0,
        fld=constant_field(flat.sigma), n_paths=200, seed=1,
    )
    ok = norris_verdict(curve).holds and np.all(curve0.probs == 0.0)  # NORRIS_Z = 2
    report(
        "AC-11",
        ok,
        "joint probabilities "
        + np.array2string(curve.probs, precision=4)
        + " nonincreasing within 2 se; zero-drift curve identically 0",
    )


def _sin_projection(w, x):
    return np.sin(x @ w)


def _sin_projection_grad(w, x):
    return np.cos(x @ w)[:, None] * w


def test_ac12_derivative_transfer_identity():
    # the small-jump part of LEVY, decompose_large_jumps(LEVY).truncated
    levy = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)
    details = []
    ok = True
    for model in (make_zero_drift(n=2, d=2), make_kalman()):
        w = np.array([1.0, 0.7])
        f, grad_f = partial(_sin_projection, w), partial(_sin_projection_grad, w)
        pickle.dumps((model, f, grad_f))  # so the tiles run on both workers
        res = gradient_representation_check(
            model,
            levy,
            horizon=1.0,
            n_steps=512,
            n_paths=100_000,
            f=f,
            grad_f=grad_f,
            seed=0,
            workers=2,
        )
        verdict = gradrep_verdict(res)  # GRADREP_Z = 3
        ok = ok and verdict.holds
        details.append(f"{model.name}: max |residual|/budget = {verdict.statistic:.2f}")
    report("AC-12", ok, "; ".join(details) + " (<= 3)")


def test_ac13_spectral_tail_decay():
    model = make_kalman()
    samples = sample_covariances(model, LEVY, horizon=1.0, n_steps=16,
                                 n_paths=100_000, seed=13)
    curve = eigen_tail(samples)
    ok = tail_verdict(curve).holds  # TAIL_Z = 2
    report(
        "AC-13",
        ok,
        f"P(lambda_min <= r) log-log slope = {curve.slope:.2f} "
        f"+- {curve.slope_stderr:.2f} > 0 at 2 se over {curve.n_samples} draws",
    )


def test_ac14_reproducible_across_workers(tmp_path):
    digests = {}
    for workers in (1, 8):
        cfg = RunConfig.from_dict(
            {
                "seed": 5,
                "workers": workers,
                "levy": {"upper_cutoff": 4.0},
                "simulation": {"horizon": 0.5, "grid_step": 1 / 64, "n_paths": 70},
                "output": {"dir": str(tmp_path / f"w{workers}"), "max_saved_paths": 4},
            }
        )
        manifest = run_simulate(cfg)
        digests[workers] = {k: v["sha256"] for k, v in manifest["files"].items()}
    ok = digests[1] == digests[8] and len(digests[1]) > 0
    report(
        "AC-14",
        ok,
        f"{len(digests[1])} output files bit-identical between 1 and 8 workers",
    )
