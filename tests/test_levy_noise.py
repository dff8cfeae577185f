"""Tests for the subordinator noise layer.

Expected values are frozen from closed forms of the unnormalized density
u**-(1+alpha/2): tail mass (a**-b - hi**-b)/b with b = alpha/2, small-jump
mean 2 delta**(1-alpha/2) / (2-alpha), and for alpha=1 the exact law
S_1 = 2*pi / Z**2 with Z standard normal, giving P(S_1 <= 1) = erfc(sqrt(pi)).
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from switchsde import (
    DataError,
    DecompositionSpec,
    LevyMeasureSpec,
    SpecError,
    check_H3,
    decompose_large_jumps,
    levy_measure_of_L,
    load_tabulated_csv,
    make_zero_drift,
    sample_increments,
    sample_xi,
    simulate_path,
    small_jump_drift,
    standard_positive_stable,
    xi_density,
)
from switchsde.levy_noise import stable_laplace_coefficient

# frozen closed-form constants for alpha = 1
TWO_SQRT_PI = 3.5449077018110318  # Gamma(1/2) / (1/2)
P_S1_LE_1 = 0.012188882184802895  # erfc(sqrt(pi))
E_INV_S1 = 0.15915494309189535  # 1 / (2 pi)


def test_laplace_coefficient_alpha_one():
    assert stable_laplace_coefficient(1.0) == pytest.approx(TWO_SQRT_PI, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5])
def test_stable_sampler_laplace_transform(alpha):
    # E exp(-X) = exp(-1) for the standardized one-sided stable draw
    beta = alpha / 2.0
    rng = np.random.default_rng(101)
    x = standard_positive_stable(beta, 200_000, rng)
    vals = np.exp(-x)
    target = math.exp(-1.0)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) < 4 * se


def test_stable_sampler_rejects_bad_exponent():
    rng = np.random.default_rng(0)
    for beta in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            standard_positive_stable(beta, 4, rng)


def test_unit_time_cdf_matches_levy_law():
    # alpha=1: S_1 = 2 pi / Z^2, so P(S_1 <= 1) = erfc(sqrt(pi))
    assert special.erfc(math.sqrt(math.pi)) == pytest.approx(P_S1_LE_1, abs=1e-17)
    spec = LevyMeasureSpec(alpha=1.0)
    s1 = sample_increments(spec, np.array([1.0]), 400_000, seed=7)[:, 0]
    p_hat = float(np.mean(s1 <= 1.0))
    se = math.sqrt(P_S1_LE_1 * (1 - P_S1_LE_1) / s1.size)
    assert abs(p_hat - P_S1_LE_1) < 4 * se


def test_increment_laplace_transform_over_time():
    # E exp(-S_t) = exp(-t * C(alpha)) for every step size
    spec = LevyMeasureSpec(alpha=1.0)
    dts = np.array([0.1, 0.25, 0.5])
    incr = sample_increments(spec, dts, 100_000, seed=11)
    for j, dt in enumerate(dts):
        vals = np.exp(-incr[:, j])
        target = math.exp(-dt * TWO_SQRT_PI)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) < 4 * se


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
def test_tail_mass_closed_form(alpha):
    spec = LevyMeasureSpec(alpha=alpha)
    beta = alpha / 2.0
    for a, b in [(0.25, 1.0), (1.0, None), (0.04, 9.0)]:
        hi = math.inf if b is None else b
        expected = (a**-beta - (0.0 if math.isinf(hi) else hi**-beta)) / beta
        assert spec.mass(a, b) == pytest.approx(expected, rel=1e-12)
    # dual route: adaptive quadrature on a finite window
    num, _ = integrate.quad(lambda u: u ** -(1 + beta), 0.25, 1.0)
    assert spec.mass(0.25, 1.0) == pytest.approx(num, rel=1e-9)


def test_mean_between_dual_route():
    spec = LevyMeasureSpec(alpha=1.0)
    assert spec.mean_between(0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert spec.mean_between_quad(0.0, 1.0) == pytest.approx(2.0, rel=1e-8)
    assert spec.mean_between(0.0, 0.25) == pytest.approx(1.0, abs=1e-12)


def test_small_jump_drift_values():
    spec = LevyMeasureSpec(alpha=1.0)
    assert small_jump_drift(spec, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert small_jump_drift(spec, 0.25) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        small_jump_drift(spec, 0.0)
    with pytest.raises(ValueError):
        small_jump_drift(spec, 1.5)


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        LevyMeasureSpec(kind="weird")
    with pytest.raises(SpecError):
        LevyMeasureSpec(alpha=2.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(alpha=0.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(kind="tabulated", alpha=None)
    with pytest.raises(SpecError):
        LevyMeasureSpec(small_jump_cutoff=0.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(upper_cutoff=-1.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(kind="atoms", atoms=((1.0, -2.0),))


def test_truncated_moments():
    # measure cut at 1: mean integral(0,1) u nu = 2, variance integral u^2 nu = 2/3
    spec = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0, small_jump_cutoff=1e-4)
    incr = sample_increments(spec, np.array([1.0]), 200_000, seed=3)[:, 0]
    se_mean = incr.std(ddof=1) / math.sqrt(incr.size)
    assert abs(incr.mean() - 2.0) < 4 * se_mean
    var = incr.var(ddof=1)
    se_var = np.sqrt(np.var((incr - incr.mean()) ** 2, ddof=1) / incr.size)
    assert abs(var - 2.0 / 3.0) < 4 * se_var + 1e-3


def test_path_and_batch_share_one_law():
    # cells over each path's own (refined, padded) grid add up to the law of
    # one increment over the whole horizon, as the shared grid's cells do
    spec = LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0)
    n = 30_000
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.uniform(0.0, 1.0, (n, 6)), axis=1)
    rows = np.diff(np.column_stack([np.zeros(n), cuts, np.ones((n, 3))]), axis=1)
    per_path = sample_increments(spec, rows, n, seed=6)
    assert per_path.shape == (n, 9) and np.all(per_path >= 0)
    assert np.all(per_path[:, -2:] == 0.0)  # the zero-length padding cells
    shared = sample_increments(spec, np.full(8, 0.125), n, seed=7)
    d, p = stats.ks_2samp(per_path.sum(axis=1), shared.sum(axis=1))
    assert p > 0.01


@pytest.mark.parametrize(
    "spec",
    [
        LevyMeasureSpec(alpha=1.0),
        LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0),
        LevyMeasureSpec(kind="tabulated", alpha=None, density=lambda u: u**-1.5, support=(0.05, 2.0)),
        LevyMeasureSpec(kind="atoms", alpha=None, atoms=((0.5, 40.0), (2.0, 10.0))),
    ],
    ids=["stable", "truncated", "tabulated", "atoms"],
)
def test_zero_length_cells_draw_exactly_zero(spec):
    # padded (P, K) grids: every dt = 0 cell gets dS = +0.0, bit for bit
    rng = np.random.default_rng(12)
    dts = rng.uniform(0.0, 0.2, (64, 12))
    dts[rng.uniform(size=dts.shape) < 0.3] = 0.0
    dts[:, -3:] = 0.0
    incr = sample_increments(spec, dts, 64, seed=13)
    zero = dts == 0.0
    assert incr[zero].tobytes() == np.zeros(int(zero.sum())).tobytes()
    assert np.all(incr[~zero] >= 0.0) and incr[~zero].max() > 0.0


def test_path_rejects_bad_horizon_and_grid():
    model = make_zero_drift(n=1, d=1)
    spec = LevyMeasureSpec(alpha=1.0)
    for horizon, grid_step in ((0.0, 0.1), (1.0, 0.0), (math.nan, 0.1), (1.0, math.nan)):
        with pytest.raises(ValueError):
            simulate_path(model, spec, horizon, grid_step, seed=0)


def test_decomposition_constants():
    spec = LevyMeasureSpec(alpha=1.0)
    decomp = decompose_large_jumps(spec)
    assert decomp.lambda1 == pytest.approx(2.0, abs=1e-14)
    assert decomp.truncated.upper_cutoff == 1.0
    # inverse tail cdf: (1-u)^(-2/alpha); median mixing variance is 4
    assert decomp._mixing_inverse(0.5) == pytest.approx(4.0, abs=1e-12)
    assert decomp._mixing_inverse(0.0) == pytest.approx(1.0, abs=1e-12)
    med = np.median(decomp.sample_mixing(200_001, seed=21))
    assert abs(med - 4.0) < 0.15


def test_truncated_split_draws_below_upper_cutoff():
    # tail of u^-3/2 on (1, 4), normalized: F(s) = 2 (1 - s^-1/2), median (3/4)^-2 = 16/9
    decomp = decompose_large_jumps(LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0))
    assert decomp.lambda1 == pytest.approx(1.0, abs=1e-14)
    s = decomp.sample_mixing(100_000, seed=22)
    assert s.min() > 1.0 and s.max() <= 4.0
    assert abs(np.median(s) - 16.0 / 9.0) < 0.02


def test_atom_split_matches_tail_rate():
    # the atom at 2 is the whole tail (lambda1 = 1); the atom at 0.5 stays in the truncated part
    spec = LevyMeasureSpec(kind="atoms", alpha=None, atoms=((0.5, 2.0), (2.0, 1.0)))
    decomp = decompose_large_jumps(spec)
    assert decomp.lambda1 == pytest.approx(1.0)
    assert np.all(decomp.sample_mixing(1000, seed=3) == 2.0)
    assert decomp.truncated.mass(0.0) == pytest.approx(2.0)


def test_atom_at_unit_cutoff_belongs_to_truncated_part():
    # atoms count on (a, hi], so the split at 1 partitions the mass: 2 below, 1 above
    spec = LevyMeasureSpec(kind="atoms", alpha=None, atoms=((1.0, 2.0), (2.0, 1.0)))
    decomp = decompose_large_jumps(spec)
    assert decomp.truncated.mass(0.0) + decomp.lambda1 == spec.mass(0.0) == 3.0
    assert decomp.truncated.mass(0.0) == 2.0
    assert decomp.truncated.mean_between(0.0, 1.0) == 2.0
    incr = sample_increments(decomp.truncated, np.array([1.0]), 2000, seed=4)[:, 0]
    assert np.all(np.isin(incr, np.arange(0.0, 40.0)))  # sums of unit jumps
    assert incr.max() > 0.0


def test_decomposition_rejects_trivial_split():
    with pytest.raises(SpecError):
        decompose_large_jumps(LevyMeasureSpec(alpha=1.0, upper_cutoff=0.5))


def test_xi_moments_and_density():
    decomp = decompose_large_jumps(LevyMeasureSpec(alpha=1.0))
    xi, s = sample_xi(decomp, d=2, seed=13, size=100_000, return_mixing=True)
    assert xi.shape == (100_000, 2)
    # conditional on s, each coordinate is N(0, s); E s = integral s * tail density
    # diverges for alpha=1, so probe P(|xi_1| <= 1 | s) averaged: MC vs quadrature
    p_hat = float(np.mean(np.abs(xi[:, 0]) <= 1.0))
    target, _ = integrate.quad(
        lambda u: math.erf(1.0 / math.sqrt(2.0 * (1 - u) ** -2.0)), 0.0, 1.0
    )
    se = math.sqrt(target * (1 - target) / xi.shape[0])
    assert abs(p_hat - target) < 4 * se
    # density integrates the same mixture
    val = xi_density(decomp, np.array([1.0, 0.0]), d=2)
    check, _ = integrate.quad(
        lambda s_: (2 * math.pi * s_) ** -1.0 * math.exp(-1.0 / (2 * s_)) * s_**-1.5,
        1.0,
        np.inf,
    )
    assert val == pytest.approx(check / 2.0, rel=1e-8)


def test_driver_measure_positive_and_scaling():
    spec = LevyMeasureSpec(alpha=1.0)
    v1 = levy_measure_of_L(spec, np.array([1.0]))
    v2 = levy_measure_of_L(spec, np.array([2.0]))
    assert v1 > 0 and v2 > 0
    # nu_L inherits the alpha-stable scaling: nu_L(2y) = 2^-(1+alpha) nu_L(y) in d=1
    assert v2 / v1 == pytest.approx(0.25, rel=1e-6)
    with pytest.raises(ValueError):
        levy_measure_of_L(spec, np.zeros(2))


def test_h3_probe_verdicts():
    eps = np.geomspace(1e-1, 1e-5, 9)
    spec = LevyMeasureSpec(alpha=1.0)
    res = check_H3(spec, theta=1.0, eps_grid=eps)
    assert res.holds and res.c_theta == pytest.approx(2.0, rel=1e-6)
    res_half = check_H3(LevyMeasureSpec(alpha=0.5), theta=0.5, eps_grid=eps)
    assert res_half.holds and res_half.c_theta == pytest.approx(4.0 / 3.0, rel=1e-6)
    # theta above alpha: probe decays; below: diverges
    assert check_H3(spec, theta=1.5, eps_grid=eps).verdict == "tends_to_zero"
    assert check_H3(spec, theta=0.5, eps_grid=eps).verdict == "diverges"
    with pytest.raises(ValueError):
        check_H3(spec, theta=1.0, eps_grid=[0.1, 0.05, 0.02])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tabulated_csv_round_trip(tmp_path):
    # quadrature across the table's kinks warns about roundoff; accuracy is
    # checked against the closed form below
    u = np.linspace(0.05, 2.0, 200)
    dens = u ** -1.5
    f = tmp_path / "table.csv"
    np.savetxt(f, np.column_stack([u, dens]), delimiter=",", header="u,density")
    spec = load_tabulated_csv(f)
    assert spec.kind == "tabulated"
    assert spec.support == (0.05, 2.0)
    ref = LevyMeasureSpec(alpha=1.0)
    assert spec.mass(0.25, 1.0) == pytest.approx(ref.mass(0.25, 1.0), rel=1e-3)
    assert spec.mean_between(0.25, 1.0) == pytest.approx(
        ref.mean_between(0.25, 1.0), rel=1e-3
    )
    incr = sample_increments(spec, np.array([[0.25, 0.5, 0.25, 0.0]]), 2000, seed=40)
    assert np.all(incr[:, :3] >= 0) and np.all(incr[:, 3] == 0.0)


def test_tabulated_csv_rejects_bad_tables(tmp_path):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array([[0.1, 1.0, 2.0]]), delimiter=",", header="u,density,x")
    with pytest.raises(DataError):
        load_tabulated_csv(bad)
    neg = tmp_path / "neg.csv"
    np.savetxt(neg, np.array([[0.1, 1.0], [0.2, -1.0]]), delimiter=",", header="u,d")
    with pytest.raises(DataError):
        load_tabulated_csv(neg)


def test_atoms_measure():
    spec = LevyMeasureSpec(kind="atoms", alpha=None, atoms=((0.5, 2.0), (2.0, 1.0)))
    assert spec.mass(0.0) == pytest.approx(3.0)
    assert spec.mean_between(0.0, 1.0) == pytest.approx(1.0)
    incr = sample_increments(spec, np.array([1.0]), 50_000, seed=31)[:, 0]
    # compound Poisson mean = integral u nu = 0.5*2 + 2*1 = 3
    se = incr.std(ddof=1) / math.sqrt(incr.size)
    assert abs(incr.mean() - 3.0) < 4 * se


def test_integrability_functional():
    # integral (1 ^ u) nu(du) = 2 + 2 = 4 for alpha=1
    assert LevyMeasureSpec(alpha=1.0).check_integrability() == pytest.approx(4.0, rel=1e-8)
