"""Tests for the subordinator noise layer.

Expected values are frozen from closed forms of the unnormalized density
u**-(1+alpha/2): tail mass (a**-b - hi**-b)/b with b = alpha/2, small-jump
mean 2 delta**(1-alpha/2) / (2-alpha), and for alpha=1 the exact law
S_1 = 2*pi / Z**2 with Z standard normal, giving P(S_1 <= 1) = erfc(sqrt(pi)).
"""

import math
import tracemalloc
from dataclasses import replace

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
    load_tabulated_csv,
    make_kalman,
    make_two_regime_linear,
    make_zero_drift,
    sample_batch_noise,
    sample_increments,
    sample_xi,
    small_jump_drift,
    standard_positive_stable,
)
from switchsde import levy_noise
from switchsde.diagnostics import h3_verdict
from switchsde.levy_noise import _truncated_size_sampler, stable_laplace_coefficient


def _table(lo, hi, points, density):
    """Tabulated measure through `points` geometric points of `density` on [lo, hi]."""
    u = np.geomspace(lo, hi, points)
    return LevyMeasureSpec(alpha=None, table=np.column_stack([u, density(u)]))


# frozen closed-form constants for alpha = 1
TWO_SQRT_PI = 3.5449077018110318  # Gamma(1/2) / (1/2)
P_S1_LE_1 = 0.012188882184802895  # erfc(sqrt(pi))
E_INV_S1 = 0.15915494309189535  # 1 / (2 pi)


def test_laplace_coefficient_alpha_one():
    assert stable_laplace_coefficient(1.0) == pytest.approx(TWO_SQRT_PI, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 1.97, 1.99])
def test_stable_sampler_laplace_transform(alpha):
    # E exp(-X) = exp(-1) for the standardized one-sided stable draw; near
    # alpha = 2 the powers of sin(u) in Kanter's formula leave the float range
    beta = alpha / 2.0
    rng = np.random.default_rng(101)
    x = standard_positive_stable(beta, 200_000, rng)
    assert np.all(np.isfinite(x) & (x > 0))
    vals = np.exp(-x)
    target = math.exp(-1.0)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) < 4 * se


def _kanter_powers(beta, u, e):
    """Kanter's X factor by factor with every power, and the log form where that fails."""
    with np.errstate(all="ignore"):
        a = (
            np.sin(beta * u) ** (beta / (1.0 - beta))
            * np.sin((1.0 - beta) * u)
            / np.sin(u) ** (1.0 / (1.0 - beta))
        )
        x = (a / e) ** ((1.0 - beta) / beta)
        bad = ~((x > 0.0) & (x < math.inf))
        v = u[bad]
        x[bad] = np.exp((beta * np.log(np.sin(beta * v)) - np.log(np.sin(v))
                         + (1.0 - beta) * np.log(np.sin((1.0 - beta) * v) / e[bad])) / beta)
    return x, bad


@pytest.mark.parametrize("beta", [0.25, 0.35, 0.5, 0.75, 0.95])
def test_stable_sampler_is_bitwise_the_unshared_formula(beta):
    # at beta = 1/2 (alpha = 1) X = s s / sin(u)^2 / E with s = sin(u / 2), which
    # drops the powers 1 and takes sin(u)^2 as a square; every exponent keeps the
    # bits of Kanter's formula evaluated factor by factor with every power
    shape = (200, 330)
    x = standard_positive_stable(beta, shape, np.random.default_rng(19))
    rng = np.random.default_rng(19)
    u, e = rng.uniform(0.0, math.pi, shape), rng.standard_exponential(shape)
    want, bad = _kanter_powers(beta, u, e)
    assert not bad.any() and x.tobytes() == want.tobytes()


class _FixedDraws:
    """A stand-in generator whose uniforms and exponentials are given arrays."""

    def __init__(self, u, e):
        self.u, self.e = np.asarray(u, dtype=float), np.asarray(e, dtype=float)

    def uniform(self, low, high, size):
        return self.u.copy()

    def standard_exponential(self, size):
        return self.e.copy()


@pytest.mark.parametrize("beta", [0.5, 0.95])
def test_stable_sampler_takes_logs_where_the_powers_fail(beta):
    # u near 0 or pi sends the powers of sin(u) out of the float range (to 0/0 at
    # beta = 1/2, where s s underflows with sin(u)^2); those draws, and only
    # those, take the log form, the same bits as the formula with every power
    u = np.array([1e-200, 1e-20, 0.3, 1.7, math.pi - 1e-15, 2.9])
    e = np.array([0.4, 1.3, 0.01, 2.2, 0.7, 1e-300])
    x = standard_positive_stable(beta, u.shape, _FixedDraws(u, e))
    want, bad = _kanter_powers(beta, u, e)
    assert bad.any() and not bad.all()
    assert np.all(np.isfinite(x) & (x > 0)) and x.tobytes() == want.tobytes()


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


H3_EPS = np.geomspace(1e-1, 1e-4, 7)  # the grid decompose-check probes H3 on


def _quad_mean(density, eps: float, kinks=()) -> float:
    """integral(0, eps) u density(u) du by QUADPACK, in v = sqrt(u) to remove the singularity at 0.

    The density's kinks, mapped to v, are passed to quad as breakpoints.
    """
    inside = [math.sqrt(k) for k in kinks if 0.0 < k < eps]
    return integrate.quad(
        lambda v: 2.0 * v**3 * density(v * v), 0.0, math.sqrt(eps),
        epsabs=1e-10, limit=200 + len(inside), points=inside or None,
    )[0]


def test_mean_between_dual_route():
    # the closed form check_H3 reads, against adaptive quadrature on its grid
    for alpha in (0.5, 1.0, 1.5, 1.9):
        for upper_cutoff in (None, 4.0):
            spec = LevyMeasureSpec(alpha=alpha, upper_cutoff=upper_cutoff)
            for e in H3_EPS:
                ref = _quad_mean(lambda u: u ** -(1.0 + alpha / 2.0), e)
                assert spec.mean_between(0.0, e) == pytest.approx(ref, rel=1e-8), (alpha, e)
    spec = LevyMeasureSpec(alpha=1.0)
    assert spec.mean_between(0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
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
    with pytest.raises(SpecError, match="not both"):
        LevyMeasureSpec(table=((0.1, 1.0), (0.2, 1.0)), atoms=((1.0, 2.0),))
    with pytest.raises(SpecError):
        LevyMeasureSpec(alpha=2.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(alpha=0.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(alpha=None)
    with pytest.raises(SpecError):
        LevyMeasureSpec(small_jump_cutoff=0.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(upper_cutoff=-1.0)
    with pytest.raises(SpecError):
        LevyMeasureSpec(atoms=((1.0, -2.0),))
    bad_tables = [
        (),  # no points
        ((0.1, 1.0),),  # one point
        ((0.1, 1.0, 2.0), (0.2, 1.0, 2.0)),  # three columns
        ((0.0, 1.0), (0.2, 1.0)),  # u = 0
        ((0.2, 1.0), (0.1, 1.0)),  # decreasing u
        ((0.1, 1.0), (0.1, 1.0)),  # repeated u
        ((0.1, 1.0), (math.inf, 1.0)),
        ((0.1, 1.0), (0.2, math.nan)),
        ((0.1, 1.0), (0.2, -1.0)),  # negative density
        ((0.1, 0.0), (0.2, 0.0)),  # no mass
    ]
    for table in bad_tables:
        with pytest.raises(SpecError):
            LevyMeasureSpec(alpha=None, table=table)


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
        _table(0.05, 2.0, 200, lambda u: u**-1.5),
        LevyMeasureSpec(alpha=None, atoms=((0.5, 40.0), (2.0, 10.0))),
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


def _bincount_increments(spec, dts, n_paths, seed):
    """sample_increments' compound-Poisson branch with one bincount per chunk of rows.

    It holds each chunk's counts, cell numbers, jump cells and sums at once,
    and writes the stable size draw out as one expression: the reference for
    the bits of the cell-by-cell accumulation.
    """
    rng = np.random.default_rng(seed)
    dts = np.asarray(dts, dtype=float)
    k = dts.shape[-1]
    delta = max(spec.small_jump_cutoff, spec.support[0])
    drift = spec.mean_between(0.0, delta)
    lam = spec.mass(delta)
    if spec.kind == "stable":
        beta = spec.alpha / 2.0
        span = delta ** (-beta) - spec._hi() ** (-beta)

        def draw(u):
            return (delta ** (-beta) - u * span) ** (-1.0 / beta)

    else:
        draw = _truncated_size_sampler(spec, delta)
    out = np.empty((n_paths, k))
    out[:] = drift * dts
    mean_jumps = lam * float(dts.sum(axis=-1).max())
    rows = max(1, min(n_paths, int(5e6 / max(mean_jumps, 1.0)) + 1))
    rates = lam * dts
    for start in range(0, n_paths, rows):
        stop = min(start + rows, n_paths)
        counts = rng.poisson(rates[start:stop] if dts.ndim == 2 else rates, (stop - start, k))
        total = int(counts.sum())
        if total == 0:
            continue
        sizes = draw(rng.uniform(size=total))
        flat = np.repeat(np.arange(counts.size), counts.ravel())
        sums = np.bincount(flat, weights=sizes, minlength=counts.size)
        out[start:stop] += sums.reshape(counts.shape)
    return out


def _padded_rows(n_paths, k, seed):
    rng = np.random.default_rng(seed)
    dts = rng.uniform(0.0, 2.0 / k, (n_paths, k))
    dts[:, -rng.integers(1, k // 2)] = 0.0
    dts[rng.uniform(size=n_paths) < 0.2, k // 2 :] = 0.0  # rows padded at their end
    return dts


# one jump per 1e-13 of dt: row 0 alone expects 6.3e6 jumps, so every row is
# its own chunk, and row 1 (all dt = 0) is a chunk without jumps
MANY_JUMPS = np.array([[0.25] * 4, [0.0] * 4, [1e-7, 0.0, 2e-7, 0.0]])

ORACLE_CASES = {
    "shared_grid": (LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0), np.full(64, 1 / 64), 300),
    "per_path_padded": (LevyMeasureSpec(alpha=1.5, upper_cutoff=1.0), _padded_rows(200, 24, 1), 200),
    "chunks_and_empty_chunk": (
        LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0, small_jump_cutoff=1e-13), MANY_JUMPS, 3
    ),
    "atoms": (
        LevyMeasureSpec(alpha=None, atoms=((0.5, 40.0), (2.0, 10.0))),
        _padded_rows(150, 16, 2), 150,
    ),
    "tabulated": (
        _table(0.05, 2.0, 200, lambda u: u**-1.5),
        np.full(32, 1 / 32), 250,
    ),
}


@pytest.mark.parametrize("count_cells", [None, 1000], ids=["default", "small_count_chunks"])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cell_by_cell_sums_match_the_bincount_reference(case, count_cells, monkeypatch):
    # same draws in the same order, and each cell's sum + drift dt has the bits
    # of drift dt + the bincount sum
    spec, dts, n_paths = ORACLE_CASES[case]
    if count_cells is not None:
        monkeypatch.setattr(levy_noise, "COUNT_CELLS", count_cells)
    got = sample_increments(spec, dts, n_paths, seed=21)
    want = _bincount_increments(spec, dts, n_paths, seed=21)
    assert got.tobytes() == want.tobytes()


def test_stable_size_draw_in_place_keeps_scalars():
    draw = _truncated_size_sampler(LevyMeasureSpec(alpha=1.0), 1.0)
    u = np.random.default_rng(4).uniform(size=1000)
    assert draw(u.copy()).tobytes() == ((1.0 - u) ** -2.0).tobytes()
    assert isinstance(draw(0.5), float) and draw(0.5) == 4.0


def test_compound_poisson_memory_is_about_its_output():
    # 8000 x 512 cells of a truncated clock: the result plus five bytes per
    # nonzero cell and a few count-chunk arrays, about 1.35 times the result
    spec = LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0)
    tracemalloc.start()
    try:
        out = sample_increments(spec, np.full(512, 1 / 512), 8000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * out.nbytes


def test_compound_poisson_memory_does_not_grow_with_a_cells_jumps():
    # decompose-check's shape: 8000 rows of one whole-horizon cell of kalman's
    # clock, about 200 jumps a cell; the jumps are expanded COUNT_CELLS at a
    # time, about 4 MB at most, where one int64 per jump would read 26 MB
    spec = LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0)
    tracemalloc.start()
    try:
        sample_increments(spec, np.array([1.0]), 8000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_path_rejects_bad_horizon_and_grid():
    spec = LevyMeasureSpec(alpha=1.0)
    cases = [
        (0.0, 8, 2), (-1.0, 8, 2), (math.nan, 8, 2), (math.inf, 8, 2), (1.0, 0, 2), (1.0, 8, 0)
    ]
    for model in (make_zero_drift(n=1, d=1), make_kalman(), make_two_regime_linear()):
        for horizon, n_steps, n_paths in cases:
            with pytest.raises(ValueError):
                sample_batch_noise(model, spec, horizon, n_steps, n_paths, seed=0)


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
    spec = LevyMeasureSpec(alpha=None, atoms=((0.5, 2.0), (2.0, 1.0)))
    decomp = decompose_large_jumps(spec)
    assert decomp.lambda1 == pytest.approx(1.0)
    assert np.all(decomp.sample_mixing(1000, seed=3) == 2.0)
    assert decomp.truncated.mass(0.0) == pytest.approx(2.0)


def test_atom_at_unit_cutoff_belongs_to_truncated_part():
    # atoms count on (a, hi], so the split at 1 partitions the mass: 2 below, 1 above
    spec = LevyMeasureSpec(alpha=None, atoms=((1.0, 2.0), (2.0, 1.0)))
    decomp = decompose_large_jumps(spec)
    assert decomp.truncated.mass(0.0) + decomp.lambda1 == spec.mass(0.0) == 3.0
    assert decomp.truncated.mass(0.0) == 2.0
    assert decomp.truncated.mean_between(0.0, 1.0) == 2.0
    incr = sample_increments(decomp.truncated, np.array([1.0]), 2000, seed=4)[:, 0]
    assert np.all(np.isin(incr, np.arange(0.0, 40.0)))  # sums of unit jumps
    assert incr.max() > 0.0


def test_a_clock_with_no_mass_above_one_splits_trivially():
    # lambda1 = 0, and the truncated part is the clock itself, cut at min(upper_cutoff, 1)
    dts = np.full(4, 0.25)
    for spec, cut in [
        (LevyMeasureSpec(alpha=1.0, upper_cutoff=0.5), 0.5),
        (_table(1e-4, 0.5, 50, lambda u: u**-1.5), 1.0),
    ]:
        decomp = decompose_large_jumps(spec)
        assert decomp.lambda1 == 0.0
        assert decomp.truncated == replace(spec, upper_cutoff=cut)
        assert np.array_equal(
            sample_increments(decomp.truncated, dts, 64, seed=5),
            sample_increments(spec, dts, 64, seed=5),
        )
        # the tail above 1 is empty, so its size sampler gives zeros for every kind
        assert np.array_equal(decomp.sample_mixing(8, seed=6), np.zeros(8))


def test_a_measure_is_told_by_its_data(tmp_path):
    u = np.geomspace(1e-4, 0.5, 50)
    pts = np.column_stack([u, u**-1.5])
    spec = LevyMeasureSpec(table=pts)
    assert spec.kind == "tabulated" and spec.theta == 1.0
    path = tmp_path / "table.csv"
    np.savetxt(path, pts, delimiter=",", header="u,density")
    dts = np.full(16, 1 / 16)
    assert np.array_equal(
        sample_increments(spec, dts, 256, seed=9),
        sample_increments(load_tabulated_csv(path), dts, 256, seed=9),
    )
    stable = LevyMeasureSpec(alpha=0.7)
    assert stable.kind == "stable" and stable.theta == 0.7
    assert LevyMeasureSpec(atoms=((0.5, 2.0),)).kind == "atoms"
    with pytest.raises(SpecError, match="not both"):
        LevyMeasureSpec(table=pts, atoms=((0.5, 2.0),))


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


def test_h3_probe_verdicts():
    eps = np.geomspace(1e-1, 1e-5, 9)
    spec = LevyMeasureSpec(alpha=1.0)
    res = check_H3(spec, theta=1.0, eps_grid=eps)
    assert res.verdict == "holds" and res.c_theta == pytest.approx(2.0, rel=1e-6)
    res_half = check_H3(LevyMeasureSpec(alpha=0.5), theta=0.5, eps_grid=eps)
    assert res_half.verdict == "holds" and res_half.c_theta == pytest.approx(4.0 / 3.0, rel=1e-6)
    # theta above alpha: probe decays; below: diverges
    assert check_H3(spec, theta=1.5, eps_grid=eps).verdict == "tends_to_zero"
    assert check_H3(spec, theta=0.5, eps_grid=eps).verdict == "diverges"
    with pytest.raises(ValueError):
        check_H3(spec, theta=1.0, eps_grid=[0.1, 0.05, 0.02])


def test_h3_spread_is_the_verdicts_statistic():
    # check_H3 stores the values' range over their median, which h3_verdict reports:
    # holds, decays, diverges, a table whose last probe is 0 and one with no mass
    # on the grid (median 0, so an infinite spread)
    eps = np.geomspace(1e-1, 1e-4, 7)
    stable = LevyMeasureSpec(alpha=1.0)
    cases = [check_H3(stable, theta, eps) for theta in (1.0, 1.5, 0.5)] + [
        check_H3(_table(lo, 4.0, 400, lambda u: u**-1.5), 1.0, eps) for lo in (3e-4, 0.5)
    ]
    assert [h3.verdict for h3 in cases] == ["holds", "tends_to_zero", "diverges"] + [
        "tends_to_zero"
    ] * 2
    for h3 in cases:
        med = float(np.median(h3.values))
        want = float(np.ptp(h3.values)) / med if med > 0 else float("inf")
        assert h3.spread == want and h3_verdict(h3).statistic == want
    assert cases[3].values[-1] == 0.0 < np.median(cases[3].values)
    assert cases[4].spread == math.inf


def test_tabulated_csv_round_trip(tmp_path):
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
    # between table points the interpolant's integrals are sums over intervals:
    # trapezoids for the mass, Simpson's rule (exact for the quadratic u f(u)) for the mean
    i, j = 40, 160
    w, f0, f1 = np.diff(u[i : j + 1]), dens[i:j], dens[i + 1 : j + 1]
    mid = (u[i:j] + u[i + 1 : j + 1]) / 2.0
    assert spec.mass(u[i], u[j]) == pytest.approx(np.sum(w * (f0 + f1) / 2.0), rel=1e-12)
    simpson = w / 6.0 * (u[i:j] * f0 + 4.0 * mid * (f0 + f1) / 2.0 + u[i + 1 : j + 1] * f1)
    assert spec.mean_between(u[i], u[j]) == pytest.approx(np.sum(simpson), rel=1e-12)
    assert spec.mass(0.0) == pytest.approx(np.sum(np.diff(u) * (dens[1:] + dens[:-1]) / 2.0))
    incr = sample_increments(spec, np.array([[0.25, 0.5, 0.25, 0.0]]), 2000, seed=40)
    assert np.all(incr[:, :3] >= 0) and np.all(incr[:, 3] == 0.0)


def test_tabulated_csv_rejects_bad_tables(tmp_path):
    # the loader only parses; the measure checks the points
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.array([[0.1, 1.0, 2.0]]), delimiter=",", header="u,density,x")
    with pytest.raises(SpecError):
        load_tabulated_csv(bad)
    neg = tmp_path / "neg.csv"
    np.savetxt(neg, np.array([[0.1, 1.0], [0.2, -1.0]]), delimiter=",", header="u,d")
    with pytest.raises(SpecError):
        load_tabulated_csv(neg)
    bare = tmp_path / "bare.csv"  # without its header line the first point would be lost
    bare.write_text("0.1,5.0\n0.5,2.0\n1.0,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_tabulated_csv(bare)


def test_table_is_stored_as_float_pairs():
    spec = LevyMeasureSpec(alpha=None, table=np.array([[0.5, 2.0], [1.0, 1.0]]))
    assert spec.table == ((0.5, 2.0), (1.0, 1.0)) and spec.support == (0.5, 1.0)
    assert spec.density_at(np.array([0.4, 0.75, 0.9, 1.5])) == pytest.approx([0.0, 1.5, 1.2, 0.0])
    assert replace(spec, upper_cutoff=0.75).density_at(0.75) == 0.0
    assert hash(spec) == hash(replace(spec))


def test_table_sampler_inverts_the_interpolated_mass():
    # first interval rises from density 0: q = 0 maps to its left end, not 0 / 0
    spec = LevyMeasureSpec(alpha=None, table=((0.1, 0.0), (0.5, 2.0), (1.0, 1.0)))
    assert spec.mass(0.0) == pytest.approx(1.15, rel=1e-15)
    assert spec.mean_between(0.0, 2.0) == pytest.approx(0.4 / 6 * 2.2 + 0.5 / 6 * 6.5, rel=1e-15)
    draw = _truncated_size_sampler(spec, 1e-4)
    q = np.array([0.0, 1e-300, 0.2 / 1.15, 0.4 / 1.15, 0.5, 1.0 - 2.0**-53])
    x = draw(q)
    assert np.all(np.isfinite(x)) and x[0] == 0.1
    assert np.all((x >= 0.1) & (x <= 1.0)) and np.all(np.diff(x) >= 0)
    # the cumulative mass at each draw is the requested share of the total
    cum = np.array([spec.mass(0.0, v) for v in x]) / 1.15
    assert cum == pytest.approx(q, abs=1e-12)
    assert x[3] == pytest.approx(0.5, rel=1e-12)
    # a zero-mass leading interval is skipped
    flat = LevyMeasureSpec(alpha=None, table=((0.1, 0.0), (0.2, 0.0), (0.3, 1.0)))
    assert _truncated_size_sampler(flat, 1e-4)(np.array([0.0]))[0] == 0.2
    # a cutoff at the table's first point leaves no mass and no jumps
    cut = replace(spec, upper_cutoff=0.1)
    assert cut.mass(0.0) == 0.0
    assert np.all(sample_increments(cut, np.full(4, 0.25), 10, seed=3) == 0.0)


def test_tables_never_integrate_numerically():
    # nothing in src/ integrates numerically; test_decompose_check_loads_no_scipy
    # runs a table's decompose-check in a fresh process that loads no scipy
    spec = _table(1e-4, 4.0, 400, lambda u: u**-1.5)
    assert spec.mass(1e-4) > 0 and spec.mean_between(0.0, 4.0) > 0
    decomp = decompose_large_jumps(spec)
    assert decomp.lambda1 == spec.mass(1.0)
    assert np.all(decomp.sample_mixing(1000, seed=1) > 1.0)
    assert sample_increments(spec, np.full(4, 0.25), 100, seed=2).shape == (100, 4)


def test_table_quadrature_is_told_of_the_table_points():
    # the interpolant's closed-form mean against quad, given the table's points
    # as breakpoints so each piece is smooth and quad warns of nothing (this
    # suite turns an IntegrationWarning into an error)
    spec = _table(1e-4, 4.0, 400, lambda u: u**-1.5)
    u, f = np.array(spec.table).T
    for e in H3_EPS:
        ref = _quad_mean(lambda x: np.interp(x, u, f, left=0.0, right=0.0), e, kinks=u)
        assert spec.mean_between(0.0, e) == pytest.approx(ref, rel=1e-8)
    res = check_H3(spec, theta=1.0, eps_grid=H3_EPS)
    assert res.values.tolist() == [e**-0.5 * spec.mean_between(0.0, e) for e in H3_EPS]


def test_power_table_has_the_law_of_the_truncated_stable_clock():
    # the u^-1.5 table on (1e-4, 4) against the stable clock truncated at 4,
    # which draws the same measure (less the table's missing (0, 1e-4) mass)
    spec = _table(1e-4, 4.0, 400, lambda u: u**-1.5)
    s1 = sample_increments(spec, np.array([1.0]), 20_000, seed=50)[:, 0]
    se = s1.std(ddof=1) / math.sqrt(s1.size)
    assert abs(s1.mean() - spec.mean_between(0.0, 4.0)) < 3 * se
    ref = sample_increments(LevyMeasureSpec(alpha=1.0, upper_cutoff=4.0), np.array([1.0]), 20_000, seed=51)
    assert stats.ks_2samp(s1, ref[:, 0]).pvalue > 0.01


def test_gamma_table_gives_a_gamma_clock():
    # nu(du) = c u^-1 e^-u du is the gamma subordinator: S_1 ~ Gamma(c), here c = 3
    spec = _table(1e-4, 20.0, 400, lambda u: 3.0 / u * np.exp(-u))
    s1 = sample_increments(spec, np.array([1.0]), 20_000, seed=52)[:, 0]
    assert stats.kstest(s1, stats.gamma(3.0).cdf).pvalue > 0.01


def test_atoms_measure():
    spec = LevyMeasureSpec(alpha=None, atoms=((0.5, 2.0), (2.0, 1.0)))
    assert spec.mass(0.0) == pytest.approx(3.0)
    assert spec.mean_between(0.0, 1.0) == pytest.approx(1.0)
    incr = sample_increments(spec, np.array([1.0]), 50_000, seed=31)[:, 0]
    # compound Poisson mean = integral u nu = 0.5*2 + 2*1 = 3
    se = incr.std(ddof=1) / math.sqrt(incr.size)
    assert abs(incr.mean() - 3.0) < 4 * se
