"""Statistical verification toolkit.

Everything here turns simulated samples into a number with an honest error
bar: two-sample distribution comparisons, capped negative moments, spectral
tail curves, the small-time joint-probability curve for the time-change
lemma, the integration-by-parts residual for first derivatives, and a kernel
density smoother.  Each check reports the estimate together with the
uncertainty it was judged against; nothing returns a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericError
from .flows import batch_flows
from .levy_noise import (
    LevyMeasureSpec,
    as_rng,
    decompose_large_jumps,
    sample_increments,
    sample_xi,
)
from .models import ModelSpec
from .sde_core import (
    MC_BLOCK,
    BatchFlowResult,
    BatchNoise,
    bundle_ranges,
    sample_batch_noise,
    seed_blocks,
)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Score interval for a binomial proportion; safe at 0 and n."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov


@dataclass
class KSResult:
    statistic: float
    pvalue: float
    n1: int
    n2: int


def ks_statistic(a, b) -> float:
    """sup |F1 - F2| over the pooled jump points."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise DataError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, pooled, side="right") / a.size
    cdf2 = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf1 - cdf2).max())


def two_sample_ks(a, b) -> KSResult:
    """KS test with the asymptotic null law for the p-value."""
    from scipy import special  # heavy to import, and only this test needs it

    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = ks_statistic(a, b)
    en = np.sqrt(a.size * b.size / (a.size + b.size))
    p = float(special.kolmogorov(en * d))
    return KSResult(statistic=d, pvalue=min(1.0, max(0.0, p)), n1=a.size, n2=b.size)


def ks_calibration(
    sampler: Callable, n: int, reps: int = 100, level: float = 0.01, seed: int = 0
) -> tuple[float, int]:
    """Null rejection rate of the KS machinery on same-law sample pairs.

    sampler(n, rng) must return n iid draws.  Returns (fraction, count) of
    replications with p-value below `level`.
    """
    hits = 0
    for r in range(reps):
        rng = as_rng(np.random.SeedSequence([seed, 9101, r]))
        res = two_sample_ks(sampler(n, rng), sampler(n, rng))
        hits += res.pvalue < level
    return hits / reps, hits


def decomposition_ks_test(
    levy: LevyMeasureSpec, horizon: float, n_samples: int, seed: int = 0, d: int = 1
) -> KSResult:
    """Compare the driver marginal against its split-at-unit-cutoff rebuild.

    Route one subordinates a Gaussian by the full clock increment; route two
    uses the truncated clock plus an independent compound Poisson sum of
    mixed-Gaussian heavy displacements.  Equality in law is checked on the
    first coordinate with the two-sample KS test.
    """
    decomp = decompose_large_jumps(levy)
    rng_a = as_rng(np.random.SeedSequence([seed, 9201]))
    rng_b = as_rng(np.random.SeedSequence([seed, 9202]))
    dt = np.array([horizon])
    s_full = sample_increments(levy, dt, n_samples, rng_a)[:, 0]
    x_full = np.sqrt(s_full)[:, None] * rng_a.standard_normal((n_samples, d))
    s_trunc = sample_increments(decomp.truncated, dt, n_samples, rng_b)[:, 0]
    x_trunc = np.sqrt(s_trunc)[:, None] * rng_b.standard_normal((n_samples, d))
    counts = rng_b.poisson(decomp.lambda1 * horizon, size=n_samples)
    total = int(counts.sum())
    if total:
        xi = sample_xi(decomp, d, rng_b, size=total)
        idx = np.repeat(np.arange(n_samples), counts)
        np.add.at(x_trunc, idx, xi)
    return two_sample_ks(x_full[:, 0], x_trunc[:, 0])


# ---------------------------------------------------------------------------
# capped negative moments


@dataclass
class MomentEstimate:
    order: float
    cap: float
    value: float
    se: float
    cap_values: np.ndarray
    cap_drift: float
    stable: bool
    n_samples: int


def negative_moment(
    samples, order: float = 1.0, cap: float = 1e6, stability_rtol: float = 0.01
) -> MomentEstimate:
    """E[Y^-order] with a hard cap, plus a cap-stability probe.

    Matrix input is reduced to determinants first.  The estimate is repeated
    at cap/4, cap/2, cap; `stable` means the relative drift across those runs
    stays within stability_rtol, i.e. the cap is no longer binding.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim == 3:
        y = np.linalg.det(y)
    y = y.ravel()
    if y.size == 0:
        raise DataError("need at least one sample")
    if np.any(y <= 0):
        raise DataError("negative-moment samples must be strictly positive")
    if order <= 0 or cap <= 0:
        raise ValueError("order and cap must be positive")
    w = y**-order
    caps = np.array([cap / 4.0, cap / 2.0, cap])
    vals = np.array([np.minimum(w, c).mean() for c in caps])
    capped = np.minimum(w, cap)
    se = float(capped.std(ddof=1) / np.sqrt(y.size)) if y.size > 1 else float("inf")
    drift = float(np.max(np.abs(np.diff(vals)) / vals[-1]))
    return MomentEstimate(
        order=order,
        cap=cap,
        value=float(vals[-1]),
        se=se,
        cap_values=vals,
        cap_drift=drift,
        stable=drift <= stability_rtol,
        n_samples=y.size,
    )


# ---------------------------------------------------------------------------
# spectral tail curve


@dataclass
class TailCurve:
    thresholds: np.ndarray
    probs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    slope: float
    slope_stderr: float
    n_samples: int

    def is_decaying(self, z: float = 2.0) -> bool:
        """Positive log-log slope, resolved against its fit error."""
        return self.slope > z * self.slope_stderr


def eigen_tail(
    samples,
    thresholds=None,
    n_thresholds: int = 10,
    min_count: int = 5,
    q_top: float = 0.25,
) -> TailCurve:
    """Empirical P(lambda_min <= r) on a log grid with a log-log slope fit.

    samples: either (N, n, n) covariance draws (reduced to their smallest
    eigenvalue) or a 1-d array of positive scalars.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim == 3:
        vals = np.linalg.eigvalsh(vals)[:, 0]
    vals = vals.ravel()
    n = vals.size
    if n < 10 * min_count:
        raise DataError("too few samples for a tail curve")
    if np.all(vals <= 0):
        raise DataError("tail curve needs positive spectral values")
    if thresholds is None:
        q_lo = max(min_count / n, 1e-5)
        qs = np.geomspace(q_lo, q_top, n_thresholds)
        thresholds = np.unique(np.quantile(vals, qs))
    thresholds = np.asarray(thresholds, dtype=float)
    thresholds = thresholds[thresholds > 0]
    if thresholds.size < 3:
        raise DataError("need at least three positive thresholds")
    counts = np.array([int(np.count_nonzero(vals <= r)) for r in thresholds])
    keep = counts >= min_count
    if keep.sum() < 3:
        raise DataError("tail counts too small; increase the sample size")
    thresholds, counts = thresholds[keep], counts[keep]
    probs = counts / n
    bounds = np.array([wilson_interval(int(c), n) for c in counts])
    coef, cov = np.polyfit(np.log(thresholds), np.log(probs), 1, cov=True)
    return TailCurve(
        thresholds=thresholds,
        probs=probs,
        lo=bounds[:, 0],
        hi=bounds[:, 1],
        counts=counts,
        slope=float(coef[0]),
        slope_stderr=float(np.sqrt(cov[0, 0])),
        n_samples=n,
    )


# ---------------------------------------------------------------------------
# small-time joint probability curve (frozen-regime window)


@dataclass
class TestField:
    """Matrix test field V(x, i) with an analytic spatial Jacobian.

    value(x, a) -> (..., n, dv); jac(x, a) -> (..., n, n, dv) with
    [..., c, r, k] = d V_{r k} / d x_c.
    """

    name: str
    dv: int
    value: Callable
    jac: Callable


def constant_field(matrix) -> TestField:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    n, dv = m.shape

    def value(x, a):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(m, x.shape[:-1] + (n, dv)).copy()

    def jac(x, a):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (n, n, dv))

    return TestField(name="constant", dv=dv, value=value, jac=jac)


def scaled_cos_field(base, amp: float = 1.0, freq: float = 3.0) -> TestField:
    """V(x, i) = amp * cos(freq * x_0) * base; oscillates against the drift."""
    m = np.atleast_2d(np.asarray(base, dtype=float))
    n, dv = m.shape

    def value(x, a):
        x = np.asarray(x, dtype=float)
        c = amp * np.cos(freq * x[..., 0])
        return c[..., None, None] * m

    def jac(x, a):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (n, n, dv))
        out[..., 0, :, :] = (-amp * freq * np.sin(freq * x[..., 0]))[..., None, None] * m
        return out

    return TestField(name="scaled_cos", dv=dv, value=value, jac=jac)


def drift_field_bracket(model: ModelSpec, fld: TestField, x, a) -> np.ndarray:
    """[b(., a), V] = (grad V) b - (grad b) V, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    v = fld.value(x, a)
    jv = fld.jac(x, a)
    b = np.moveaxis(model.drift(np.moveaxis(x, -1, 0), a), 0, -1)  # drift is components-first
    jb = model.drift_jac(x, a)
    return np.einsum("...crv,...c->...rv", jv, b) - np.einsum("...rc,...cv->...rv", jb, v)


@dataclass
class NorrisParams:
    """Joint-event geometry: {I_bracket >= eps^q} with q = (1-beta)/(18-beta),
    intersected with {I_field <= eps}, on a frozen-regime window."""

    window: tuple[float, float]
    regime: int
    direction: np.ndarray
    eps_grid: np.ndarray
    beta: float = 0.5
    theta: float = 1.0

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        nrm = np.linalg.norm(self.direction)
        if nrm == 0:
            raise ValueError("direction must be a nonzero vector")
        self.direction = self.direction / nrm
        self.eps_grid = np.sort(np.asarray(self.eps_grid, dtype=float))[::-1]
        if np.any(self.eps_grid <= 0):
            raise ValueError("eps grid must be positive")
        lo = max(0.0, 4.0 * self.theta - 7.0)
        if not lo < self.beta < 1.0:
            raise ValueError(f"beta must lie in ({lo}, 1) for theta={self.theta}")
        t1, t2 = self.window
        if not 0 <= t1 < t2:
            raise ValueError("window must satisfy 0 <= t1 < t2")

    def threshold(self, eps: float) -> float:
        return float(eps ** ((1.0 - self.beta) / (18.0 - self.beta)))


def window_integrals(
    model: ModelSpec,
    noise: BatchNoise,
    res: BatchFlowResult,
    params: NorrisParams,
    fld: TestField,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (I_field, I_bracket) on the frozen-regime window of a recorded bundle.

    res is ``batch_flows(model, noise, record=True)``.  Each path's inverse
    flow starts from its value at the window opening and evolves with the
    frozen regime over the same noise; both integrands are squared
    projections onto the chosen direction, integrated by the trapezoid rule.
    """
    if not 1 <= params.regime <= model.rates.m0:
        raise ValueError(f"regime must lie in 1..{model.rates.m0}")
    win, k1 = noise.window(*params.window)
    rows = np.arange(noise.n_paths)
    frozen = batch_flows(
        model, win, x0=res.X_path[rows, k1], K0=res.K_path[rows, k1],
        alpha0=params.regime, want_Q=False, record=True,
    )
    X, a = frozen.X_path, frozen.alpha_path
    vk = np.einsum("a,pkab->pkb", params.direction, frozen.K_path)
    dt = np.diff(np.broadcast_to(win.times, a.shape), axis=1)

    def trapezoid(w):
        y = np.sum(np.einsum("pkb,pkbv->pkv", vk, w) ** 2, axis=-1)
        # a running sum, so the zero-length padding leaves each path's value bit for bit
        return np.cumsum(dt * (y[:, 1:] + y[:, :-1]) / 2.0, axis=1)[:, -1]

    return trapezoid(fld.value(X, a)), trapezoid(drift_field_bracket(model, fld, X, a))


@dataclass
class NorrisCurve:
    eps: np.ndarray
    probs: np.ndarray
    se: np.ndarray
    counts: np.ndarray
    thresholds: np.ndarray
    n_paths: int
    params: NorrisParams = field(repr=False, default=None)

    def is_nonincreasing(self, z: float = 2.0) -> bool:
        """Monotone decay along shrinking eps, modulo z combined standard errors."""
        for i in range(self.probs.size - 1):
            slack = z * np.hypot(self.se[i], self.se[i + 1])
            if self.probs[i + 1] > self.probs[i] + slack:
                return False
        return True


def norris_joint_probability(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    params: NorrisParams,
    fld: TestField,
    n_paths: int,
    seed: int = 0,
) -> NorrisCurve:
    """Monte Carlo curve eps -> P(I_bracket >= eps^q, I_field <= eps).

    Paths are seeded in 64-path blocks, each by its first path index, and
    integrated in bundles of contiguous blocks sized by ``bundle_ranges``.
    """
    i_field = np.empty(n_paths)
    i_bracket = np.empty(n_paths)
    # X, alpha and K are recorded at every grid point, and again on the window
    # together with the window's own noise
    n, d = model.n, model.d
    recorded = 2 * (n + 1 + n * n) + 2 + d
    for lo, hi in bundle_ranges(n_paths, n_steps, d, recorded):
        blocks = seed_blocks(seed, 9301, lo, hi)
        noise = sample_batch_noise(model, levy, horizon, n_steps, *blocks)
        res = batch_flows(model, noise, want_Q=False, record=True)
        i_field[lo:hi], i_bracket[lo:hi] = window_integrals(model, noise, res, params, fld)
    eps = params.eps_grid
    thresholds = np.array([params.threshold(e) for e in eps])
    counts = np.array(
        [int(np.count_nonzero((i_bracket >= thr) & (i_field <= e))) for e, thr in zip(eps, thresholds)]
    )
    probs = counts / n_paths
    se = np.sqrt(np.maximum(probs * (1 - probs), 1.0 / n_paths) / n_paths)
    return NorrisCurve(
        eps=eps,
        probs=probs,
        se=se,
        counts=counts,
        thresholds=thresholds,
        n_paths=n_paths,
        params=params,
    )


# ---------------------------------------------------------------------------
# first-derivative transfer residual


@dataclass
class GradRepResult:
    """Residual of E[(d_j f)(X_T)] = div_x E[f K_.j] - E[f div_x K_.j], per j.

    combined_se adds the Monte Carlo error to step-doubling estimates of the
    finite-difference and time-step biases, so the pass criterion is honest
    even though common random numbers drive the statistical error far below
    either bias.
    """

    residual: np.ndarray
    se_mc: np.ndarray
    fd_bias: np.ndarray
    dt_bias: np.ndarray
    combined_se: np.ndarray
    lhs: np.ndarray
    eta: float
    n_paths: int
    n_steps: int

    def max_ratio(self) -> float:
        return float(np.max(np.abs(self.residual) / self.combined_se))

    def passes(self, z: float = 3.0) -> bool:
        return bool(np.all(np.abs(self.residual) <= z * self.combined_se))


def _gradrep_residual_rows(model, f, x_all, k_all, eta, rows):
    """Per-path residual vector from a start bundle; rows = (plus_i, minus_i) pairs."""
    n = model.n
    f_center = f(x_all[0])
    r = None
    for i, (ip, im) in enumerate(rows):
        fk_p = f(x_all[ip])[:, None] * k_all[ip][:, i, :]
        fk_m = f(x_all[im])[:, None] * k_all[im][:, i, :]
        divq = (fk_p - fk_m) / (2.0 * eta)
        gterm = f_center[:, None] * (k_all[ip][:, i, :] - k_all[im][:, i, :]) / (2.0 * eta)
        term = divq - gterm
        r = term if r is None else r + term
    return r  # (P, n); caller subtracts from the gradient term


def gradient_representation_check(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    f: Callable,
    grad_f: Callable,
    x0=None,
    eta: float = 1e-3,
    seed: int = 0,
    truncate: bool = True,
) -> GradRepResult:
    """Check the derivative-transfer identity by common-random-number bundles.

    Every path is simulated simultaneously from the center start and from
    +-eta and +-2*eta coordinate shifts, sharing noise; the same noise,
    pairwise-merged, drives a half-resolution run.  The doubled-step and
    doubled-increment residuals estimate the two bias components.
    """
    if n_steps % 2:
        raise ValueError("n_steps must be even so the half-resolution run exists")
    if truncate and levy.upper_cutoff is None:
        levy = decompose_large_jumps(levy).truncated
    if x0 is None:
        x0 = model.x0
    x0 = np.asarray(x0, dtype=float)
    n = model.n
    starts = [x0]
    for scale in (eta, 2.0 * eta):
        for i in range(n):
            e = np.zeros(n)
            e[i] = scale
            starts.extend([x0 + e, x0 - e])
    starts = np.stack(starts)  # (4n+1, n)
    rows_eta = [(1 + 2 * i, 2 + 2 * i) for i in range(n)]
    rows_2eta = [(1 + 2 * n + 2 * i, 2 + 2 * n + 2 * i) for i in range(n)]

    sum_r = np.zeros(n)
    sum_r2 = np.zeros(n)
    sum_coarse = np.zeros(n)
    sum_wide = np.zeros(n)
    sum_sq = np.zeros(n)
    sum_lhs = np.zeros(n)
    done = 0
    block = 0
    while done < n_paths:
        size = min(MC_BLOCK, n_paths - done)
        rng = as_rng(np.random.SeedSequence([seed, 9401, block]))
        noise = sample_batch_noise(model, levy, horizon, n_steps, size, rng)
        bundle = starts[:, None, :]
        res = batch_flows(model, noise, x0=bundle, want_Q=False)
        res_c = batch_flows(model, noise.coarsen(), x0=bundle, want_Q=False)
        gf = grad_f(res.X[0])  # (P, n)
        r_fine = gf - _gradrep_residual_rows(model, f, res.X, res.K, eta, rows_eta)
        r_wide = gf - _gradrep_residual_rows(model, f, res.X, res.K, 2.0 * eta, rows_2eta)
        gf_c = grad_f(res_c.X[0])
        r_coarse = gf_c - _gradrep_residual_rows(model, f, res_c.X, res_c.K, eta, rows_eta)
        sum_r += r_fine.sum(axis=0)
        sum_sq += (r_fine**2).sum(axis=0)
        sum_wide += r_wide.sum(axis=0)
        sum_coarse += r_coarse.sum(axis=0)
        sum_lhs += gf.sum(axis=0)
        done += size
        block += 1
    mean_r = sum_r / n_paths
    var = np.maximum(sum_sq / n_paths - mean_r**2, 0.0)
    se_mc = np.sqrt(var / n_paths)
    fd_bias = np.abs(sum_wide / n_paths - mean_r) / 3.0
    dt_bias = np.abs(sum_coarse / n_paths - mean_r)
    combined = se_mc + fd_bias + dt_bias
    return GradRepResult(
        residual=mean_r,
        se_mc=se_mc,
        fd_bias=fd_bias,
        dt_bias=dt_bias,
        combined_se=np.maximum(combined, 1e-15),
        lhs=sum_lhs / n_paths,
        eta=eta,
        n_paths=n_paths,
        n_steps=n_steps,
    )


# ---------------------------------------------------------------------------
# kernel density smoothing


@dataclass
class DensityEstimate:
    grid: np.ndarray
    values: np.ndarray
    se: np.ndarray
    bandwidth: float
    mass: float
    n_samples: int


def kde_density(
    samples, grid=None, n_grid: int = 256, bandwidth: float | None = None
) -> DensityEstimate:
    """Gaussian kernel density with a robust plug-in bandwidth.

    The bandwidth uses min(std, IQR/1.349); a sample concentrated on one
    point has no scale and is rejected.  The pointwise standard error is the
    usual kernel variance f(x) R(K) / (n h); the trapezoid mass over the grid
    should sit near 1 and is reported for the caller to judge.
    """
    y = np.asarray(samples, dtype=float).ravel()
    if y.size < 2:
        raise DataError("need at least two samples")
    std = float(y.std(ddof=1))
    iqr = float(np.subtract(*np.percentile(y, [75, 25])))
    scale = min(std, iqr / 1.349) if iqr > 0 else std
    if scale <= 0:
        raise DataError("samples have no spread; the density is a point mass")
    h = bandwidth if bandwidth is not None else 0.9 * scale * y.size ** (-0.2)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if grid is None:
        pad = 4.0 * h
        grid = np.linspace(y.min() - pad, y.max() + pad, n_grid)
    grid = np.asarray(grid, dtype=float)
    # a bandwidth far below the data's scale overflows: u**2 to inf, whose kernel
    # value 0 is exact, or dens and se to inf, which the check below rejects
    with np.errstate(over="ignore"):
        # chunk the kernel matrix so memory stays bounded for large samples
        dens = np.zeros(grid.size)
        step = max(1, int(5e6 / max(grid.size, 1)))
        for lo in range(0, y.size, step):
            blk = y[lo : lo + step]
            u = (grid[:, None] - blk[None, :]) / h
            dens += np.exp(-0.5 * u**2).sum(axis=1)
        dens /= y.size * h * np.sqrt(2.0 * np.pi)
        rk = 1.0 / (2.0 * np.sqrt(np.pi))
        se = np.sqrt(np.maximum(dens, 0.0) * rk / (y.size * h))
        mass = float(np.trapezoid(dens, grid))
    if not (np.all(np.isfinite(dens)) and np.all(np.isfinite(se)) and np.isfinite(mass)):
        raise NumericError(f"the kernel density at bandwidth {h!r} is not finite")
    return DensityEstimate(
        grid=grid, values=dens, se=se, bandwidth=float(h), mass=mass, n_samples=y.size
    )
