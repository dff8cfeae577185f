"""Statistical verification toolkit.

Everything here turns simulated samples into a number with an honest error
bar: two-sample distribution comparisons, capped negative moments, spectral
tail curves, the small-time joint-probability curve for the time-change
lemma, the integration-by-parts residual for first derivatives, and a kernel
density smoother.  The Monte Carlo checks run on ``sde_core.map_bundles``, as
the pipelines do, and draw their paths from 64-path seed blocks on streams of
their own.  Each exit verdict is one ``Verdict``, built beside its statistic
by one ``*_verdict`` builder against a level written once, as a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DataError, NumericError
from .flows import batch_flows, product_defect_tolerance
from .levy_noise import (
    H3_RTOL,
    H3Result,
    LevyMeasureSpec,
    as_rng,
    decompose_large_jumps,
    sample_increments,
    sample_xi,
)
from .models import ModelSpec, Rebuilt, recorded
from . import sde_core
from .sde_core import (
    PATH_TILE,
    STREAM_GRADREP,
    STREAM_NORRIS,
    BatchNoise,
    bundle_ranges,
)


@dataclass(frozen=True)
class Verdict:
    """One exit verdict: statistic judged against bound; stderr is None where it has none."""

    name: str
    statistic: float
    bound: float
    stderr: float | None
    holds: bool
    certifies: str


KS_LEVEL = 0.01  # the split's KS test, and ks_calibration, reject below this p-value
EXP_BOUND_STEPS = 10.0  # the flows' exp-bound excess allowed, in grid steps
TAIL_Z = 2.0  # standard errors by which the tail slope must exceed 0
NORRIS_Z = 2.0  # combined standard errors by which the norris curve may rise
GRADREP_Z = 3.0  # budgets (combined_se) each gradrep residual may reach


def product_defect_verdict(defect: float, model: ModelSpec, horizon: float, dt: float) -> Verdict:
    tol = product_defect_tolerance(model.n, model.grad_bound, horizon, dt)
    return Verdict("product_defect", float(defect), tol, None, bool(defect <= tol),
                   "the Euler pair J, K inverts to first order in the grid step")


def exp_bound_verdict(excess: float, grid_step: float) -> Verdict:
    bound = EXP_BOUND_STEPS * grid_step
    return Verdict("exp_bound", float(excess), bound, None, bool(excess <= bound),
                   "both flows stay inside their Gronwall envelope on the sampled paths")


def kappa1_verdict(kappa1: float, threshold: float) -> Verdict:
    return Verdict("kappa1", kappa1, threshold, None, kappa1 > threshold,
                   "the span at the sampled points only; the infimum over the ball may be lower")


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


def kolmogorov_sf(lam: float) -> float:
    """Q(lam) = P(sup |B_t| > lam) for a Brownian bridge B: the Kolmogorov limit law's tail.

    Below lam = 1 it is one minus the CDF's theta series,
    sqrt(2 pi)/lam * sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2)); from 1 up it is the
    alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2).  Either series'
    fifth term is below 1e-20 of its first on its side of 1, so eight terms
    reach rounding.
    """
    if lam <= 0.0:
        return 1.0
    terms = range(1, 9)
    if lam >= 1.0:
        w = 2.0 * lam * lam
        return math.fsum(2.0 * (-1) ** (k - 1) * math.exp(-k * k * w) for k in terms)
    r = math.pi / lam
    w = r * r / 8.0
    s = math.fsum(math.exp(-(2 * k - 1) ** 2 * w) for k in terms)
    # s underflows to 0 (lam below about 0.04) before sqrt(2 pi) / lam can overflow
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * s if s else 1.0


def two_sample_ks(a, b) -> KSResult:
    """KS test with the asymptotic null law (``kolmogorov_sf``) for the p-value."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = ks_statistic(a, b)
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    return KSResult(statistic=d, pvalue=kolmogorov_sf(en * d), n1=a.size, n2=b.size)


def ks_calibration(sampler: Callable, n: int, reps: int = 100, seed: int = 0) -> tuple[float, int]:
    """Null rejection rate of the KS machinery on same-law sample pairs.

    sampler(n, rng) must return n iid draws.  Returns (fraction, count) of
    replications with p-value below KS_LEVEL.
    """
    hits = 0
    for r in range(reps):
        rng = as_rng(np.random.SeedSequence([seed, 9101, r]))
        res = two_sample_ks(sampler(n, rng), sampler(n, rng))
        hits += res.pvalue < KS_LEVEL
    return hits / reps, hits


def decomposition_ks_test(
    levy: LevyMeasureSpec, horizon: float, n_samples: int, seed: int = 0
) -> KSResult:
    """Compare the driver marginal against its split-at-unit-cutoff rebuild.

    Route one subordinates a Gaussian by the full clock increment; route two
    uses the truncated clock plus an independent compound Poisson sum of
    mixed-Gaussian heavy displacements.  Equality in law is checked on one
    coordinate with the two-sample KS test.
    """
    decomp = decompose_large_jumps(levy)
    rng_a = as_rng(np.random.SeedSequence([seed, 9201]))
    rng_b = as_rng(np.random.SeedSequence([seed, 9202]))
    dt = np.array([horizon])
    s_full = sample_increments(levy, dt, n_samples, rng_a)[:, 0]
    x_full = np.sqrt(s_full)[:, None] * rng_a.standard_normal((n_samples, 1))
    s_trunc = sample_increments(decomp.truncated, dt, n_samples, rng_b)[:, 0]
    x_trunc = np.sqrt(s_trunc)[:, None] * rng_b.standard_normal((n_samples, 1))
    counts = rng_b.poisson(decomp.lambda1 * horizon, size=n_samples)
    total = int(counts.sum())
    if total:
        xi = sample_xi(decomp, 1, rng_b, size=total)
        idx = np.repeat(np.arange(n_samples), counts)
        np.add.at(x_trunc, idx, xi)
    return two_sample_ks(x_full[:, 0], x_trunc[:, 0])


def ks_verdict(ks: KSResult) -> Verdict:
    return Verdict("ks_split", ks.pvalue, KS_LEVEL, None, ks.pvalue >= KS_LEVEL,
                   "the large-jump split is not rejected at the 1% level")


def h3_verdict(h3: H3Result) -> Verdict:
    return Verdict("h3_balance", h3.spread, H3_RTOL, None, h3.verdict == "holds",
                   "the small-jump balance is flat on the probed grid; its limit is untested")


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


def tail_verdict(curve: TailCurve) -> Verdict:
    bound = TAIL_Z * curve.slope_stderr
    return Verdict("tail_slope", curve.slope, bound, curve.slope_stderr, curve.slope > bound,
                   "the empirical CDF rises; a positive slope bounds no tail order or moment")


TAIL_SAMPLES_PER_COUNT = 10  # eigen_tail needs at least this many samples per min_count


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
    if n < TAIL_SAMPLES_PER_COUNT * min_count:
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
class TestField(Rebuilt):
    """Matrix test field V(x, i) with an analytic spatial Jacobian.

    value(x, a) -> (..., n, dv); jac(x, a) -> (..., n, n, dv) with
    [..., c, r, k] = d V_{r k} / d x_c.  A field from ``constant_field`` or
    ``scaled_cos_field`` pickles as that call.
    """

    name: str
    dv: int
    value: Callable
    jac: Callable
    recipe: Callable | None = field(default=None, init=False, repr=False, compare=False)


@recorded
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


@recorded
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
    xc = np.moveaxis(x, -1, 0)  # drift and drift_jac are components-first
    b = np.moveaxis(model.drift(xc, a), 0, -1)
    jb = np.ascontiguousarray(np.moveaxis(model.drift_jac(xc, a), (0, 1), (-2, -1)))
    return np.einsum("...crv,...c->...rv", jv, b) - np.einsum("...rc,...cv->...rv", jb, v)


def beta_floor(levy: LevyMeasureSpec) -> float:
    """max(0, 4 theta - 7): NorrisParams.beta must exceed it on this clock."""
    return max(0.0, 4.0 * levy.theta - 7.0)


@dataclass
class NorrisParams:
    """Joint-event geometry: {I_bracket >= eps^q} with q = (1-beta)/(18-beta),
    intersected with {I_field <= eps}, on a frozen-regime window."""

    window: tuple[float, float]
    regime: int
    direction: np.ndarray
    eps_grid: np.ndarray
    beta: float = 0.5

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        nrm = np.linalg.norm(self.direction)
        if nrm == 0:
            raise ValueError("direction must be a nonzero vector")
        self.direction = self.direction / nrm
        self.eps_grid = np.sort(np.asarray(self.eps_grid, dtype=float))[::-1]
        if np.any(self.eps_grid <= 0):
            raise ValueError("eps grid must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        t1, t2 = self.window
        if not 0 <= t1 < t2:
            raise ValueError("window must satisfy 0 <= t1 < t2")

    def threshold(self, eps: float) -> float:
        return float(eps ** ((1.0 - self.beta) / (18.0 - self.beta)))


def window_integrals(
    model: ModelSpec, noise: BatchNoise, params: NorrisParams, fld: TestField
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (I_field, I_bracket) of one bundle on its frozen-regime window [t1, t2].

    The bundle is integrated up to t1 with its regime events; from each
    path's state and inverse flow there, the window is integrated again over
    the same noise with the regime frozen.  Both integrands are squared
    projections onto the chosen direction, integrated by the trapezoid rule.
    """
    if not 1 <= params.regime <= model.rates.m0:
        raise ValueError(f"regime must lie in 1..{model.rates.m0}")
    # the end padding is an exact no-op, so X and K are each path's values at t1
    opened = batch_flows(model, noise.window(0.0, params.window[0]), want_Q=False)
    win = replace(noise.window(*params.window), events=[])
    frozen = batch_flows(
        model, win, x0=opened.X, K0=opened.K, alpha0=params.regime, want_Q=False, record=True
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


def norris_verdict(curve: NorrisCurve) -> Verdict:
    rises = np.diff(curve.probs) / np.hypot(curve.se[:-1], curve.se[1:])  # in combined se
    rise = float(np.max(rises, initial=-np.inf))
    return Verdict("norris_monotone", rise, NORRIS_Z, None, rise <= NORRIS_Z,
                   "the joint probability does not rise as eps shrinks; its rate is untested")


def norris_recorded(model: ModelSpec) -> int:
    """Float64 values per path and grid point that ``window_integrals`` keeps beside the
    noise: X, alpha and K on the window, and the window's own noise."""
    return model.n + 1 + model.n**2 + 2 + model.d


def norris_curve(params: NorrisParams, i_field, i_bracket) -> NorrisCurve:
    """The curve eps -> P(I_bracket >= eps^q, I_field <= eps) of per-path integrals."""
    n_paths = i_field.size
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
    )


def norris_joint_probability(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    params: NorrisParams,
    fld: TestField,
    n_paths: int,
    seed: int = 0,
    workers: int = 1,
) -> NorrisCurve:
    """Monte Carlo curve eps -> P(I_bracket >= eps^q, I_field <= eps).

    Paths are seeded in 64-path blocks, each by its first path index, and
    integrated by ``window_integrals`` in bundles of contiguous blocks sized by
    ``bundle_ranges``, on up to `workers` processes (``map_bundles``); this is
    what ``switchsde norris`` runs.
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    if params.beta <= beta_floor(levy):
        raise ValueError(f"beta must exceed {beta_floor(levy)} for theta = {levy.theta}")
    ranges = bundle_ranges(n_paths, n_steps, model.d, norris_recorded(model), tasks=workers)
    body = partial(_window_bundle, model, params, fld)
    pairs, _ = sde_core.map_bundles(
        body, model, levy, horizon, n_steps, seed, STREAM_NORRIS, ranges, workers
    )
    return norris_curve(params, *(np.concatenate(v) for v in zip(*pairs)))


def _window_bundle(model, params, fld, noise, lo, hi):
    return window_integrals(model, noise, params, fld)


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


def gradrep_verdict(res: GradRepResult) -> Verdict:
    ratio = float(np.max(np.abs(res.residual) / res.combined_se))
    return Verdict("gradrep_ratio", ratio, GRADREP_Z, None, ratio <= GRADREP_Z,
                   "the first-derivative transfer identity holds within its error budget")


def _gradrep_residual_rows(model, f, x_all, k_all, eta, rows):
    """Per-path residual vector from a start bundle; rows = (plus_i, minus_i) pairs."""
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


def _gradrep_tile(model, f, grad_f, eta, bundle, tile, lo, hi):
    """gf and the fine, wide and coarse residuals of one freshly drawn tile's paths."""
    n = model.n
    rows_eta = [(1 + 2 * i, 2 + 2 * i) for i in range(n)]
    rows_2eta = [(1 + 2 * n + 2 * i, 2 + 2 * n + 2 * i) for i in range(n)]
    res = batch_flows(model, tile, x0=bundle, want_Q=False)
    # the half-resolution residual reads only the center and the +-eta starts; its
    # noise is the tile's own, merged in place now that the fine run is done
    res_c = batch_flows(model, tile.coarsen(), x0=bundle[: 2 * n + 1], want_Q=False)
    gf = grad_f(res.X[0])  # (tile, n)
    r_fine = gf - _gradrep_residual_rows(model, f, res.X, res.K, eta, rows_eta)
    r_wide = gf - _gradrep_residual_rows(model, f, res.X, res.K, 2.0 * eta, rows_2eta)
    gf_c = grad_f(res_c.X[0])
    r_coarse = gf_c - _gradrep_residual_rows(model, f, res_c.X, res_c.K, eta, rows_eta)
    return gf, r_fine, r_wide, r_coarse


def gradient_representation_check(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    f: Callable,
    grad_f: Callable,
    eta: float = 1e-3,
    seed: int = 0,
    workers: int = 1,
) -> GradRepResult:
    """Check the derivative-transfer identity by common-random-number bundles.

    Every path is simulated simultaneously from the model's start and from
    +-eta and +-2*eta coordinate shifts, sharing noise; the same noise,
    pairwise-merged, drives a half-resolution run from the start and +-eta.
    The doubled-step and doubled-increment residuals estimate the two bias
    components.  Paths are drawn from their seed blocks and integrated in
    tiles of PATH_TILE on up to `workers` processes (``map_bundles``), each
    holding one tile's noise at a time, which ``BatchNoise.coarsen`` merges
    in place for the half-resolution run; each
    tile is reduced to per-path values, which are averaged once in path
    order, so the result depends on neither the tiling nor the workers.
    f and grad_f must pickle for the tiles to leave this process.  The clock
    levy is integrated as given; ``decompose_large_jumps(levy).truncated``
    is its small-jump part.
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    if n_steps % 2:
        raise ValueError("n_steps must be even so the half-resolution run exists")
    x0 = model.x0
    shifts = [scale * e for scale in (eta, 2.0 * eta) for e in np.eye(model.n)]
    bundle = np.stack([x0] + [x for h in shifts for x in (x0 + h, x0 - h)])[:, None, :]
    tiles = [(lo, min(lo + PATH_TILE, n_paths)) for lo in range(0, n_paths, PATH_TILE)]
    body = partial(_gradrep_tile, model, f, grad_f, eta, bundle)
    parts, _ = sde_core.map_bundles(
        body, model, levy, horizon, n_steps, seed, STREAM_GRADREP, tiles, workers
    )
    # the per-path values averaged once, in path order
    gf, r_fine, r_wide, r_coarse = (np.concatenate(v) for v in zip(*parts))
    mean_r = r_fine.mean(axis=0)
    var = np.maximum((r_fine**2).mean(axis=0) - mean_r**2, 0.0)
    se_mc = np.sqrt(var / n_paths)
    fd_bias = np.abs(r_wide.mean(axis=0) - mean_r) / 3.0
    dt_bias = np.abs(r_coarse.mean(axis=0) - mean_r)
    combined = se_mc + fd_bias + dt_bias
    return GradRepResult(
        residual=mean_r,
        se_mc=se_mc,
        fd_bias=fd_bias,
        dt_bias=dt_bias,
        combined_se=np.maximum(combined, 1e-15),
        lhs=gf.mean(axis=0),
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
