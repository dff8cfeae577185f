"""Coupled simulation of the state and the regime chain.

The state follows an explicit Euler scheme on a grid refined to include every
switching event time:

    X_{k+1} = X_k + b(X_k, alpha_k) dt_k + sigma (W_{S_{t_{k+1}}} - W_{S_{t_k}}),

with the regime updated at event times from the left limits (X_{s-},
alpha_{s-}) via the mark-partition rule.  The per-step driver increment is
sqrt(dS_k) Z_k with Z_k standard normal, exact in law given the subordinator
increment.  The full noise record (subordinator path, normals, event marks)
is retained so perturbed and frozen-regime re-integrations reuse identical
randomness.

Batched noise serves constant-rate models: all paths share one uniform grid
and regime changes take effect at the first grid point at or after their
event time (the per-path reference engine refines the grid exactly).
``flows.batch_flows`` integrates a bundle against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError, UnsupportedConfigError
from .levy_noise import (
    LevyMeasureSpec,
    SubordinatorPath,
    as_rng,
    sample_increments,
    sample_subordinator_path,
)
from .models import ModelSpec
from .switching import partition_point, simulate_regime_events

OVERFLOW_GUARD = 1e12


@dataclass
class PerturbationSpec:
    """Cameron-Martin shift of the Brownian layer in the subordinated clock.

    h is piecewise constant: values[k] (a d-vector) holds on
    [breakpoints[k], breakpoints[k+1]) of the S-axis and h = 0 beyond the
    table, so the L2 norm is finite.  The perturbed state adds
    eps * sigma * (H(S_{t_{k+1}}) - H(S_{t_k})) per step, H(u) = integral(0,u) h.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    eps: float = 0.0

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.breakpoints.ndim != 1 or self.breakpoints.size != self.values.shape[0] + 1:
            raise DataError("need len(breakpoints) == len(values) + 1")
        if self.breakpoints[0] < 0 or np.any(np.diff(self.breakpoints) <= 0):
            raise DataError("breakpoints must be nonnegative and strictly increasing")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.values**2 * np.diff(self.breakpoints)[:, None]))

    def integral(self, u) -> np.ndarray:
        """H(u) = integral(0,u) h_s ds, exact for the piecewise-constant table."""
        u = np.asarray(u, dtype=float)
        widths = np.diff(self.breakpoints)
        full = np.cumsum(
            np.vstack([np.zeros((1, self.d)), widths[:, None] * self.values]), axis=0
        )
        idx = np.clip(np.searchsorted(self.breakpoints, u, side="right") - 1, 0, len(widths))
        base = full[idx]
        inside = idx < len(widths)
        lo = self.breakpoints[np.minimum(idx, len(widths) - 1)]
        frac = np.where(inside, np.clip(u - lo, 0.0, None), 0.0)
        vals = self.values[np.minimum(idx, len(widths) - 1)]
        return base + frac[..., None] * vals


def constant_direction(value, upto: float) -> PerturbationSpec:
    """h equal to a fixed vector on [0, upto) and zero after."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return PerturbationSpec(breakpoints=np.array([0.0, upto]), values=v[None, :])


@dataclass
class CoupledPath:
    """State, regime, and the complete noise record on one refined grid.

    alpha[k] is the regime in force on [times[k], times[k+1]); X and S are
    the values at the grid points.  normals, dS, event times/marks, and the
    subordinator path are sufficient to re-integrate against the identical
    noise.
    """

    times: np.ndarray
    X: np.ndarray
    alpha: np.ndarray
    S: np.ndarray
    dS: np.ndarray
    normals: np.ndarray
    event_times: np.ndarray
    event_marks: np.ndarray
    sub: SubordinatorPath
    eps: float = 0.0

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def state_at_time(self, t: float) -> np.ndarray:
        k = grid_index(self.times, t)
        return self.X[k]


def grid_index(times: np.ndarray, t: float, tol: float = 1e-10) -> int:
    k = int(np.searchsorted(times, t))
    for cand in (k - 1, k, k + 1):
        if 0 <= cand < times.size and abs(times[cand] - t) <= tol:
            return cand
    raise DataError(f"time {t} is not a grid point")


def build_time_grid(horizon: float, grid_step: float, extra_times=()) -> np.ndarray:
    if horizon <= 0 or grid_step <= 0:
        raise ValueError("horizon and grid_step must be positive")
    n = max(1, int(round(horizon / grid_step)))
    base = np.linspace(0.0, horizon, n + 1)
    extra = np.asarray(extra_times, dtype=float)
    times = np.unique(np.concatenate([base, extra[(extra > 0) & (extra < horizon)]]))
    keep = np.concatenate([[True], np.diff(times) > 1e-15])
    return times[keep]


def _step_state(model, x, a, dt, dw):
    return x + model.drift(x, a) * dt + model.sigma @ dw


def simulate_path(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    grid_step: float,
    seed=None,
) -> CoupledPath:
    """Reference per-path engine with exact event-time grid refinement."""
    rng = as_rng(seed)
    if model.rates.m0 > 1:
        events = simulate_regime_events(model.rates.m0, model.rates.bound, horizon, rng)
    else:
        events = None
    ev_times = events.times if events is not None else np.empty(0)
    ev_marks = events.marks if events is not None else np.empty(0)
    times = build_time_grid(horizon, grid_step, ev_times)
    sub = sample_subordinator_path(levy, horizon, seed=rng, times=times)
    dS = sub.increments()
    z = rng.standard_normal((dS.size, model.d))
    return _integrate(model, times, sub, dS, z, ev_times, ev_marks, eps=0.0, pert=None)


def _integrate(
    model, times, sub, dS, z, ev_times, ev_marks, eps, pert, x0=None, alpha0=None
) -> CoupledPath:
    """Euler loop along one noise record, from (x0, alpha0) or the model's start."""
    n_steps = times.size - 1
    X = np.empty((n_steps + 1, model.n))
    alpha = np.empty(n_steps + 1, dtype=int)
    X[0] = model.x0 if x0 is None else x0
    cur = model.alpha0 if alpha0 is None else alpha0
    alpha[0] = cur
    sqrt_dS = np.sqrt(dS)
    dH = None
    if pert is not None and eps != 0.0:
        H = pert.integral(sub.values)
        dH = np.diff(H, axis=0)
    ev_idx: dict[int, list[float]] = {}
    for j, t in enumerate(ev_times):
        if 0.0 < t < times[-1]:
            ev_idx.setdefault(grid_index(times, t), []).append(ev_marks[j])
    for k in range(n_steps):
        dt = times[k + 1] - times[k]
        dw = sqrt_dS[k] * z[k]
        x_next = _step_state(model, X[k], cur, dt, dw)
        if dH is not None:
            x_next = x_next + eps * (model.sigma @ dH[k])
        if not np.abs(x_next).max() <= OVERFLOW_GUARD:
            raise NumericError(
                f"state left the trusted range at step {k + 1} (t={times[k + 1]:.6g})"
            )
        X[k + 1] = x_next
        for mark in ev_idx.get(k + 1, ()):
            cur = partition_point(model.rates, X[k + 1], cur, mark)
        alpha[k + 1] = cur
    return CoupledPath(
        times=times,
        X=X,
        alpha=alpha,
        S=sub.values,
        dS=dS,
        normals=z,
        event_times=np.asarray(ev_times, dtype=float),
        event_marks=np.asarray(ev_marks, dtype=float),
        sub=sub,
        eps=eps,
    )


def simulate_perturbed_path(
    model: ModelSpec, base: CoupledPath, pert: PerturbationSpec
) -> CoupledPath:
    """Re-integrate against the base path's noise with the shifted Brownian layer.

    The same event marks drive the regime, evaluated at the perturbed left
    limits, so the regime path itself may react to the shift.  eps = 0
    reproduces the base path bit for bit.
    """
    if pert.d != model.d:
        raise DataError(f"perturbation direction has d={pert.d}, model expects {model.d}")
    return _integrate(
        model,
        base.times,
        base.sub,
        base.dS,
        base.normals,
        base.event_times,
        base.event_marks,
        eps=pert.eps,
        pert=pert,
    )


def frozen_regime_path(
    model: ModelSpec, regime: int, window: tuple[float, float], base: CoupledPath
) -> CoupledPath:
    """Evolve the state with the regime frozen over [t1, t2], reusing base noise.

    Starts from the base state at t1; window endpoints must be grid points.
    """
    t1, t2 = window
    if not 0 <= t1 < t2:
        raise ValueError(f"need 0 <= t1 < t2, got {window}")
    if not 1 <= regime <= model.rates.m0:
        raise ValueError(f"regime must lie in 1..{model.rates.m0}")
    k1 = grid_index(base.times, t1)
    k2 = grid_index(base.times, t2)
    times = base.times[k1 : k2 + 1]
    sub = replace(base.sub, times=times, values=base.S[k1 : k2 + 1].copy())
    return _integrate(
        model,
        times,
        sub,
        base.dS[k1:k2],
        base.normals[k1:k2],
        (),
        (),
        eps=base.eps,
        pert=None,
        x0=base.X[k1],
        alpha0=regime,
    )


# ---------------------------------------------------------------------------
# batched noise (constant-rate models, shared uniform grid)


@dataclass
class BatchNoise:
    """Noise for a bundle of paths on a shared uniform grid.

    alpha[p, k] is path p's regime on step k; switching events are applied at
    the first grid point at or after their arrival time.
    """

    times: np.ndarray  # (K+1,)
    dS: np.ndarray  # (P, K)
    normals: np.ndarray  # (P, K, d)
    alpha: np.ndarray  # (P, K+1) int
    n_paths: int

    def coarsen(self) -> "BatchNoise":
        """Merge adjacent step pairs into one step of the same driver path."""
        k = self.dS.shape[1]
        if k % 2:
            raise DataError("coarsening needs an even number of steps")
        d2 = self.dS[:, 0::2] + self.dS[:, 1::2]
        num = (
            np.sqrt(self.dS[:, 0::2])[..., None] * self.normals[:, 0::2]
            + np.sqrt(self.dS[:, 1::2])[..., None] * self.normals[:, 1::2]
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            z2 = np.where(d2[..., None] > 0, num / np.sqrt(d2)[..., None], 0.0)
        return BatchNoise(
            times=self.times[0::2],
            dS=d2,
            normals=z2,
            alpha=self.alpha[:, 0::2],
            n_paths=self.n_paths,
        )


def sample_batch_noise(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed=None,
    regime_frozen: int | None = None,
) -> BatchNoise:
    if model.rates.state_dependent:
        raise UnsupportedConfigError("the batched engine requires state-independent rates")
    rng = as_rng(seed)
    times = np.linspace(0.0, horizon, n_steps + 1)
    dS = sample_increments(levy, np.diff(times), n_paths, rng)
    z = rng.standard_normal((n_paths, n_steps, model.d))
    alpha = np.full((n_paths, n_steps + 1), model.alpha0, dtype=np.int64)
    if regime_frozen is not None:
        alpha[:] = regime_frozen
    elif model.rates.m0 > 1:
        for p in range(n_paths):
            ev = simulate_regime_events(model.rates.m0, model.rates.bound, horizon, rng)
            cur = model.alpha0
            for t, mark in zip(ev.times, ev.marks):
                nxt = partition_point(model.rates, None, cur, mark)
                if nxt != cur:
                    k = int(np.searchsorted(times, t, side="left"))
                    alpha[p, k:] = nxt
                    cur = nxt
    return BatchNoise(times=times, dS=dS, normals=z, alpha=alpha, n_paths=n_paths)
