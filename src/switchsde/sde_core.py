"""Coupled simulation of the state, its flows and the regime chain.

The state follows an explicit Euler scheme

    X_{k+1} = X_k + b(X_k, alpha_k) dt_k + sigma (W_{S_{t_{k+1}}} - W_{S_{t_k}}),

with the per-step driver increment sqrt(dS_k) Z_k, exact in law given the
subordinator increment; the flows J, K and the reduced covariance Q (see
``flows``) ride along, and the regime changes at switching events from the
left limits (X_{s-}, alpha_{s-}) via the mark-partition rule.

``batch_flows`` is the one step loop and ``sample_batch_noise`` the one noise
sampler.  The sampler draws each path's switching events first and refines
that path's grid to contain their times, so every switch lands exactly at
its event time; the grids of a bundle are padded at the end with zero-length
steps (dt = 0, dS = 0), which are exact no-ops, and a bundle without events
shares one uniform grid.  The per-path engine (``simulate_paths``) draws one
such path per seed and keeps its full record, so perturbed and frozen-regime
re-integrations reuse identical randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericError, UnsupportedConfigError
from .levy_noise import LevyMeasureSpec, as_rng, sample_increments
from .models import ModelSpec
from .switching import partition_point

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
    """State, regime, flows and the complete noise record on one refined grid.

    alpha[k] is the regime in force on [times[k], times[k+1]); X, S and the
    flows J, K are the values at the grid points.  normals, dS and the event
    times/marks are sufficient to re-integrate against the identical noise.
    A frozen-regime window carries no J, and its K continues the base path's.
    """

    times: np.ndarray
    X: np.ndarray
    alpha: np.ndarray
    S: np.ndarray
    dS: np.ndarray
    normals: np.ndarray
    event_times: np.ndarray
    event_marks: np.ndarray
    J: np.ndarray | None = None
    K: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def state_at_time(self, t: float) -> np.ndarray:
        return self.X[grid_index(self.times, t)]


def grid_index(times: np.ndarray, t: float, tol: float = 1e-10) -> int:
    k = int(np.searchsorted(times, t))
    for cand in (k - 1, k, k + 1):
        if 0 <= cand < times.size and abs(times[cand] - t) <= tol:
            return cand
    raise DataError(f"time {t} is not a grid point")


def simulate_paths(
    model: ModelSpec, levy: LevyMeasureSpec, horizon: float, grid_step: float, seeds
) -> list[CoupledPath]:
    """Reference per-path engine: one ``sample_batch_noise`` path per seed.

    Each record keeps its refined grid without padding, S = cumsum(dS), the
    normals and its events; the records are integrated as one padded bundle.
    """
    if not (horizon > 0 and grid_step > 0):
        raise ValueError(f"horizon and grid_step must be positive, got {horizon}, {grid_step}")
    n = max(1, int(round(horizon / grid_step)))
    records = []
    for seed in seeds:
        noise = sample_batch_noise(model, levy, horizon, n, 1, seed)
        index = [j for _, j, _ in noise.events]
        size = n + 1 + len(index)
        times = np.atleast_2d(noise.times)[0, :size]
        dS, z = noise.dS[0, : size - 1], noise.normals[0, : size - 1]
        S = np.concatenate([[0.0], np.cumsum(dS)])
        marks = np.array([mark for _, _, mark in noise.events])
        records.append(CoupledPath(times, None, None, S, dS, z, times[index], marks))
    return _integrate_records(model, records)


def simulate_path(
    model: ModelSpec, levy: LevyMeasureSpec, horizon: float, grid_step: float, seed=None
) -> CoupledPath:
    """One path of ``simulate_paths``."""
    return simulate_paths(model, levy, horizon, grid_step, [seed])[0]


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
    dH = np.diff(pert.integral(base.S), axis=0)
    shifts = [pert.eps * (dH @ model.sigma.T)] if pert.eps != 0.0 else None
    return _integrate_records(model, [base], shifts=shifts)[0]


def frozen_regime_paths(
    model: ModelSpec, regime: int, window: tuple[float, float], bases
) -> list[CoupledPath]:
    """Evolve each base state with the regime frozen over [t1, t2], reusing its noise.

    A window starts from its base path's X and K at t1 and carries no J;
    window endpoints must be grid points of every base path.
    """
    t1, t2 = window
    if not 0 <= t1 < t2:
        raise ValueError(f"need 0 <= t1 < t2, got {window}")
    if not 1 <= regime <= model.rates.m0:
        raise ValueError(f"regime must lie in 1..{model.rates.m0}")
    ks = [(grid_index(b.times, t1), grid_index(b.times, t2)) for b in bases]
    windows = [
        CoupledPath(b.times[k1 : k2 + 1], None, None, b.S[k1 : k2 + 1], b.dS[k1:k2],
                    b.normals[k1:k2], np.empty(0), np.empty(0))
        for b, (k1, k2) in zip(bases, ks)
    ]
    x0 = np.stack([b.X[k1] for b, (k1, _) in zip(bases, ks)])
    K0 = np.stack([b.K[k1] for b, (k1, _) in zip(bases, ks)])
    return _integrate_records(model, windows, x0=x0, K0=K0, alpha0=regime, want_J=False)


def frozen_regime_path(
    model: ModelSpec, regime: int, window: tuple[float, float], base: CoupledPath
) -> CoupledPath:
    """One window of ``frozen_regime_paths``."""
    return frozen_regime_paths(model, regime, window, [base])[0]


def _pad(rows, width: int, edge: bool = False) -> np.ndarray:
    """Stack rows of unequal length, padded to width with zeros or their last entry."""
    out = np.zeros((len(rows), width) + rows[0].shape[1:])
    for p, row in enumerate(rows):
        out[p, : len(row)] = row
        if edge:
            out[p, len(row) :] = row[-1]
    return out


def _integrate_records(model, records, shifts=None, want_J=True, **start) -> list[CoupledPath]:
    """Integrate per-path noise records as one bundle padded with zero-length steps."""
    width = max(r.times.size for r in records)
    events = [
        (p, j, mark)
        for p, r in enumerate(records)
        for j, mark in zip(np.searchsorted(r.times, r.event_times, "right") - 1, r.event_marks)
    ]
    noise = BatchNoise(
        _pad([r.times for r in records], width, edge=True),
        _pad([r.dS for r in records], width - 1),
        _pad([r.normals for r in records], width - 1),
        len(records),
        events,
    )
    shift = None if shifts is None else _pad(shifts, width - 1)
    res = batch_flows(model, noise, shift=shift, want_J=want_J, want_Q=False, record=True, **start)
    out = []
    for p, r in enumerate(records):
        c = slice(r.times.size)
        X, alpha, K = res.X_path[p, c], res.alpha_path[p, c], res.K_path[p, c]
        out.append(replace(r, X=X, alpha=alpha, J=res.J_path[p, c] if want_J else None, K=K))
    return out


# ---------------------------------------------------------------------------
# bundles of noise records and the one step loop


@dataclass
class BatchNoise:
    """Noise for a bundle of paths on one shared grid or one grid per path.

    times is (K+1,) for a shared grid, or (P, K+1) with each path's grid
    padded at its end by repeats of its last point; padded steps carry
    dS = 0, so their normals drive nothing.  events lists (path, grid index,
    mark) triples, each path's in time order.
    """

    times: np.ndarray
    dS: np.ndarray  # (P, K)
    normals: np.ndarray  # (P, K, d)
    n_paths: int
    events: list = field(default_factory=list)

    def coarsen(self) -> "BatchNoise":
        """Merge adjacent step pairs into one step of the same driver path.

        An event at fine grid index j takes effect at coarse index ceil(j/2).
        """
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
        events = [(p, (j + 1) // 2, mark) for p, j, mark in self.events]
        return BatchNoise(self.times[..., 0::2], d2, z2, self.n_paths, events)


def sample_batch_noise(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed=None,
) -> BatchNoise:
    """Noise for a bundle of paths, each on its uniform grid refined to its event times.

    Draws, in order: every path's switching events (counts, times, marks;
    none for one regime), each cell's clock increment over its own dt, then
    the normals.  Grids are padded at the end with zero-length steps to one
    step count of the parity of n_steps; without events the bundle shares
    the uniform (n_steps + 1,) grid.
    """
    rng = as_rng(seed)
    times = np.linspace(0.0, horizon, n_steps + 1)
    rate = model.rates.mark_space()
    counts = rng.poisson(rate * horizon, n_paths) if model.rates.m0 > 1 else np.zeros(n_paths, int)
    events = []
    extra = int(counts.max(initial=0))
    if extra:
        total = int(counts.sum())
        path = np.repeat(np.arange(n_paths), counts)
        col = n_steps + 1 + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        pts = np.full((n_paths, n_steps + 1 + extra + extra % 2), horizon)
        pts[:, : n_steps + 1] = times
        pts[path, col] = rng.uniform(0.0, horizon, total)
        marks = rng.uniform(0.0, rate, total)
        # a stable sort puts an event after a grid point at the same time
        order = np.argsort(pts, axis=1, kind="stable")
        times = np.take_along_axis(pts, order, axis=1)
        index = np.argsort(order, axis=1)[path, col]  # where each event column landed
        keep = np.lexsort((index, path))
        events = list(zip(path[keep].tolist(), index[keep].tolist(), marks[keep].tolist()))
    dS = sample_increments(levy, np.diff(times, axis=-1), n_paths, rng)
    z = rng.standard_normal(dS.shape + (model.d,))
    return BatchNoise(times=times, dS=dS, normals=z, n_paths=n_paths, events=events)


@dataclass
class BatchFlowResult:
    """Values at the end of the grid; the *_path fields hold every grid point."""

    X: np.ndarray  # (..., P, n)
    J: np.ndarray | None
    K: np.ndarray | None
    Q: np.ndarray | None
    X_path: np.ndarray | None = None  # (..., P, K+1, n)
    alpha_path: np.ndarray | None = None  # (P, K+1)
    J_path: np.ndarray | None = None  # (..., P, K+1, n, n)
    K_path: np.ndarray | None = None  # (..., P, K+1, n, n)


def batch_flows(
    model: ModelSpec,
    noise: BatchNoise,
    x0=None,
    K0=None,
    alpha0=None,
    shift=None,
    want_J: bool = False,
    want_Q: bool = True,
    record: bool = False,
) -> BatchFlowResult:
    """Evolve state, regime, flows and reduced covariance for a bundle of paths.

    x0 (and K0) may carry extra leading axes over (n_paths, n); the noise
    broadcasts across them, which gives common-random-number bundles for
    finite-difference starts.  alpha0 is one regime or one per path; shift
    (n_paths, K, n) is added to the state increments.  After step j - 1 an
    event (p, j, mark) moves path p's regime by the mark rule at X_j.

    For a model with affine data the Jacobian does not depend on x, so J, K
    and Q are evolved once per path (once per bundle for one regime on a
    shared grid) and broadcast over the start axes of the result.
    """
    x0 = np.asarray(model.x0 if x0 is None else x0, dtype=float)
    lead = np.broadcast_shapes(x0.shape[:-1], (noise.n_paths,))
    n = model.n
    x = np.broadcast_to(x0, lead + (n,)).copy()
    steps = noise.dS.shape[1]
    dts = np.diff(noise.times, axis=-1).T  # (K,) shared grid, (K, P) per-path grids
    dt_x, dt_g = (dts[..., None], dts[..., None, None]) if dts.ndim == 2 else (dts, dts)
    jac, flow_lead = model.drift_jac, lead
    if model.affine is not None:
        mats, m0 = model.affine[0], model.rates.m0
        jac = (lambda x, a: mats[0]) if m0 == 1 else (lambda x, a: mats[a - 1])
        per_path = (noise.n_paths,) if m0 > 1 or dts.ndim == 2 else ()
        flow_lead = np.broadcast_shapes(np.shape(K0)[:-2] if K0 is not None else (), per_path)
    eye = np.eye(n)
    K = eye if K0 is None else np.asarray(K0, dtype=float)
    K = np.broadcast_to(K, flow_lead + (n, n)).copy()
    J = np.broadcast_to(eye, flow_lead + (n, n)).copy() if want_J else None
    Q = np.zeros(np.broadcast_shapes(flow_lead, (noise.n_paths,)) + (n, n)) if want_Q else None
    a = np.full(noise.n_paths, model.alpha0 if alpha0 is None else alpha0, dtype=np.int64)
    at_state = model.rates.state_dependent
    if at_state and len(lead) > 1 and noise.events:
        raise UnsupportedConfigError("state-dependent switching needs one start per path")
    events: dict[int, list] = {}
    for p, j, mark in noise.events:
        events.setdefault(j, []).append((p, mark))
    sqrt_dS = np.sqrt(noise.dS)
    sig = model.sigma
    Xs = np.empty(lead + (steps + 1, n)) if record else None
    alphas = np.empty((noise.n_paths, steps + 1), dtype=np.int64) if record else None
    Js = np.empty(flow_lead + (steps + 1, n, n)) if record and want_J else None
    Ks = np.empty(flow_lead + (steps + 1, n, n)) if record else None
    for k in range(steps + 1):
        for p, mark in events.get(k, ()):
            a[p] = partition_point(model.rates, x[p] if at_state else None, a[p], mark)
        if record:
            Xs[..., k, :] = x
            alphas[:, k] = a
            Ks[..., k, :, :] = K
            if want_J:
                Js[..., k, :, :] = J
        if k == steps:
            break
        if Q is not None:
            r = K @ sig  # (..., n, d)
            Q = Q + np.einsum("...ad,...bd->...ab", r, r) * noise.dS[:, k, None, None]
        g = jac(x, a) * dt_g[k]
        if want_J:
            J = J + g @ J
        K = K - K @ g
        dw = sqrt_dS[:, k, None] * noise.normals[:, k]
        x = x + model.drift(x, a) * dt_x[k] + dw @ sig.T
        if shift is not None:
            x = x + shift[:, k]
        if not np.abs(x).max() <= OVERFLOW_GUARD:
            raise NumericError(f"a state left the trusted range at step {k + 1}")
    J, K, Q = (_widen(v, lead + (n, n)) for v in (J, K, Q))
    Js, Ks = (_widen(v, lead + (steps + 1, n, n)) for v in (Js, Ks))
    return BatchFlowResult(
        X=x, J=J, K=K, Q=Q, X_path=Xs, alpha_path=alphas, J_path=Js, K_path=Ks
    )


def _widen(v, shape):
    """v broadcast to shape as a writable array; v itself when it has that shape."""
    return v if v is None or v.shape == shape else np.broadcast_to(v, shape).copy()
