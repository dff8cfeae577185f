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
shares one uniform grid.  A bundle's noise with ``batch_flows(record=True)``
is the one path record: perturbed runs re-integrate the same noise with a
shift, and ``BatchNoise.window`` cuts it to a frozen-regime window.  The loop
holds the state components-first, as (n, ..., paths), and updates it in
place: x += b dt, x += sigma dw, x += shift, each a ufunc pass into
preallocated buffers, with the drift called on the same layout (see
``models``).  It accumulates Q with the paths innermost too, as
(n, n, paths), so each increment sum_c r_c r_c^T dS is a few ufunc passes
over contiguous path rows.  X and Q are moved back to paths-first once, at
the end; the recorded X_path is written through a paths-first view.

Seed blocks and integration bundles are different things.  A seed block is
SEED_BLOCK = 64 paths drawn from one generator, SeedSequence([seed, stream,
first path]); it fixes every draw.  An integration bundle is a contiguous
run of seed blocks that ``sample_batch_noise`` stacks into one padded
bundle for one ``batch_flows`` call; ``bundle_ranges`` sizes it by memory
(BUNDLE_BYTES) and by the number of tasks wanted.  Because padding is an
exact no-op and rows never mix, a path's results do not depend on which
bundle integrated it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, UnsupportedConfigError
from .levy_noise import LevyMeasureSpec, as_rng, sample_increments
from .models import ModelSpec
from .switching import partition_point

OVERFLOW_GUARD = 1e12
GRID_TOL = 1e-10  # a time within this of a grid point is that grid point
SEED_BLOCK = 64  # paths per generator, see the module docstring
BUNDLE_BYTES = 4 << 20  # noise plus recorded paths held by one integration bundle
MC_BLOCK = 20000  # paths per generator in gradient_representation_check and sample_covariances


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

    def clock(self) -> np.ndarray:
        """The subordinator S at every grid point, (P, K+1): S_0 = 0, S = cumsum(dS)."""
        return np.concatenate([np.zeros((self.n_paths, 1)), np.cumsum(self.dS, axis=1)], axis=1)

    def window(self, t1: float, t2: float) -> tuple["BatchNoise", np.ndarray]:
        """Each path's noise over [t1, t2] without its events, and each path's index of t1.

        Windows shorter than the longest are padded at the end with
        zero-length steps; t1 and t2 must be grid points of every path.
        """
        if not 0 <= t1 < t2:
            raise ValueError(f"need 0 <= t1 < t2, got {(t1, t2)}")
        times = np.broadcast_to(self.times, (self.n_paths, self.times.shape[-1]))
        k1, k2 = (_index_at(times, t) for t in (t1, t2))
        offsets = np.arange((k2 - k1).max() + 1)
        cols = np.minimum(k1[:, None] + offsets, k2[:, None])  # (P, W+1)
        rows = np.arange(self.n_paths)[:, None]
        live = cols[:, :-1] < cols[:, 1:]
        steps = np.minimum(cols[:, :-1], self.dS.shape[1] - 1)
        win = BatchNoise(
            times=times[rows, cols] if self.times.ndim == 2 else self.times[cols[0]],
            dS=np.where(live, self.dS[rows, steps], 0.0),
            normals=np.where(live[..., None], self.normals[rows, steps], 0.0),
            n_paths=self.n_paths,
        )
        return win, k1


def _index_at(times: np.ndarray, t: float, tol: float = GRID_TOL) -> np.ndarray:
    """Each row's first grid index within tol of t."""
    k = np.minimum(np.count_nonzero(times < t - tol, axis=1), times.shape[1] - 1)
    if not np.all(np.abs(times[np.arange(times.shape[0]), k] - t) <= tol):
        raise DataError(f"time {t} is not a grid point of every path")
    return k


def seed_blocks(seed: int, stream: int, lo: int, hi: int) -> tuple[list, list]:
    """Sizes and seeds of the seed blocks of paths lo..hi-1, lo a multiple of SEED_BLOCK."""
    starts = range(lo, hi, SEED_BLOCK)
    sizes = [min(SEED_BLOCK, hi - b) for b in starts]
    return sizes, [np.random.SeedSequence([seed, stream, b]) for b in starts]


def bundle_ranges(
    n_paths: int, n_steps: int, d: int, recorded: int = 0, tasks: int = 1
) -> list[tuple[int, int]]:
    """Path ranges of the integration bundles: contiguous runs of seed blocks.

    A bundle holds, per path and step, its noise (time, dS and d normals) plus
    `recorded` float64 values the caller keeps per grid point; it takes as
    many seed blocks as fit in BUNDLE_BYTES (at least one), and no more than
    an even share of the blocks over `tasks`.
    """
    blocks = -(-n_paths // SEED_BLOCK)
    block_bytes = 8 * SEED_BLOCK * n_steps * (2 + d + recorded)
    size = max(1, min(BUNDLE_BYTES // block_bytes, -(-blocks // tasks)))
    return [
        (b * SEED_BLOCK, min((b + size) * SEED_BLOCK, n_paths)) for b in range(0, blocks, size)
    ]


def _block_grid(model: ModelSpec, grid: np.ndarray, n_paths: int, rng):
    """One seed block's switching events and its grid refined to their times.

    Returns the shared grid and no events for a block without events, else a
    (n_paths, W) array of per-path grids padded with the horizon, and its
    (path, grid index, mark) events with paths counted from the block's first.
    """
    n_steps, horizon = grid.size - 1, grid[-1]
    rate = model.rates.mark_space()
    counts = rng.poisson(rate * horizon, n_paths) if model.rates.m0 > 1 else np.zeros(n_paths, int)
    extra = int(counts.max(initial=0))
    if not extra:
        return grid, []
    total = int(counts.sum())
    path = np.repeat(np.arange(n_paths), counts)
    col = n_steps + 1 + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    pts = np.full((n_paths, n_steps + 1 + extra + extra % 2), horizon)
    pts[:, : n_steps + 1] = grid
    pts[path, col] = rng.uniform(0.0, horizon, total)
    marks = rng.uniform(0.0, rate, total)
    # a stable sort puts an event after a grid point at the same time
    order = np.argsort(pts, axis=1, kind="stable")
    times = np.take_along_axis(pts, order, axis=1)
    index = np.argsort(order, axis=1)[path, col]  # where each event column landed
    keep = np.lexsort((index, path))
    return times, list(zip(path[keep].tolist(), index[keep].tolist(), marks[keep].tolist()))


def sample_batch_noise(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths,
    seed=None,
) -> BatchNoise:
    """Noise for a bundle of paths, each on its uniform grid refined to its event times.

    n_paths is one block size with one seed, or a list of seed-block sizes
    with a list of one seed per block.  Each block draws from its own
    generator, in order: every path's switching events (counts, times, marks;
    none for one regime), each cell's clock increment over its own dt, then
    the normals.  Grids are padded at the end with zero-length steps to one
    step count of the parity of n_steps; when no block has an event the
    bundle shares the uniform (n_steps + 1,) grid.  A block's rows are
    bitwise the bundle that block alone would draw, padded to the widest.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    sizes, seeds = ([n_paths], [seed]) if np.ndim(n_paths) == 0 else (list(n_paths), list(seed))
    if n_steps < 1 or not sizes or min(sizes) < 1 or len(seeds) != len(sizes):
        raise ValueError(f"need n_steps >= 1 and blocks of n_paths >= 1, got {n_steps}, {n_paths}")
    grid = np.linspace(0.0, horizon, n_steps + 1)
    # first every block's events, which fix the bundle's width
    rngs = [as_rng(s) for s in seeds]
    grids = [_block_grid(model, grid, size, rng) for size, rng in zip(sizes, rngs)]
    if len(sizes) == 1:  # the block's own arrays are the bundle; no copy
        (times, events), (rng,) = grids[0], rngs
        dS = sample_increments(levy, np.diff(times, axis=-1), sizes[0], rng)
        z = rng.standard_normal(dS.shape + (model.d,))
        return BatchNoise(times=times, dS=dS, normals=z, n_paths=sizes[0], events=events)
    # then each block's increments and normals at its own width, into its rows
    total, width = sum(sizes), max(t.shape[-1] for t, _ in grids)
    shared = all(t.ndim == 1 for t, _ in grids)
    times = grid if shared else np.empty((total, width))
    dS = np.zeros((total, width - 1))
    z = np.zeros((total, width - 1, model.d))
    events = []
    row = 0
    for size, rng, (t, ev) in zip(sizes, rngs, grids):
        rows, steps = slice(row, row + size), t.shape[-1] - 1
        if not shared:
            times[rows, : steps + 1] = t
            times[rows, steps + 1 :] = horizon
        dS[rows, :steps] = sample_increments(levy, np.diff(t, axis=-1), size, rng)
        z[rows, :steps] = rng.standard_normal((size, steps, model.d))
        events.extend((p + row, j, mark) for p, j, mark in ev)
        row += size
    return BatchNoise(times=times, dS=dS, normals=z, n_paths=total, events=events)


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
    Q_path: np.ndarray | None = None  # (..., P, K+1, n, n)


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
    # the state is held components-first, (n,) + lead, and updated in place; xv is
    # its lead + (n,) view for the recorder, the mark rule and drift_jac
    x = np.moveaxis(np.broadcast_to(x0, lead + (n,)), -1, 0).copy()
    xv = np.moveaxis(x, 0, -1)
    step = np.empty_like(x)  # b dt, then |x| for the overflow guard
    sdw = np.empty((n, noise.n_paths))  # sigma dw
    per_component = (n,) + (1,) * (len(lead) - 1) + (noise.n_paths,)  # an (n, P) array against x
    steps = noise.dS.shape[1]
    times = noise.times.T  # (K+1,) shared grid, (K+1, P) per-path grids
    per_path_grid = times.ndim == 2
    jac, flow_lead = model.drift_jac, lead
    if model.affine is not None:
        mats, m0 = model.affine[0], model.rates.m0
        jac = (lambda x, a: mats[0]) if m0 == 1 else (lambda x, a: mats[a - 1])
        per_path = (noise.n_paths,) if m0 > 1 or per_path_grid else ()
        flow_lead = np.broadcast_shapes(np.shape(K0)[:-2] if K0 is not None else (), per_path)
    eye = np.eye(n)
    K = eye if K0 is None else np.asarray(K0, dtype=float)
    K = np.broadcast_to(K, flow_lead + (n, n)).copy()
    J = np.broadcast_to(eye, flow_lead + (n, n)).copy() if want_J else None
    # Q is held as (n, n) + q_lead, so its update loops over contiguous path rows
    q_lead = np.broadcast_shapes(flow_lead, (noise.n_paths,))
    Q = np.zeros((n, n) + q_lead) if want_Q else None
    r_axes = (len(flow_lead), len(flow_lead) + 1) + tuple(range(len(flow_lead)))
    q_axes = tuple(range(2, 2 + len(q_lead))) + (0, 1)  # (n, n) + q_lead -> q_lead + (n, n)
    a = np.full(noise.n_paths, model.alpha0 if alpha0 is None else alpha0, dtype=np.int64)
    at_state = model.rates.state_dependent
    if at_state and len(lead) > 1 and noise.events:
        raise UnsupportedConfigError("state-dependent switching needs one start per path")
    events: dict[int, list] = {}
    for p, j, mark in noise.events:
        events.setdefault(j, []).append((p, mark))
    sig = model.sigma
    Xs = np.empty(lead + (steps + 1, n)) if record else None
    alphas = np.empty((noise.n_paths, steps + 1), dtype=np.int64) if record else None
    Js = np.empty(flow_lead + (steps + 1, n, n)) if record and want_J else None
    Ks = np.empty(flow_lead + (steps + 1, n, n)) if record else None
    Qs = np.empty(q_lead + (steps + 1, n, n)) if record and want_Q else None
    for k in range(steps + 1):
        for p, mark in events.get(k, ()):
            a[p] = partition_point(model.rates, xv[p] if at_state else None, a[p], mark)
        if record:
            Xs[..., k, :] = xv
            alphas[:, k] = a
            Ks[..., k, :, :] = K
            if want_J:
                Js[..., k, :, :] = J
            if want_Q:
                Qs[..., k, :, :] = Q.transpose(q_axes)
        if k == steps:
            break
        if Q is not None:
            # r r^T summed over the noise columns in order, each product over all paths at once
            r = (K @ sig).transpose(r_axes)  # (n, d) + flow_lead
            r = np.ascontiguousarray(r) if flow_lead else r[..., None]
            rr = r[:, None, 0] * r[None, :, 0]
            for c in range(1, model.d):
                rr = rr + r[:, None, c] * r[None, :, c]
            Q = Q + rr * noise.dS[:, k]
        dt = times[k + 1] - times[k]  # this step's column of the grid's differences
        g = jac(xv, a) * (dt[:, None, None] if per_path_grid else dt)
        if want_J:
            J = J + g @ J
        K = K - K @ g
        dw = np.sqrt(noise.dS[:, k, None]) * noise.normals[:, k]
        # x + b dt, then + sigma dw, then + shift: the per-point recursion's order and bits
        x += np.multiply(model.drift(x, a), dt, out=step)
        x += np.matmul(sig, dw.T, out=sdw).reshape(per_component)
        if shift is not None:
            x += shift[:, k].T.reshape(per_component)
        if not np.abs(x, out=step).max() <= OVERFLOW_GUARD:
            raise NumericError(f"a state left the trusted range at step {k + 1}")
    if Q is not None:
        Q = np.ascontiguousarray(Q.transpose(q_axes))
    J, K, Q = (_widen(v, lead + (n, n)) for v in (J, K, Q))
    Js, Ks, Qs = (_widen(v, lead + (steps + 1, n, n)) for v in (Js, Ks, Qs))
    return BatchFlowResult(
        X=np.ascontiguousarray(xv), J=J, K=K, Q=Q,
        X_path=Xs, alpha_path=alphas, J_path=Js, K_path=Ks, Q_path=Qs,
    )


def _widen(v, shape):
    """v broadcast to shape as a writable array; v itself when it has that shape."""
    return v if v is None or v.shape == shape else np.broadcast_to(v, shape).copy()
