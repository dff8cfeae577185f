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
shift, and ``BatchNoise.window`` slices it in time, keeping its events.  The loop
holds the state components-first, as (n, ..., paths), and updates it in
place, each add one ufunc pass over one slice of rows: b dt over the rows
that a model's affine data can move (every row without such data), sigma dw
and the shift over the rows where sigma or the shift is nonzero, sigma dw as
one product per row when no row of sigma holds two nonzeros.  A skipped
add adds an exact +-0, and x + 0 differs from x only at x = -0.0, which a
state entry can hold only if its start entry does (round-to-nearest addition
gives -0.0 only from -0.0 + -0.0), so a row that a start holds -0.0 in keeps
every add.  The drift and its Jacobian are called on the same layout (see
``models``); an affine drift's rows are evaluated from its data.  The flows J
and K and the reduced covariance Q are held with the paths innermost too, as
(n, n, ..., paths), so a flow update
K -= sum_c K[:, c] g[c] (J += sum_c g[:, c] J[c]) is n ufunc passes over
contiguous path rows, summed in column order, r = K sigma is one product per
column of sigma when no column holds two nonzeros (else one matrix product
over the path rows), and each increment sum_c r_c r_c^T dS is a few ufunc
passes.  One flow shared by a whole bundle is (n, n) and takes the same
column-order sums.  X, J, K and Q are moved back to paths-first once, at the
end; the records are written through views.  The noise is taken
NOISE_PANEL steps at a time: each panel of dt, sqrt(dS_k) Z_k and, for Q,
dS is formed over contiguous runs of each path's noise row and transposed
once to steps-first, PANEL_ROWS paths at a time, into buffers allocated once
per call, so a step reads contiguous path rows instead of strided columns;
the same elementwise operations, so the same bits.

Seed blocks and integration bundles are different things.  A seed block is
SEED_BLOCK = 64 paths drawn from one generator, SeedSequence([seed, stream,
first path]); it fixes every draw, and it is the only seeding rule.  Each
Monte Carlo loop draws on its own stream (the STREAM_* constants), so two
loops that share a stream, such as ``switchsde tails`` and
``flows.sample_covariances``, read the same draws.  An integration bundle is
a contiguous run of seed blocks that ``sample_batch_noise`` stacks into one
padded bundle for one ``batch_flows`` call; ``bundle_ranges`` sizes it by
memory (BUNDLE_BYTES) and by the number of tasks wanted.
``gradient_representation_check`` instead takes tiles of PATH_TILE rows, so
its state stays in cache, and integrates each tile twice: on its fine noise,
then at half resolution on the same arrays, whose step pairs
``BatchNoise.coarsen`` merges in place, one seed block of rows at a time.
``map_bundles`` is the one Monte Carlo loop, for the pipelines and the
library alike: it hands each range's fresh noise to a body, on --workers
processes when the body pickles (a built-in spec pickles as its builder's call).

Alignment rule: padding is an exact no-op and rows never mix, and a path's
results do not depend on which run of rows integrated it, provided that the
run starts at a multiple of SEED_BLOCK within its bundle.  The vectorised
kernels (the BLAS products over the path axis that a dense sigma takes, SIMD
ufunc loops) may round a path by its position within a short run of
columns, and an aligned cut keeps that position; a cut at another row has no
such guarantee.  Seed blocks, bundles and path tiles all start at multiples
of SEED_BLOCK.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DataError, NumericError, SpecError, UnsupportedConfigError
from .levy_noise import LevyMeasureSpec, as_rng, sample_increments
from .models import ModelSpec, affine_rows
from .switching import partition_point

OVERFLOW_GUARD = 1e12
GRID_TOL = 1e-10  # a time within this of a grid point is that grid point
SEED_BLOCK = 64  # paths per generator, see the module docstring
BUNDLE_BYTES = 4 << 20  # noise plus recorded paths held by one integration bundle
PATH_TILE = 32 * SEED_BLOCK  # paths per tile in gradient_representation_check
NOISE_PANEL = 64  # steps of noise batch_flows forms at a time
PANEL_ROWS = 4 * SEED_BLOCK  # paths per transposed block of a noise panel


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
        """Merge adjacent step pairs into one step of the same driver path, in place.

        The merged increment is dS_even + dS_odd and the merged normal is
        (sqrt(dS_even) Z_even + sqrt(dS_odd) Z_odd) / sqrt(dS_even + dS_odd),
        and 0 where the merged step has no clock.  Both are written into the
        first half of this bundle's own dS and normals, one SEED_BLOCK of rows
        at a time, so no temporary is larger than a block's; the result's dS
        and normals are views over that first half, and the result coarsens
        again.  The call consumes this bundle, whose dS and normals become
        None: integrate the fine noise first.  A bundle from ``rows`` shares its parent's
        arrays read-only, so it raises DataError and writes nothing; coarsen a
        copy of it instead.  An event at fine grid index j takes effect at
        coarse index ceil(j/2).
        """
        if self.dS is None:
            raise DataError("this noise was consumed by an earlier coarsen()")
        if not (self.dS.flags.writeable and self.normals.flags.writeable):
            raise DataError("coarsen() merges in place, and this noise is read-only "
                            "(rows() shares its parent's arrays): coarsen a copy")
        k = self.dS.shape[1]
        if k % 2:
            raise DataError("coarsening needs an even number of steps")
        half = k // 2
        for lo in range(0, self.dS.shape[0], SEED_BLOCK):
            rows = slice(lo, lo + SEED_BLOCK)
            dS, z = self.dS[rows], self.normals[rows]
            m = dS[:, 0::2] + dS[:, 1::2]
            num = (
                np.sqrt(dS[:, 0::2])[..., None] * z[:, 0::2]
                + np.sqrt(dS[:, 1::2])[..., None] * z[:, 1::2]
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                z[:, :half] = np.where(m[..., None] > 0, num / np.sqrt(m)[..., None], 0.0)
            dS[:, :half] = m
        events = [(p, (j + 1) // 2, mark) for p, j, mark in self.events]
        dS, z = self.dS[:, :half], self.normals[:, :half]
        self.dS = self.normals = None
        return BatchNoise(self.times[..., 0::2], dS, z, self.n_paths, events)

    def rows(self, lo: int, hi: int) -> "BatchNoise":
        """Paths lo..hi-1, their events re-indexed from lo; a shared grid stays shared.

        dS and normals are read-only views of this bundle's rows, so nothing
        done to the slice, ``coarsen`` included, can write into this bundle.
        """
        times = self.times if self.times.ndim == 1 else self.times[lo:hi]
        events = [(p - lo, j, mark) for p, j, mark in self.events if lo <= p < hi]
        dS, z = self.dS[lo:hi], self.normals[lo:hi]
        dS.flags.writeable = z.flags.writeable = False
        return BatchNoise(times, dS, z, hi - lo, events)

    def clock(self) -> np.ndarray:
        """The subordinator S at every grid point, (P, K+1): S_0 = 0, S = cumsum(dS)."""
        return np.concatenate([np.zeros((self.n_paths, 1)), np.cumsum(self.dS, axis=1)], axis=1)

    def window(self, t1: float, t2: float) -> "BatchNoise":
        """Each path's noise over [t1, t2] and its events in (t1, t2], re-indexed from its t1.

        Windows shorter than the longest are padded at the end with
        zero-length steps; t1 and t2 must be grid points of every path, and
        t1 = t2 gives zero steps.
        """
        if not 0 <= t1 <= t2:
            raise ValueError(f"need 0 <= t1 <= t2, got {(t1, t2)}")
        times = np.broadcast_to(self.times, (self.n_paths, self.times.shape[-1]))
        k1, k2 = (_index_at(times, t) for t in (t1, t2))
        lo, hi = k1.tolist(), k2.tolist()
        offsets = np.arange((k2 - k1).max() + 1)
        cols = np.minimum(k1[:, None] + offsets, k2[:, None])  # (P, W+1)
        rows = np.arange(self.n_paths)[:, None]
        live = cols[:, :-1] < cols[:, 1:]
        steps = np.minimum(cols[:, :-1], self.dS.shape[1] - 1)
        return BatchNoise(
            times=times[rows, cols] if self.times.ndim == 2 else self.times[cols[0]],
            dS=np.where(live, self.dS[rows, steps], 0.0),
            normals=np.where(live[..., None], self.normals[rows, steps], 0.0),
            n_paths=self.n_paths,
            events=[(p, j - lo[p], mark) for p, j, mark in self.events if lo[p] < j <= hi[p]],
        )


def _index_at(times: np.ndarray, t: float, tol: float = GRID_TOL) -> np.ndarray:
    """Each row's first grid index within tol of t."""
    k = np.minimum(np.count_nonzero(times < t - tol, axis=1), times.shape[1] - 1)
    if not np.all(np.abs(times[np.arange(times.shape[0]), k] - t) <= tol):
        raise DataError(f"time {t} is not a grid point of every path")
    return k


# per-purpose seed streams, see the module docstring
STREAM_SIMULATE = 11
STREAM_FLOWS = 12
STREAM_TAILS = 13  # switchsde tails and flows.sample_covariances
STREAM_DENSITY = 14
STREAM_GRADREP = 15
STREAM_NORRIS = 9301


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


def map_bundles(body, model, levy, horizon, n_steps, seed, stream, ranges, workers=1):
    """body(noise, lo, hi) over the path ranges: its results in path order, and the processes used.

    Each range's noise, its seed blocks on stream, is drawn fresh and passed straight
    into body, so no earlier bundle is referenced while the next is drawn.  With
    workers > 1 and two or more ranges, the ranges run on a process pool opened and
    closed in this call, provided body, model and levy pickle; otherwise, here.
    """
    task = partial(_run_bundle, body, model, levy, horizon, n_steps, seed, stream)
    used = min(workers, len(ranges))
    if used > 1:
        try:
            pickle.dumps(task)
        except (pickle.PicklingError, AttributeError, TypeError):  # say, a closure: run here
            used = 1
    if used <= 1:
        return [task(lo, hi) for lo, hi in ranges], 1
    from concurrent.futures import ProcessPoolExecutor  # slow to import; most runs use none

    with ProcessPoolExecutor(max_workers=used) as pool:
        return list(pool.map(task, *zip(*ranges))), used


def _run_bundle(body, model, levy, horizon, n_steps, seed, stream, lo, hi):
    blocks = seed_blocks(seed, stream, lo, hi)
    return body(sample_batch_noise(model, levy, horizon, n_steps, *blocks), lo, hi)


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
    t = rng.uniform(0.0, horizon, total)
    marks = rng.uniform(0.0, rate, total)
    # each path's events in time order, ties in draw order; an event lands after
    # the grid points at or before its time and after its path's earlier events
    order = np.lexsort((t, path))
    path, t, marks = path[order], t[order], marks[order]
    index = np.searchsorted(grid, t, side="right") + np.arange(total)
    index -= np.repeat(np.cumsum(counts) - counts, counts)
    times = np.full((n_paths, n_steps + 1 + extra + extra % 2), horizon)
    times[path, index] = t
    free = np.arange(times.shape[1]) < (n_steps + 1 + counts)[:, None]
    free[path, index] = False
    times[free] = np.tile(grid, n_paths)  # row by row, the grid fills the other slots
    return times, list(zip(path.tolist(), index.tolist(), marks.tolist()))


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
        if steps == width - 1:  # rows of z that are one contiguous run: draw in place
            rng.standard_normal(out=z[rows])
        else:
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
    want_K: bool = True,
) -> BatchFlowResult:
    """Evolve state, regime, flows and reduced covariance for a bundle of paths.

    x0 (and K0) may carry extra leading axes over (n_paths, n); the noise
    broadcasts across them, which gives common-random-number bundles for
    finite-difference starts.  alpha0 is one regime or one per path; shift
    (n_paths, K, n) is added to the state increments.  After step j - 1 an
    event (p, j, mark) moves path p's regime by the mark rule at X_j.

    Each step adds b dt, sigma dw and the shift, in that order, only over the
    rows each can move (see the module docstring).  For a model with affine
    data the drift callback is not called: b is evaluated from that data by
    ``models.affine_rows``, which the linear builders' drift also calls, on
    the rows the data can move, straight into the step buffer; otherwise,
    when the flows need the Jacobian, b comes with it from one
    ``drift_and_jac`` call where the model has one.  sigma dw (one product
    per row when no row of sigma holds two nonzeros) and the shift go only
    to the rows where sigma or the shift is nonzero.  A row that some start
    holds -0.0 in keeps every add.

    For a model with affine data the Jacobian does not depend on x, so J, K
    and Q are evolved once per path (once per bundle for one regime on a
    shared grid) from a components-first (n, n, m0) table of the A_i, and
    broadcast over the start axes of the result.  K is evolved when want_K or
    want_Q (Q needs K); a flow not evolved is None in the result, and with
    neither flow the Jacobian is never evaluated.  Results are paths-first.
    """
    if noise.dS is None:
        raise DataError("this noise was consumed by an earlier coarsen()")
    x0 = np.asarray(model.x0 if x0 is None else x0, dtype=float)
    lead = np.broadcast_shapes(x0.shape[:-1], (noise.n_paths,))
    n = model.n
    # the state is held components-first, (n,) + lead, and updated in place; xv is
    # its lead + (n,) view for the recorder and the mark rule
    x = np.moveaxis(np.broadcast_to(x0, lead + (n,)), -1, 0).copy()
    xv = np.moveaxis(x, 0, -1)
    step = np.empty_like(x)  # b dt
    sdw = np.empty((n, noise.n_paths))  # sigma dw, or one row of it
    sig = model.sigma
    # the rows each add can move, as one slice covering them: x + 0 differs from x
    # only at x = -0.0, which a row can hold only if a start holds it there
    held = ((x0 == 0) & np.signbit(x0)).reshape(-1, n).any(axis=0)
    fill = None
    if model.affine is not None:
        fill, moved = affine_rows(*model.affine)
        drift_rows = _covering(moved | held)
        x_drift, b_dt = x[drift_rows], step[drift_rows]
    noisy = sig.any(axis=1) | held
    if shift is not None:
        noisy |= shift.any(axis=(0, 1))
    noise_rows = _covering(noisy)
    # sigma dw by one product per row, added straight to that row (dw itself for a 1),
    # when no row of sigma there holds two nonzeros: the rounding of the matrix
    # product, bar the sign of a zero, which matters only on a row holding -0.0; a
    # row of zeros adds nothing
    sig_rows = sig[noise_rows]
    by_row = not held[noise_rows].any() and (np.count_nonzero(sig_rows, axis=1) <= 1).all()
    row_terms = [(x[r], c, sig[r, c]) for r in range(noise_rows.start, noise_rows.stop)
                 for c in np.flatnonzero(sig[r]).tolist()] if by_row else []
    per_row = (-1,) + (1,) * (len(lead) - 1) + (noise.n_paths,)  # (rows, P) against x
    x_noise, sdw_x = x[noise_rows], sdw[noise_rows].reshape(per_row)
    steps = noise.dS.shape[1]
    jac, flow_lead = model.drift_jac, lead
    if model.affine is not None:
        mats, m0 = model.affine[0], model.rates.m0
        per_path = (noise.n_paths,) if m0 > 1 or noise.times.ndim == 2 else ()
        flow_lead = np.broadcast_shapes(np.shape(K0)[:-2] if K0 is not None else (), per_path)
        # the A_i components-first, (n, n, 1, ..., m0), their regimes against the path axis
        table = np.moveaxis(mats, 0, -1).reshape((n, n) + (1,) * (len(flow_lead) - 1) + (m0,))
        one = mats[0].reshape((n, n) + (1,) * len(flow_lead))
        jac = (lambda x, a: one) if m0 == 1 else (lambda x, a: table[..., a - 1])
    # J and K are held components-first too, (n, n) + flow_lead, so a per-path flow
    # update is n ufunc passes over contiguous path rows; one shared flow is (n, n)
    eye = np.eye(n)
    want_K = want_K or want_Q
    K = eye if K0 is None else np.asarray(K0, dtype=float)
    K = _components_first(np.broadcast_to(K, flow_lead + (n, n))) if want_K else None
    J = _components_first(np.broadcast_to(eye, flow_lead + (n, n))) if want_J else None
    # Q is held as (n, n) + q_lead, so its update loops over contiguous path rows
    q_lead = np.broadcast_shapes(flow_lead, (noise.n_paths,))
    Q = np.zeros((n, n) + q_lead) if want_Q else None
    # Q's increment sums r_c r_c^T dS over the columns of r = K sigma, per path or of
    # the shared flow, (n, d) + r_lead.  When no column of sigma holds two nonzeros,
    # r_c is K[:, j] sigma[j, c] for its one nonzero (K[:, j] itself for a 1): the
    # matrix product's rounding, bar the sign of a zero, which Q, summed from +0.0,
    # never holds; an all-zero column adds nothing, and sigma = 0 no increment
    r_lead = flow_lead or (1,)
    by_col = bool((np.count_nonzero(sig, axis=0) <= 1).all())
    col_terms = [(int(j[0]), sig[j[0], c]) for c, j in
                 enumerate(np.flatnonzero(col) for col in sig.T) if j.size]
    q_step = want_Q and bool(col_terms or not by_col)
    if q_step and by_col:  # views of K's columns, which change in place
        K_cols = K.reshape((n, n) + r_lead)
        r_terms = [(K_cols[:, j], s) for j, s in col_terms]
    # the noise of NOISE_PANEL steps, steps-first, refilled at each panel's first step:
    # dt (one per step on a shared grid), sqrt(dS) Z and, for Q, dS
    dts = np.empty((NOISE_PANEL,) + noise.times.shape[:-1])
    dws = np.empty((NOISE_PANEL, model.d, noise.n_paths))
    dSs = np.empty((NOISE_PANEL, noise.n_paths)) if q_step else None
    grid = np.empty((NOISE_PANEL + 1, noise.n_paths)) if noise.times.ndim == 2 else None
    # one call for b and the Jacobian when the model has it and the flows need both
    joint = model.drift_and_jac if fill is None and (want_J or want_K) else None
    a = np.full(noise.n_paths, model.alpha0 if alpha0 is None else alpha0, dtype=np.int64)
    at_state = model.rates.state_dependent
    if at_state and len(lead) > 1 and noise.events:
        raise UnsupportedConfigError("state-dependent switching needs one start per path")
    events: dict[int, list] = {}
    for p, j, mark in noise.events:
        events.setdefault(j, []).append((p, mark))
    Xs = np.empty(lead + (steps + 1, n)) if record else None
    alphas = np.empty((noise.n_paths, steps + 1), dtype=np.int64) if record else None
    Js = np.empty(flow_lead + (steps + 1, n, n)) if record and want_J else None
    Ks = np.empty(flow_lead + (steps + 1, n, n)) if record and want_K else None
    Qs = np.empty(q_lead + (steps + 1, n, n)) if record and want_Q else None
    # components-first views of the records: Ks_at[k] is (n, n) + flow_lead
    Js_at, Ks_at, Qs_at = (None if v is None else _grid_first(v) for v in (Js, Ks, Qs))
    for k in range(steps + 1):
        for p, mark in events.get(k, ()):
            a[p] = partition_point(model.rates, xv[p] if at_state else None, int(a[p]), mark)
        if record:
            Xs[..., k, :] = xv
            alphas[:, k] = a
            if want_K:
                Ks_at[k] = K
            if want_J:
                Js_at[k] = J
            if want_Q:
                Qs_at[k] = Q
        if k == steps:
            break
        i = k % NOISE_PANEL
        if i == 0:
            _steps_first(noise, k, min(NOISE_PANEL, steps - k), dts, dSs, dws, grid)
        dt, dw = dts[i], dws[i]
        if q_step:
            if by_col:
                rs = [K_j if s == 1.0 else K_j * s for K_j, s in r_terms]
            else:
                # one product for the shared flow, else one over the path rows
                r = np.matmul(sig.T, K.reshape(n, n, -1)) if flow_lead else np.matmul(K, sig)
                r = r.reshape((n, model.d) + r_lead)
                rs = [r[:, c] for c in range(model.d)]
            # r r^T summed over the columns in order, each product over all paths at once
            rr = rs[0][:, None] * rs[0][None, :]
            for r_c in rs[1:]:
                rr += r_c[:, None] * r_c[None, :]
            Q += rr * dSs[i]
        b = None
        if want_J or want_K:
            if joint is None:
                g = jac(x, a)
            else:
                b, g = joint(x, a)
            g = g * dt
            if g.ndim != 2 + len(flow_lead):  # broadcasting would align the wrong axes
                raise SpecError(f"drift_jac must return (n, n) + {lead}, got {g.shape}")
            # J += sum_c g[:, c] J[c] and K -= sum_c K[:, c] g[c], summed in column order
            if want_J:
                gJ = g[:, 0, None] * J[0]
                for c in range(1, n):
                    gJ += g[:, c, None] * J[c]
                J += gJ
            if want_K:
                Kg = K[:, 0, None] * g[0]
                for c in range(1, n):
                    Kg += K[:, c, None] * g[c]
                K -= Kg
        # x + b dt, then + sigma dw, then + shift: the per-point recursion's order and bits
        if fill is None:
            x += np.multiply(model.drift(x, a) if b is None else b, dt, out=step)
        else:
            fill(x, a, b_dt, drift_rows.start)
            b_dt *= dt
            x_drift += b_dt
        if by_row:
            for x_r, c, s in row_terms:
                x_r += dw[c] if s == 1.0 else np.multiply(s, dw[c], out=sdw[0])
        else:
            np.matmul(sig, dw, out=sdw)
            x_noise += sdw_x
        if shift is not None:
            x_noise += shift[:, k, noise_rows].T.reshape(per_row)
        if not (x.max() <= OVERFLOW_GUARD and x.min() >= -OVERFLOW_GUARD):  # NaN fails too
            raise NumericError(f"a state left the trusted range at step {k + 1}")
    J, K, Q = (None if v is None else _widen(_paths_first(v), lead + (n, n)) for v in (J, K, Q))
    Js, Ks, Qs = (_widen(v, lead + (steps + 1, n, n)) for v in (Js, Ks, Qs))
    return BatchFlowResult(
        X=np.ascontiguousarray(xv), J=J, K=K, Q=Q,
        X_path=Xs, alpha_path=alphas, J_path=Js, K_path=Ks, Q_path=Qs,
    )


def _steps_first(noise: BatchNoise, k: int, m: int, dts, dSs, dws, grid) -> None:
    """Steps k..k+m-1 of the noise into the first m rows of the steps-first panels.

    dts gets the grid's differences, (m,) on a shared grid and (m, P) on per-path
    grids, which pass grid, an (NOISE_PANEL + 1, P) buffer; dws gets sqrt(dS) Z as
    (m, d, P) and dSs, unless None, dS as (m, P).  sqrt(dS) Z is formed over
    contiguous runs of each path's row, PANEL_ROWS paths at a time, and each
    block is transposed once: the same elementwise operations as a step's
    column, so the same bits.
    """
    times = noise.times
    if grid is None:
        np.subtract(times[k + 1 : k + m + 1], times[k : k + m], out=dts[:m])
    for lo in range(0, noise.n_paths, PANEL_ROWS):
        rows = slice(lo, lo + PANEL_ROWS)
        dS = noise.dS[rows, k : k + m]
        root = np.sqrt(dS)
        for c in range(dws.shape[1]):  # one column of Z at a time: long inner loops
            np.copyto(dws[:m, c, rows], (root * noise.normals[rows, k : k + m, c]).T)
        if dSs is not None:
            np.copyto(dSs[:m, rows], dS.T)
        if grid is not None:
            np.copyto(grid[: m + 1, rows], times[rows, k : k + m + 1].T)
    if grid is not None:
        np.subtract(grid[1 : m + 1], grid[:m], out=dts[:m])


def _covering(rows):
    """The shortest slice holding every marked row; an empty slice when none is."""
    marked = np.flatnonzero(rows)
    return slice(marked[0], marked[-1] + 1) if marked.size else slice(0, 0)


def _components_first(v):
    """A contiguous copy of lead + (n, n) as (n, n) + lead."""
    return np.moveaxis(v, (-2, -1), (0, 1)).copy()


def _paths_first(v):
    """A contiguous copy of (n, n) + lead as lead + (n, n)."""
    return np.ascontiguousarray(np.moveaxis(v, (0, 1), (-2, -1)))


def _grid_first(v):
    """The view of a record lead + (K+1, n, n) as (K+1, n, n) + lead."""
    return np.moveaxis(v, (-3, -2, -1), (0, 1, 2))


def _widen(v, shape):
    """v broadcast to shape as a writable array; v itself when it has that shape."""
    return v if v is None or v.shape == shape else np.broadcast_to(v, shape).copy()
