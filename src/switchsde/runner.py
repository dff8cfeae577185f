"""Run pipelines behind the CLI subcommands.

Every pipeline writes its data files plus a manifest.json into the output
directory.  Two sizes govern path-level work, and only the first one fixes
any draw:

- seed blocks: 64 paths (``sde_core.SEED_BLOCK``) drawn from one generator,
  SeedSequence([master_seed, stream, first_path_index]).  ``gradrep`` instead
  seeds each block of ``sde_core.MC_BLOCK`` (20000) paths from
  SeedSequence([master_seed, stream, block_index]), in one process.
- integration bundles: contiguous runs of seed blocks that one worker task
  stacks into one padded bundle and integrates with one ``batch_flows`` call.
  ``sde_core.bundle_ranges`` sizes them: about one task per worker, each
  within a fixed memory budget for the noise and whatever the pipeline
  records.

A path's results do not depend on its bundle, so results are bit-identical
for any worker count; the manifest records a sha256 digest of each data file
to make that checkable, and ``workers_used``, the number of tasks that ran in
parallel.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .diagnostics import (
    constant_field,
    decomposition_ks_test,
    eigen_tail,
    gradient_representation_check,
    kde_density,
    norris_joint_probability,
    scaled_cos_field,
    NorrisParams,
)
from .errors import ConfigError
from .flows import batch_flows, exp_bound_excess, product_defect, product_defect_tolerance
from .hormander import estimate_kappa1
from .levy_noise import check_H3, decompose_large_jumps
from .sde_core import GRID_TOL, bundle_ranges, sample_batch_noise, seed_blocks

# per-purpose seed streams, see the module docstring
STREAM_SIMULATE = 11
STREAM_FLOWS = 12
STREAM_TAILS = 13
STREAM_DENSITY = 14


def write_csv(path: Path, header: str, columns) -> None:
    """One line per row of the equal-length columns: floats as repr, integers as str."""
    cells = (map(repr, np.asarray(col).tolist()) for col in columns)
    lines = [header, *map(",".join, zip(*cells, strict=True))]
    path.write_text("\n".join(lines) + "\n")


def path_csv_columns(times, S, alpha, X) -> list:
    """The columns t, S, alpha, x1..xn of one path's CSV, copied out of the bundle."""
    return [np.array(v) for v in (times, S, alpha, *X.T)]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(
    outdir: Path, command: str, cfg: RunConfig, summary: dict, elapsed: float, workers_used=1
):
    files = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        files[p.name] = {"sha256": file_digest(p), "bytes": p.stat().st_size}
    manifest = {
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "workers_used": workers_used,
        "config_sha256": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
        "config": cfg.to_dict(),
        "elapsed_seconds": round(elapsed, 3),
        "summary": summary,
        "files": files,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _chunk_ranges(cfg: RunConfig, d: int, recorded: int):
    """The integration bundles of a run, about one per worker.

    A function of its own so that perfbench's tracer can count the bundles.
    """
    sim = cfg.simulation
    return bundle_ranges(sim.n_paths, sim.n_steps, d, recorded, tasks=cfg.workers)


def _run_chunk(body, cfg_dict: dict, lo: int, hi: int):
    """Rebuild the run inside the worker and hand it one bundle of paths lo..hi-1."""
    cfg = RunConfig.from_dict(cfg_dict)
    return body(cfg, cfg.model.build(), cfg.levy.build(), lo, hi)


def _map_chunks(body, cfg: RunConfig, model, recorded: int = 0):
    """Run body over the bundles; returns its results in path order and the workers used.

    recorded counts the float64 values per path and grid point that body keeps
    beside the noise, which sizes the bundles.
    """
    ranges = _chunk_ranges(cfg, model.d, recorded)
    cfg_dict = cfg.to_dict()
    used = min(cfg.workers, len(ranges))
    if used <= 1:
        return [_run_chunk(body, cfg_dict, lo, hi) for lo, hi in ranges], 1
    with ProcessPoolExecutor(max_workers=used) as pool:
        futures = [pool.submit(_run_chunk, body, cfg_dict, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures], used


def _bundle_noise(cfg: RunConfig, model, levy, stream: int, lo: int, hi: int):
    """The noise of paths lo..hi-1: their seed blocks stacked into one bundle."""
    sim = cfg.simulation
    return sample_batch_noise(
        model, levy, sim.horizon, sim.n_steps, *seed_blocks(cfg.seed, stream, lo, hi)
    )


def _real_points(noise, n_steps: int) -> np.ndarray:
    """Each path's grid points before its padding: the uniform ones plus its events."""
    counts = np.bincount([p for p, _, _ in noise.events], minlength=noise.n_paths)
    return n_steps + 1 + counts


def _simulate_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    sim = cfg.simulation
    noise = _bundle_noise(cfg, model, levy, STREAM_SIMULATE, lo, hi)
    res = batch_flows(model, noise, want_Q=False, record=True)
    sizes = _real_points(noise, sim.n_steps)
    times = np.broadcast_to(noise.times, res.alpha_path.shape)
    S = noise.clock()
    saved = [
        (idx, path_csv_columns(*(v[p, : sizes[p]] for v in (times, S, res.alpha_path, res.X_path))))
        for p, idx in enumerate(range(lo, hi))
        if cfg.output.save_paths and idx < cfg.output.max_saved_paths
    ]
    return res.X, sizes - sim.n_steps - 1, saved


def run_simulate(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    # X, alpha and K are recorded at every grid point
    results, used = _map_chunks(_simulate_chunk, cfg, model, model.n + 1 + model.n**2)
    terminals = np.vstack([r[0] for r in results])
    events = np.concatenate([r[1] for r in results])
    header = "t,S,alpha," + ",".join(f"x{i + 1}" for i in range(model.n))
    for r in results:
        for idx, columns in r[2]:
            write_csv(out / f"path_{idx:04d}.csv", header, columns)
    write_csv(
        out / "terminals.csv",
        "path," + ",".join(f"x{i + 1}" for i in range(model.n)),
        [np.arange(terminals.shape[0]), *terminals.T],
    )
    summary = {
        "n_paths": int(terminals.shape[0]),
        "terminal_mean": terminals.mean(axis=0).tolist(),
        "terminal_std": terminals.std(axis=0, ddof=1).tolist() if terminals.shape[0] > 1 else None,
        "mean_switch_events": float(events.mean()),
    }
    return write_manifest(out, "simulate", cfg, summary, time.perf_counter() - t0, used)


def _flows_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    sim = cfg.simulation
    noise = _bundle_noise(cfg, model, levy, STREAM_FLOWS, lo, hi)
    res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
    # padded steps repeat the last J, K and t, so maxima over the grid are unchanged
    defects = product_defect(res.J_path, res.K_path)  # (P, K+1)
    excess = exp_bound_excess(res.J_path, res.K_path, noise.times, model.grad_bound)
    min_eig = np.linalg.eigvalsh(res.Q)[:, 0].min()
    profile = None
    if lo == 0:
        size = _real_points(noise, sim.n_steps)[0]
        profile = [np.atleast_2d(noise.times)[0, :size], defects[0, :size]]
    return defects.max(), excess, min_eig, profile


def run_flows(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    sim = cfg.simulation
    # X, alpha, J, K and Q are recorded at every grid point
    results, used = _map_chunks(_flows_chunk, cfg, model, model.n + 1 + 3 * model.n**2)
    defects, excesses, min_eigs, profiles = zip(*results)
    write_csv(out / "defect_profile.csv", "t,defect", profiles[0])
    tol = product_defect_tolerance(model.n, model.grad_bound, sim.horizon, sim.grid_step)
    summary = {
        "n_paths": sim.n_paths,
        "max_product_defect": float(max(defects)),
        "defect_tolerance": tol,
        "max_exp_bound_excess": float(max(excesses)),
        "min_covariance_eigenvalue": float(min(min_eigs)),
        "within_defect_tolerance": bool(max(defects) <= tol),
        "within_exp_bound": bool(max(excesses) <= 10.0 * sim.grid_step),
    }
    return write_manifest(out, "flows", cfg, summary, time.perf_counter() - t0, used)


def run_hormander(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    h = cfg.hormander
    est = estimate_kappa1(
        model,
        depth=h.depth,
        radius=h.radius,
        n_samples=h.n_samples,
        mode=h.mode,
        seed=cfg.seed,
        threshold=h.threshold,
    )
    report = {
        "kappa1": est.kappa1,
        "depth": est.depth,
        "verdict": est.verdict,
        "witness_x": est.witness_x.tolist(),
        "witness_regime": est.witness_regime,
        "witness_direction": est.witness_direction.tolist(),
        "per_regime": {str(k): v for k, v in est.per_regime.items()},
        "depth_profile": est.depth_profile.tolist(),
        "cross_check_min": est.cross_check_min,
        "n_points": est.n_points,
    }
    (out / "hormander.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {"kappa1": est.kappa1, "verdict": est.verdict}
    return write_manifest(out, "hormander", cfg, summary, time.perf_counter() - t0)


def _covariance_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    noise = _bundle_noise(cfg, model, levy, STREAM_TAILS, lo, hi)
    res = batch_flows(model, noise, want_Q=True)
    return (np.linalg.eigvalsh(res.Q)[:, 0],)


def run_tails(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    results, used = _map_chunks(_covariance_chunk, cfg, cfg.model.build())
    lam = np.concatenate([r[0] for r in results])
    curve = eigen_tail(
        lam,
        n_thresholds=cfg.tails.n_thresholds,
        min_count=cfg.tails.min_count,
        q_top=cfg.tails.q_top,
    )
    write_csv(
        out / "tail_curve.csv",
        "threshold,prob,lo,hi,count",
        [curve.thresholds, curve.probs, curve.lo, curve.hi, curve.counts],
    )
    summary = {
        "n_samples": curve.n_samples,
        "slope": curve.slope,
        "slope_stderr": curve.slope_stderr,
        "decaying": curve.is_decaying(),
    }
    return write_manifest(out, "tails", cfg, summary, time.perf_counter() - t0, used)


def run_decompose_check(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    levy = cfg.levy.build()
    decomp = decompose_large_jumps(levy)
    ks = decomposition_ks_test(
        levy, cfg.simulation.horizon, cfg.simulation.n_paths, seed=cfg.seed
    )
    theta = levy.alpha if levy.kind == "stable" else 1.0
    h3 = check_H3(levy, theta, np.geomspace(1e-1, 1e-4, 7))
    report = {
        "lambda1": decomp.lambda1,
        "ks_statistic": ks.statistic,
        "ks_pvalue": ks.pvalue,
        "n_samples": ks.n1,
        "h3_theta": theta,
        "h3_verdict": h3.verdict,
        "h3_c_theta": h3.c_theta,
        "h3_values": h3.values.tolist(),
    }
    (out / "decomposition.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {"ks_pvalue": ks.pvalue, "h3_verdict": h3.verdict}
    return write_manifest(out, "decompose-check", cfg, summary, time.perf_counter() - t0)


def run_norris(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    levy = cfg.levy.build()
    nc = cfg.norris
    if nc.regime > model.rates.m0:
        raise ConfigError(f"norris.regime must lie in 1..{model.rates.m0}")
    sim = cfg.simulation
    grid = np.linspace(0.0, sim.horizon, sim.n_steps + 1)
    for t in nc.window:
        if np.abs(grid - t).min() > GRID_TOL:
            raise ConfigError(
                f"norris.window end {t!r} is not a grid point: the ends must be multiples "
                f"of simulation.horizon / n_steps = {sim.grid_step!r} up to the horizon"
            )
    direction = nc.direction if nc.direction is not None else [1.0] + [0.0] * (model.n - 1)
    if len(direction) != model.n:
        raise ConfigError(f"norris.direction must have one entry per state component ({model.n})")
    params = NorrisParams(
        window=(nc.window[0], nc.window[1]),
        regime=nc.regime,
        direction=np.asarray(direction, dtype=float),
        eps_grid=np.asarray(nc.eps_grid, dtype=float),
        beta=nc.beta,
        theta=nc.theta,
    )
    if nc.field_name == "scaled_cos":
        fld = scaled_cos_field(model.sigma, amp=nc.amp, freq=nc.freq)
    else:
        fld = constant_field(model.sigma)
    curve = norris_joint_probability(
        model, levy, sim.horizon, sim.n_steps, params, fld, sim.n_paths, seed=cfg.seed
    )
    write_csv(
        out / "norris_curve.csv",
        "eps,threshold,prob,se,count",
        [curve.eps, curve.thresholds, curve.probs, curve.se, curve.counts],
    )
    summary = {
        "n_paths": curve.n_paths,
        "nonincreasing": curve.is_nonincreasing(),
        "probs": curve.probs.tolist(),
    }
    return write_manifest(out, "norris", cfg, summary, time.perf_counter() - t0)


def run_gradrep(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    levy = cfg.levy.build()
    if model.rates.state_dependent:
        raise ConfigError(
            "gradrep shares each path's noise across shifted starts, "
            "which state-dependent switching rates do not allow"
        )
    w = np.asarray(cfg.gradrep.weights, dtype=float)
    if w.size != model.n:
        raise ConfigError(
            f"gradrep.weights must have one entry per state component ({model.n})"
        )
    if cfg.simulation.n_steps % 2:
        raise ConfigError("gradrep needs an even simulation.n_steps for its half-resolution run")

    def f(x):
        return np.sin(x @ w)

    def grad_f(x):
        return np.cos(x @ w)[..., None] * w

    res = gradient_representation_check(
        model,
        levy,
        cfg.simulation.horizon,
        cfg.simulation.n_steps,
        cfg.simulation.n_paths,
        f,
        grad_f,
        eta=cfg.gradrep.eta,
        seed=cfg.seed,
        truncate=cfg.gradrep.truncate,
    )
    report = {
        "residual": res.residual.tolist(),
        "se_mc": res.se_mc.tolist(),
        "fd_bias": res.fd_bias.tolist(),
        "dt_bias": res.dt_bias.tolist(),
        "combined_se": res.combined_se.tolist(),
        "lhs": res.lhs.tolist(),
        "eta": res.eta,
        "n_paths": res.n_paths,
        "n_steps": res.n_steps,
        "max_ratio": res.max_ratio(),
        "passes": res.passes(),
    }
    (out / "gradrep.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {"max_ratio": res.max_ratio(), "passes": res.passes()}
    return write_manifest(out, "gradrep", cfg, summary, time.perf_counter() - t0)


def _density_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    noise = _bundle_noise(cfg, model, levy, STREAM_DENSITY, lo, hi)
    res = batch_flows(model, noise, want_Q=False)
    return (res.X[..., cfg.density.component],)


def run_density(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    if cfg.density.component >= model.n:
        raise ConfigError(f"density.component must be below {model.n}")
    results, used = _map_chunks(_density_chunk, cfg, model)
    vals = np.concatenate([r[0] for r in results])
    est = kde_density(vals, n_grid=cfg.density.n_grid, bandwidth=cfg.density.bandwidth)
    write_csv(
        out / "density.csv",
        "x,density,se",
        [est.grid, est.values, est.se],
    )
    summary = {
        "n_samples": est.n_samples,
        "bandwidth": est.bandwidth,
        "grid_mass": est.mass,
    }
    return write_manifest(out, "density", cfg, summary, time.perf_counter() - t0, used)


PIPELINES = {
    "simulate": run_simulate,
    "flows": run_flows,
    "hormander": run_hormander,
    "tails": run_tails,
    "decompose-check": run_decompose_check,
    "norris": run_norris,
    "gradrep": run_gradrep,
    "density": run_density,
}
