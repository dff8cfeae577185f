"""Run pipelines behind the CLI subcommands.

Every pipeline writes its data files plus a manifest.json into the output
directory.  Path-level work is chunked in fixed blocks of 64 and every path
draws its randomness from SeedSequence([master_seed, stream, path_index]),
so results are bit-identical for any worker count; the manifest records a
sha256 digest of each data file to make that checkable.
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
from .flows import batch_flows, evolve_flows, product_defect_tolerance, reduced_covariance
from .hormander import estimate_kappa1
from .levy_noise import check_H3, decompose_large_jumps
from .sde_core import sample_batch_noise, simulate_paths

CHUNK = 64

# per-purpose seed streams; paths use SeedSequence([master, stream, index])
STREAM_SIMULATE = 11
STREAM_FLOWS = 12
STREAM_TAILS = 13
STREAM_DENSITY = 14


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def path_csv_rows(cp) -> list:
    rows = []
    for k in range(cp.times.size):
        rows.append([cp.times[k], cp.S[k], int(cp.alpha[k]), *cp.X[k]])
    return rows


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(outdir: Path, command: str, cfg: RunConfig, summary: dict, elapsed: float):
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


def _chunk_ranges(n: int):
    return [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


def _run_chunk(body, cfg_dict: dict, lo: int, hi: int):
    """Rebuild the run inside the worker and hand it to one chunk body."""
    cfg = RunConfig.from_dict(cfg_dict)
    return body(cfg, cfg.model.build(), cfg.levy.build(), lo, hi)


def _map_chunks(body, cfg_dict, n_paths: int, workers: int):
    ranges = _chunk_ranges(n_paths)
    if workers <= 1:
        return [_run_chunk(body, cfg_dict, lo, hi) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, body, cfg_dict, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]


def _chunk_paths(cfg: RunConfig, model, levy, stream: int, lo: int, hi: int):
    seeds = [np.random.SeedSequence([cfg.seed, stream, idx]) for idx in range(lo, hi)]
    return simulate_paths(model, levy, cfg.simulation.horizon, cfg.simulation.grid_step, seeds)


def _simulate_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    paths = _chunk_paths(cfg, model, levy, STREAM_SIMULATE, lo, hi)
    terminals = np.array([cp.X[-1] for cp in paths])
    events = np.array([cp.event_times.size for cp in paths])
    saved = [
        (idx, path_csv_rows(cp))
        for idx, cp in enumerate(paths, start=lo)
        if cfg.output.save_paths and idx < cfg.output.max_saved_paths
    ]
    return terminals, events, saved


def run_simulate(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    results = _map_chunks(_simulate_chunk, cfg.to_dict(), cfg.simulation.n_paths, cfg.workers)
    terminals = np.vstack([r[0] for r in results])
    events = np.concatenate([r[1] for r in results])
    header = "t,S,alpha," + ",".join(f"x{i + 1}" for i in range(model.n))
    for r in results:
        for idx, rows in r[2]:
            write_csv(out / f"path_{idx:04d}.csv", header, rows)
    write_csv(
        out / "terminals.csv",
        "path," + ",".join(f"x{i + 1}" for i in range(model.n)),
        [[idx, *terminals[idx]] for idx in range(terminals.shape[0])],
    )
    summary = {
        "n_paths": int(terminals.shape[0]),
        "terminal_mean": terminals.mean(axis=0).tolist(),
        "terminal_std": terminals.std(axis=0, ddof=1).tolist() if terminals.shape[0] > 1 else None,
        "mean_switch_events": float(events.mean()),
    }
    return write_manifest(out, "simulate", cfg, summary, time.perf_counter() - t0)


def _flows_chunk(cfg: RunConfig, model, levy, lo: int, hi: int):
    paths = _chunk_paths(cfg, model, levy, STREAM_FLOWS, lo, hi)
    defects = np.empty(hi - lo)
    excesses = np.empty(hi - lo)
    min_eigs = np.empty(hi - lo)
    profile = None
    for i, cp in enumerate(paths):
        fl = evolve_flows(model, cp)
        defects[i] = fl.max_product_defect()
        excesses[i] = fl.exp_bound_excess(model.grad_bound)
        cov = reduced_covariance(model, cp, fl)
        min_eigs[i] = float(np.linalg.eigvalsh(cov.Q[-1])[0])
        if lo + i == 0:
            profile = np.column_stack([cp.times, fl.product_defect()])
    return defects, excesses, min_eigs, profile


def run_flows(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    sim = cfg.simulation
    results = _map_chunks(_flows_chunk, cfg.to_dict(), sim.n_paths, cfg.workers)
    defects = np.concatenate([r[0] for r in results])
    excesses = np.concatenate([r[1] for r in results])
    min_eigs = np.concatenate([r[2] for r in results])
    profile = next(r[3] for r in results if r[3] is not None)
    write_csv(out / "defect_profile.csv", "t,defect", profile)
    tol = product_defect_tolerance(model.n, model.grad_bound, sim.horizon, sim.grid_step)
    summary = {
        "n_paths": int(defects.size),
        "max_product_defect": float(defects.max()),
        "defect_tolerance": tol,
        "max_exp_bound_excess": float(excesses.max()),
        "min_covariance_eigenvalue": float(min_eigs.min()),
        "within_defect_tolerance": bool(defects.max() <= tol),
        "within_exp_bound": bool(excesses.max() <= 10.0 * sim.grid_step),
    }
    return write_manifest(out, "flows", cfg, summary, time.perf_counter() - t0)


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
    sim = cfg.simulation
    seed = np.random.SeedSequence([cfg.seed, STREAM_TAILS, lo])
    noise = sample_batch_noise(model, levy, sim.horizon, sim.n_steps, hi - lo, seed)
    res = batch_flows(model, noise, want_Q=True)
    return (np.linalg.eigvalsh(res.Q)[:, 0],)


def run_tails(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    results = _map_chunks(_covariance_chunk, cfg.to_dict(), cfg.simulation.n_paths, cfg.workers)
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
        [
            [curve.thresholds[i], curve.probs[i], curve.lo[i], curve.hi[i], int(curve.counts[i])]
            for i in range(curve.thresholds.size)
        ],
    )
    summary = {
        "n_samples": curve.n_samples,
        "slope": curve.slope,
        "slope_stderr": curve.slope_stderr,
        "decaying": curve.is_decaying(),
    }
    return write_manifest(out, "tails", cfg, summary, time.perf_counter() - t0)


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
    direction = nc.direction if nc.direction is not None else [1.0] + [0.0] * (model.n - 1)
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
        model,
        levy,
        cfg.simulation.horizon,
        cfg.simulation.grid_step,
        params,
        fld,
        cfg.simulation.n_paths,
        seed=cfg.seed,
    )
    write_csv(
        out / "norris_curve.csv",
        "eps,threshold,prob,se,count",
        [
            [curve.eps[i], curve.thresholds[i], curve.probs[i], curve.se[i], int(curve.counts[i])]
            for i in range(curve.eps.size)
        ],
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
    w = np.asarray(cfg.gradrep.weights, dtype=float)
    if w.size != model.n:
        raise ConfigError(
            f"gradrep.weights must have one entry per state component ({model.n})"
        )

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
        chunk=cfg.gradrep.chunk,
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
    sim = cfg.simulation
    seed = np.random.SeedSequence([cfg.seed, STREAM_DENSITY, lo])
    noise = sample_batch_noise(model, levy, sim.horizon, sim.n_steps, hi - lo, seed)
    res = batch_flows(model, noise, want_Q=False)
    return (res.X[..., cfg.density.component],)


def run_density(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    out = _prepare_outdir(cfg)
    model = cfg.model.build()
    if cfg.density.component >= model.n:
        raise ConfigError(f"density.component must be below {model.n}")
    results = _map_chunks(_density_chunk, cfg.to_dict(), cfg.simulation.n_paths, cfg.workers)
    vals = np.concatenate([r[0] for r in results])
    est = kde_density(vals, n_grid=cfg.density.n_grid, bandwidth=cfg.density.bandwidth)
    write_csv(
        out / "density.csv",
        "x,density,se",
        [[est.grid[i], est.values[i], est.se[i]] for i in range(est.grid.size)],
    )
    summary = {
        "n_samples": est.n_samples,
        "bandwidth": est.bandwidth,
        "grid_mass": est.mass,
    }
    return write_manifest(out, "density", cfg, summary, time.perf_counter() - t0)


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
