"""Run pipelines behind the CLI subcommands.

Every pipeline writes its data files plus a manifest.json into the output
directory.  Two sizes govern path-level work, and only the first one fixes
any draw:

- seed blocks: 64 paths (``sde_core.SEED_BLOCK``) drawn from one generator,
  SeedSequence([master_seed, stream, first_path_index]), with one stream per
  pipeline (``sde_core.STREAM_*``).
- integration bundles: contiguous runs of seed blocks that one worker task
  stacks into one padded bundle and integrates with one ``batch_flows`` call.
  ``sde_core.bundle_ranges`` sizes them: about one task per worker, each
  within a fixed memory budget for the noise and whatever the pipeline
  records; ``gradrep`` takes tiles of ``sde_core.PATH_TILE`` paths instead.
  ``sde_core.map_bundles`` runs the tasks on --workers processes.  A task
  reduces its bundle to what the pipeline keeps of it (terminal states,
  per-path integrals, covariances, residuals), and ``simulate``'s tasks
  write their bundle's path CSVs themselves and return only the file names,
  which the parent lists in the manifest.  ``tails``, ``norris`` and
  ``gradrep`` run the library's ``sample_covariances``,
  ``norris_joint_probability`` and ``gradient_representation_check``.

A path's results do not depend on its bundle, so results are bit-identical
for any worker count; the manifest records a sha256 digest of each data file
the run wrote to make that checkable, and ``workers_used``, the number of
tasks that ran in parallel.  It also records what the run ran on
(``environment``: Python and numpy versions, CPU count, BLAS thread
variables, workers requested and used) and ``peak_rss_mb``.

``PIPELINES`` is the one declaration of each subcommand: ``@pipeline`` registers
a body under its name, help line and whether it takes --paths; the body returns its verdicts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import partial
from operator import methodcaller
from pathlib import Path
from typing import Callable

import numpy as np

try:
    import resource
except ImportError:  # no getrusage on this platform
    resource = None

from . import __version__, diagnostics, sde_core
from .config import RunConfig
from .diagnostics import (
    TAIL_SAMPLES_PER_COUNT,
    beta_floor,
    constant_field,
    decomposition_ks_test,
    eigen_tail,
    gradient_representation_check,
    kde_density,
    norris_joint_probability,
    norris_recorded,
    scaled_cos_field,
    NorrisParams,
)
from .errors import ConfigError
from .flows import (
    batch_flows,
    exp_bound_excess,
    product_defect,
    sample_covariances,
)
from .hormander import estimate_kappa1
from .levy_noise import check_H3, decompose_large_jumps
from .sde_core import (
    GRID_TOL,
    PATH_TILE,
    STREAM_DENSITY,
    STREAM_FLOWS,
    STREAM_SIMULATE,
    bundle_ranges,
)

# the variables that set the thread counts of BLAS and OpenMP
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def write_csv(path: Path, header: str, columns) -> None:
    """One line per row of the equal-length columns: floats as repr, integers as str."""
    cells = (map(repr, np.asarray(col).tolist()) for col in columns)
    lines = [header, *map(",".join, zip(*cells, strict=True))]
    path.write_text("\n".join(lines) + "\n")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_json(path: Path, value) -> None:
    """Indented JSON with sorted keys; numpy arrays and scalars are written as lists and numbers."""
    text = json.dumps(value, indent=2, sort_keys=True, default=methodcaller("tolist"))
    path.write_text(text + "\n")


def environment(workers: int, workers_used: int) -> dict:
    """What a run ran on: Python and numpy versions, CPU count, BLAS thread
    variables and its workers.  numpy is the only package the runtime loads."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "workers_requested": workers,
        "workers_used": workers_used,
    }


def peak_rss_mb() -> float | None:
    """Peak RSS of this process plus that of its largest reaped worker, in MiB.

    None where the platform has no getrusage.  Both peaks cover the whole
    life of the process, not one run.
    """
    if resource is None:
        return None
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, else KiB
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round((own + workers) * unit / 2**20, 1)


class OutputDir:
    """The output directory of one run: ``out / name`` also records name as a file it writes."""

    def __init__(self, path):
        self.path = Path(path)
        self.files = set()

    def __truediv__(self, name: str) -> Path:
        self.files.add(name)
        return self.path / name


@dataclass(frozen=True)
class Pipeline:
    """One CLI subcommand; run(cfg) writes its files and returns the manifest."""

    help: str
    paths: bool  # whether --paths overrides simulation.n_paths
    run: Callable[[RunConfig], dict]


PIPELINES: dict[str, Pipeline] = {}


def pipeline(name: str, help: str, paths: bool = True):
    """Register body(cfg, out) -> (summary, verdicts, workers_used) as the subcommand name.

    The registered run creates output.dir, times the body and writes
    manifest.json, which digests exactly the files the body named through out.
    """

    def register(body):
        def run(cfg: RunConfig) -> dict:
            t0 = time.perf_counter()
            out = OutputDir(cfg.output.dir)
            out.path.mkdir(parents=True, exist_ok=True)
            summary, verdicts, workers_used = body(cfg, out)
            elapsed = time.perf_counter() - t0
            written = [out.path / n for n in sorted(out.files)]
            files = {p.name: {"sha256": file_digest(p), "bytes": p.stat().st_size} for p in written}
            manifest = {
                "command": name,
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "package_version": __version__,
                "seed": cfg.seed,
                "workers": cfg.workers,
                "workers_used": workers_used,
                "config_sha256": hashlib.sha256(cfg.canonical_json().encode()).hexdigest(),
                "config": cfg.to_dict(),
                "elapsed_seconds": round(elapsed, 3),
                "environment": environment(cfg.workers, workers_used),
                "peak_rss_mb": peak_rss_mb(),
                "summary": summary,
                "verdicts": [asdict(v) for v in verdicts],
                "files": files,
            }
            write_json(out.path / "manifest.json", manifest)
            return manifest

        PIPELINES[name] = Pipeline(help, paths, run)
        return run

    return register


def _chunk_ranges(cfg: RunConfig, d: int, recorded: int):
    """The integration bundles of a run, about one per worker.

    A function of its own so that perfbench's tracer can count the bundles.
    """
    sim = cfg.simulation
    return bundle_ranges(sim.n_paths, sim.n_steps, d, recorded, tasks=cfg.workers)


def _map(body, stream: int, cfg: RunConfig, model, recorded: int = 0):
    """body(noise, lo, hi) over the run's bundles; its results in path order and the workers used.

    recorded counts the float64 values per path and grid point that body keeps
    beside the noise, which sizes the bundles.
    """
    sim, ranges = cfg.simulation, _chunk_ranges(cfg, model.d, recorded)
    return sde_core.map_bundles(  # looked up on the module, so a stand-in covers every caller
        body, model, cfg.levy.build(), sim.horizon, sim.n_steps, cfg.seed, stream, ranges,
        cfg.workers,
    )


def _real_points(noise, n_steps: int) -> np.ndarray:
    """Each path's grid points before its padding: the uniform ones plus its events."""
    counts = np.bincount([p for p, _, _ in noise.events], minlength=noise.n_paths)
    return n_steps + 1 + counts


def _simulate_bundle(model, n_steps: int, output, noise, lo: int, hi: int):
    """Integrate the bundle and write its saved paths; returns the names of those files."""
    res = batch_flows(model, noise, want_Q=False, want_K=False, record=True)
    sizes = _real_points(noise, n_steps)
    times = np.broadcast_to(noise.times, res.alpha_path.shape)
    S = noise.clock()
    header = "t,S,alpha," + ",".join(f"x{i + 1}" for i in range(model.n))
    saved = range(lo, min(hi, output.max_saved_paths) if output.save_paths else lo)
    names = []
    for p, idx in enumerate(saved):
        names.append(f"path_{idx:04d}.csv")
        size = sizes[p]
        columns = [times[p, :size], S[p, :size], res.alpha_path[p, :size], *res.X_path[p, :size].T]
        write_csv(Path(output.dir) / names[-1], header, columns)
    return res.X, sizes - n_steps - 1, names


@pipeline("simulate", "sample coupled state/regime paths and write them as CSV")
def run_simulate(cfg: RunConfig, out: OutputDir):
    model = cfg.model.build()
    recorded = model.n + 1  # X and alpha at every grid point
    body = partial(_simulate_bundle, model, cfg.simulation.n_steps, cfg.output)
    results, used = _map(body, STREAM_SIMULATE, cfg, model, recorded)
    terminals = np.vstack([r[0] for r in results])
    events = np.concatenate([r[1] for r in results])
    out.files.update(name for r in results for name in r[2])  # the workers wrote these
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
    return summary, [], used


def _flows_bundle(model, n_steps: int, noise, lo: int, hi: int):
    res = batch_flows(model, noise, want_J=True, want_Q=True, record=True)
    # padded steps repeat the last J, K and t, so maxima over the grid are unchanged
    defects = product_defect(res.J_path, res.K_path)  # (P, K+1)
    excess = exp_bound_excess(res.J_path, res.K_path, noise.times, model.grad_bound)
    min_eig = np.linalg.eigvalsh(res.Q)[:, 0].min()
    profile = None
    if lo == 0:
        size = _real_points(noise, n_steps)[0]
        profile = [np.atleast_2d(noise.times)[0, :size], defects[0, :size]]
    return defects.max(), excess, min_eig, profile


@pipeline("flows", "evolve the forward and inverse flows and report defect bounds")
def run_flows(cfg: RunConfig, out: OutputDir):
    model = cfg.model.build()
    sim = cfg.simulation
    recorded = model.n + 1 + 3 * model.n**2  # X, alpha, J, K and Q at every grid point
    body = partial(_flows_bundle, model, sim.n_steps)
    results, used = _map(body, STREAM_FLOWS, cfg, model, recorded)
    defects, excesses, min_eigs, profiles = zip(*results)
    write_csv(out / "defect_profile.csv", "t,defect", profiles[0])
    defect = diagnostics.product_defect_verdict(max(defects), model, sim.horizon, sim.grid_step)
    excess = diagnostics.exp_bound_verdict(max(excesses), sim.grid_step)
    summary = {
        "n_paths": sim.n_paths,
        "max_product_defect": defect.statistic,
        "defect_tolerance": defect.bound,
        "max_exp_bound_excess": excess.statistic,
        "min_covariance_eigenvalue": float(min(min_eigs)),
        "within_defect_tolerance": defect.holds,
        "within_exp_bound": excess.holds,
    }
    return summary, [defect, excess], used


# hormander samples hormander.n_samples points, not paths, so it takes no --paths
@pipeline("hormander", "evaluate the bracket-span certificate over a state ball", paths=False)
def run_hormander(cfg: RunConfig, out: OutputDir):
    model = cfg.model.build()
    h = cfg.hormander
    est = estimate_kappa1(model, h.depth, h.radius, h.n_samples, seed=cfg.seed)
    verdict = diagnostics.kappa1_verdict(est.kappa1, h.threshold)
    est.verdict = "holds" if verdict.holds else "fails"
    # str keys, which sort_keys orders as text, not as numbers
    per_regime = {str(k): v for k, v in est.per_regime.items()}
    write_json(out / "hormander.json", dict(vars(est), per_regime=per_regime))
    summary = {"kappa1": est.kappa1, "verdict": est.verdict}
    return summary, [verdict], 1


@pipeline("tails", "tail curve of the smallest reduced-covariance eigenvalue")
def run_tails(cfg: RunConfig, out: OutputDir):
    need = TAIL_SAMPLES_PER_COUNT * cfg.tails.min_count
    if cfg.simulation.n_paths < need:
        raise ConfigError(
            f"tails needs simulation.n_paths >= {TAIL_SAMPLES_PER_COUNT} * tails.min_count "
            f"= {need}, got {cfg.simulation.n_paths}"
        )
    model, sim = cfg.model.build(), cfg.simulation
    Q = sample_covariances(
        model, cfg.levy.build(), sim.horizon, sim.n_steps, sim.n_paths, cfg.seed, cfg.workers
    )
    lam = np.linalg.eigvalsh(Q)[:, 0]
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
    verdict = diagnostics.tail_verdict(curve)
    summary = {
        "n_samples": curve.n_samples,
        "slope": curve.slope,
        "slope_stderr": curve.slope_stderr,
        "decaying": verdict.holds,
    }
    # the processes sample_covariances ran its bundles on: a config's specs always pickle
    return summary, [verdict], min(cfg.workers, len(_chunk_ranges(cfg, model.d, 0)))


@pipeline("decompose-check", "verify the large-jump split and the small-jump scaling probe")
def run_decompose_check(cfg: RunConfig, out: OutputDir):
    levy = cfg.levy.build()
    decomp = decompose_large_jumps(levy)
    ks = decomposition_ks_test(
        levy, cfg.simulation.horizon, cfg.simulation.n_paths, seed=cfg.seed
    )
    h3 = check_H3(levy, levy.theta, np.geomspace(1e-1, 1e-4, 7))
    report = {
        "lambda1": decomp.lambda1,
        "ks_statistic": ks.statistic,
        "ks_pvalue": ks.pvalue,
        "n_samples": ks.n1,
        "h3_theta": levy.theta,
        "h3_verdict": h3.verdict,
        "h3_c_theta": h3.c_theta,
        "h3_values": h3.values.tolist(),
    }
    write_json(out / "decomposition.json", report)
    summary = {"ks_pvalue": ks.pvalue, "h3_verdict": h3.verdict}
    return summary, [diagnostics.ks_verdict(ks), diagnostics.h3_verdict(h3)], 1


def _norris_setup(cfg: RunConfig, model, levy):
    """The NorrisParams and test field that cfg declares, checked against model and clock."""
    nc, sim = cfg.norris, cfg.simulation
    if nc.beta <= beta_floor(levy):
        raise ConfigError(f"norris.beta must exceed {beta_floor(levy)!r}, the clock's floor")
    if nc.regime > model.rates.m0:
        raise ConfigError(f"norris.regime must lie in 1..{model.rates.m0}")
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
    params = NorrisParams(tuple(nc.window), nc.regime, direction, nc.eps_grid, nc.beta)
    if nc.field_name == "constant":
        return params, constant_field(model.sigma)
    shape = {k: v for k, v in (("amp", nc.amp), ("freq", nc.freq)) if v is not None}
    return params, scaled_cos_field(model.sigma, **shape)


@pipeline("norris", "joint probability curve on a frozen-regime window")
def run_norris(cfg: RunConfig, out: OutputDir):
    model, levy, sim = cfg.model.build(), cfg.levy.build(), cfg.simulation
    params, fld = _norris_setup(cfg, model, levy)  # a bad setting exits 2 before any simulation
    curve = norris_joint_probability(
        model, levy, sim.horizon, sim.n_steps, params, fld, sim.n_paths, cfg.seed,
        cfg.workers,
    )
    write_csv(
        out / "norris_curve.csv",
        "eps,threshold,prob,se,count",
        [curve.eps, curve.thresholds, curve.probs, curve.se, curve.counts],
    )
    verdict = diagnostics.norris_verdict(curve)
    summary = {
        "n_paths": curve.n_paths,
        "nonincreasing": verdict.holds,
        "probs": curve.probs.tolist(),
    }
    # the processes norris_joint_probability ran its bundles on: a config's specs always pickle
    used = min(cfg.workers, len(_chunk_ranges(cfg, model.d, norris_recorded(model))))
    return summary, [verdict], used


@pipeline("gradrep", "residual of the first-derivative transfer identity")
def run_gradrep(cfg: RunConfig, out: OutputDir):
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

    sim, gr = cfg.simulation, cfg.gradrep
    f, grad_f = partial(_sin_of_projection, w), partial(_sin_of_projection_grad, w)
    res = gradient_representation_check(
        model, levy, sim.horizon, sim.n_steps, sim.n_paths, f, grad_f,
        eta=gr.eta, seed=cfg.seed, workers=cfg.workers,
    )
    verdict = diagnostics.gradrep_verdict(res)
    summary = {"max_ratio": verdict.statistic, "passes": verdict.holds}
    write_json(out / "gradrep.json", dict(vars(res), **summary))
    # the processes its PATH_TILE tiles ran on: a config's specs, f and grad_f always pickle
    return summary, [verdict], min(cfg.workers, -(-sim.n_paths // PATH_TILE))


def _sin_of_projection(w, x):
    return np.sin(x @ w)


def _sin_of_projection_grad(w, x):
    return np.cos(x @ w)[..., None] * w


def _density_bundle(model, component: int, noise, lo: int, hi: int):
    return batch_flows(model, noise, want_Q=False, want_K=False).X[..., component]


@pipeline("density", "kernel density of one terminal state component")
def run_density(cfg: RunConfig, out: OutputDir):
    if cfg.simulation.n_paths < 2:
        raise ConfigError(f"density needs simulation.n_paths >= 2, got {cfg.simulation.n_paths}")
    model = cfg.model.build()
    if cfg.density.component >= model.n:
        raise ConfigError(f"density.component must be below {model.n}")
    body = partial(_density_bundle, model, cfg.density.component)
    results, used = _map(body, STREAM_DENSITY, cfg, model)
    vals = np.concatenate(results)
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
    return summary, [], used

