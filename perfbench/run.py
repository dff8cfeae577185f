"""switchsde benchmark: CLI pipelines timed end to end, and a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload gradrep_bundle --seed 3 --seconds 32 --trace 0
    python3 perfbench/run.py --workload perpath_statedep --seed 3 --seconds 32 --trace 1

--trace 0  repeats the workload at --seed (at least MIN_PASSES times, then
           while another pass fits in --seconds) and reports the end-to-end
           metrics: run_s (median wall time of one pass), the integrated
           path-steps per second, peak RSS, and setup_s (median over fresh
           processes of import + config + model/clock build).
--trace 1  first runs one pass at the reference seed and compares its data
           files with perfbench/reference_digests.json, fixed benchmark data
           (``outputs.identical``, a count, not a gate).  It then alternates
           untraced and traced passes at --seed with workers 1, plus an
           untraced pass at the workload's own worker count when that is
           larger, and reports the per-layer metrics of the traced passes.

The metric names and units are those BENCHMARK.json publishes.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  A run is correct when every call passed or failed exactly as its
recorded known defect does, and every pass at --seed wrote bit-identical data
files (across repetitions, worker counts and tracing).
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy loads, for this process and
# for the worker processes it forks.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3  # run_s is a median, so one slow first pass cannot set it


def _import_program():
    """Put this checkout's src first on the path and import the package from it."""
    if not (SRC / "switchsde" / "__init__.py").is_file():
        sys.exit(f"error: no switchsde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import switchsde

    if not Path(switchsde.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: switchsde was imported from {switchsde.__file__}, not {SRC}")


def published_units(kind: str) -> dict:
    """Metric name -> unit for one list ("end_to_end" or "per_layer") of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workers_requested": workers,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(config: Path) -> list[float]:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(probe), str(config)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def repeat(seconds: float, minimum: int, one_round) -> list:
    """Call one_round() at least `minimum` times, then while another fits in `seconds`."""
    t0 = time.perf_counter()
    rounds = []
    while True:
        r0 = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - r0
        if len(rounds) >= minimum and time.perf_counter() - t0 + took > seconds:
            return rounds


def describe(it) -> str:
    parts = []
    for c in it.calls:
        if c.passed:
            parts.append(f"{c.command} pass")
        else:
            tag = (f"known defect: {c.call.known_defect.description}"
                   if c.shows_known_defect else "UNEXPECTED")
            parts.append(f"{c.command} FAIL exit={c.exit_code} ({tag})")
    return f"pass seed {it.seed} workers {it.workers} {it.seconds:.3f} s: " + "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _import_program()
    import harness
    import tracing

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    w = harness.WORKLOADS[args.workload]
    out = harness.OUT_DIR / w.name

    if args.trace == 0:
        passes = repeat(args.seconds, MIN_PASSES,
                        lambda: harness.run_iteration(w, args.seed, w.workers, out / "run"))
        rss = peak_rss_mb()  # read before the setup probes become children too
        setup = setup_seconds(w.config_path)
        run_s = statistics.median(it.seconds for it in passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "path_steps_per_s": w.path_steps() / run_s,
            "peak_rss_mb": rss,
        }
        units = published_units("end_to_end")
        notes = {
            "run_s": f"median of {len(passes)} passes",
            "setup_s": f"median of {len(setup)} fresh processes",
            "path_steps_per_s": f"{w.path_steps()} path-steps per pass",
        }
    else:
        warm = harness.run_iteration(w, harness.REFERENCE_SEED, w.workers, out / "reference")
        same, files = harness.outputs_identical(w, warm)
        print(f"outputs_identical {same}/{files} data files match "
              f"the seed-{harness.REFERENCE_SEED} reference")
        tracer = tracing.Tracer()
        units = published_units("per_layer")

        def one_round():
            rnd = [harness.run_iteration(w, args.seed, 1, out / "plain1")]
            tracer.install()
            try:
                rnd.append(harness.run_iteration(w, args.seed, 1, out / "traced"))
            finally:
                tracer.uninstall()
            if w.workers > 1:
                rnd.append(harness.run_iteration(w, args.seed, w.workers, out / "plain"))
            return rnd

        rounds = repeat(args.seconds, 1, one_round)
        passes = [warm] + [it for rnd in rounds for it in rnd]
        plain1 = statistics.median(r[0].seconds for r in rounds)
        traced = [r[1].seconds for r in rounds]
        metrics = tracing.layer_metrics(units, tracer.totals(), tracer.counts, len(rounds))
        metrics["trace.run_s"] = statistics.mean(traced)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / plain1
        metrics["runner.fanout_speedup"] = (
            plain1 / statistics.median(r[2].seconds for r in rounds) if w.workers > 1 else 1.0
        )
        metrics["outputs.identical"] = same
        metrics["outputs.files"] = files
        tracer.save(out / "spans.npz")
        accounted = sum(v for k, v in metrics.items() if k.endswith(".s") or k == "runner.self_s")
        notes = {"trace.run_s": f"mean of {len(rounds)} traced passes; "
                                f"self times sum to {accounted:.4f} s"}

    for it in passes:
        print(describe(it))
    same_seed = [it for it in passes if it.seed == args.seed]
    digests_agree = all(it.digests == same_seed[0].digests for it in same_seed)
    correct = all(it.correct for it in passes) and digests_agree
    attempted = sum(len(it.calls) for it in passes)
    failed = sum(it.failed for it in passes)
    if not digests_agree:
        print("passes at the same seed wrote different data files", file=sys.stderr)
    print(f"workload {w.name}: seed {args.seed}, workers {w.workers}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>16.6g} {'1':6s} "
          f"{failed} of {attempted} calls failed")
    print("environment " + json.dumps(environment(w.workers), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
