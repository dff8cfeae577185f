"""Workloads of the switchsde benchmark and the code that runs them.

A workload is a fixed sequence of CLI pipeline calls on one JSON config from
``perfbench/configs``.  Each call drives ``switchsde.cli.main`` in-process,
exactly as the console script would.  A call passes only when the CLI exits 0
under its own verdict rules and every number in its one-line summary is
finite.  This module must be imported after ``switchsde`` is importable (see
``run.py``, which pins the BLAS threads and puts ``src`` on the path first).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from switchsde import cli

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
REFERENCE_SEED = 0


@dataclass(frozen=True)
class KnownDefect:
    """A recorded failure of one call; matches(summary) recognises its verdict."""

    description: str
    matches: Callable[[dict], bool]


# decompose_large_jumps draws heavy-jump variances from the untruncated tail
# (1-u)^(-1/beta); with upper_cutoff 4 at alpha=1 about half the draws exceed
# the cutoff, so the KS test rejects the split at n=8000 (p ~ 2e-23).  The call
# stays in the workload and counts as failed until the sampler is fixed.  Only
# that verdict (KS rejects, H3 holds) is exempt; any other failure is not.
DECOMPOSE_DEFECT = KnownDefect(
    "decompose_large_jumps ignores upper_cutoff when drawing heavy jumps",
    lambda s: s["ks_pvalue"] < 0.01 and s["h3_verdict"] == "holds",
)


@dataclass(frozen=True)
class Call:
    """One CLI subcommand; path_steps(paths, steps, config) counts its integrated path-steps."""

    command: str
    path_steps: Callable[[int, int, dict], int]
    known_defect: KnownDefect | None = None


def _grid(paths: int, steps: int, cfg: dict) -> int:
    return paths * steps


def _gradrep_steps(paths: int, steps: int, cfg: dict) -> int:
    # 4n+1 = 9 bundled starts for the 2-d kalman model, plus the half-resolution pass
    return paths * 9 * (steps + steps // 2)


def _decompose_steps(paths: int, steps: int, cfg: dict) -> int:
    # two routes (full clock, split rebuild), one whole-horizon increment per sample
    return 2 * paths


def _norris_steps(paths: int, steps: int, cfg: dict) -> int:
    t1, t2 = cfg["norris"]["window"]
    window = round((t2 - t1) / cfg["simulation"]["grid_step"])
    return paths * (steps + window)


@dataclass(frozen=True)
class Workload:
    """A named call sequence; BENCHMARK.json records why each workload was chosen."""

    name: str
    calls: tuple

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.json"

    def config(self) -> dict:
        return json.loads(self.config_path.read_text())

    @property
    def workers(self) -> int:
        return int(self.config().get("workers", 1))

    def path_steps(self) -> int:
        cfg = self.config()
        sim = cfg["simulation"]
        return sum(c.path_steps(sim["n_paths"], sim["n_steps"], cfg) for c in self.calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gradrep_bundle",
            (
                Call("gradrep", _gradrep_steps),
                Call("decompose-check", _decompose_steps, known_defect=DECOMPOSE_DEFECT),
            ),
        ),
        Workload("tails_switching", (Call("tails", _grid),)),
        Workload(
            "perpath_statedep",
            (
                Call("simulate", _grid),
                Call("flows", _grid),
                Call("norris", _norris_steps),
                Call("density", _grid),
            ),
        ),
    )
}


@dataclass
class CallResult:
    call: Call
    exit_code: int | None
    summary: dict | None  # None when the CLI printed no parsable summary

    @property
    def command(self) -> str:
        return self.call.command

    @property
    def finite(self) -> bool:
        return self.summary is not None and _all_finite(self.summary)

    @property
    def passed(self) -> bool:
        return self.exit_code == 0 and self.finite

    @property
    def shows_known_defect(self) -> bool:
        """A negative verdict (exit 1, finite summary) that is the recorded defect."""
        defect = self.call.known_defect
        return (defect is not None and self.exit_code == 1 and self.finite
                and defect.matches(self.summary))

    @property
    def expected(self) -> bool:
        """True when the call passed or failed exactly as its recorded defect does."""
        return self.passed or self.shows_known_defect


@dataclass
class Iteration:
    seed: int
    workers: int
    seconds: float
    calls: list
    digests: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(c.expected for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.calls)


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def run_call(call: Call, config: Path, seed: int, workers: int, outdir: Path) -> CallResult:
    argv = [
        call.command,
        "--config", str(config),
        "--seed", str(seed),
        "--workers", str(workers),
        "--out", str(outdir),
    ]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as e:  # an escaped exception is a failed call, not a harness crash
        print(f"{call.command}: escaped {type(e).__name__}: {e}", file=sys.stderr)
        return CallResult(call, None, None)
    lines = buf.getvalue().strip().splitlines()
    try:
        summary = json.loads(lines[-1])["summary"]
    except (IndexError, ValueError, KeyError, TypeError):
        summary = None
    return CallResult(call, code, summary if isinstance(summary, dict) else None)


def data_digests(outdir: Path) -> dict:
    """sha256 of every data file under outdir; manifests carry timestamps and are skipped."""
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def run_iteration(workload: Workload, seed: int, workers: int, outdir: Path) -> Iteration:
    """All calls of the workload in order; the wall time covers exactly the calls."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    calls = []
    t0 = time.perf_counter()
    for call in workload.calls:
        calls.append(run_call(call, workload.config_path, seed, workers, outdir / call.command))
    seconds = time.perf_counter() - t0
    return Iteration(seed, workers, seconds, calls, data_digests(outdir))


def outputs_identical(workload: Workload, it: Iteration) -> tuple[int, int]:
    """(matching files, reference files) for a pass at REFERENCE_SEED."""
    ref = json.loads(REFERENCE_FILE.read_text())["workloads"][workload.name]
    return sum(it.digests.get(k) == v for k, v in ref.items()), len(ref)
