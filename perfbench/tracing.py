"""Span recorder for the traced benchmark run.

Wrappers are installed at the names the callers actually look up: module
globals such as ``runner.batch_flows`` or ``sde_core.partition_point``, the
``RunConfig.from_dict`` classmethod, ``cli.main`` (the pipeline span), and
the drift callbacks of every model built through ``config.make_model``.
Each wrapped call records one span (name, start, end, parent span) in flat
in-memory arrays, plus the counts its arguments or result carry.  The spans
are written out once, after the run.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (the traced run is single-process, single-thread), so
the self times of all spans add up to the total time of the root spans.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from switchsde import cli, config, diagnostics, runner, sde_core

PIPELINE = "runner.pipeline"


def _rows(args, kwargs, result):
    return {"models.rows": math.prod(np.shape(args[0])[:-1])}


def _batch_path_steps(args, kwargs, result):
    noise = args[1]
    return {"flows.batch_flows.path_steps": math.prod(result.X.shape[:-1]) * noise.dS.shape[1]}


def _path_steps(args, kwargs, result):
    return {"sde_core.simulate_path.steps": result.times.size - 1}


def _events(args, kwargs, result):
    return {"switching.events": result.times.size}


def _cells(args, kwargs, result):
    return {"levy_noise.sample_increments.cells": result.size}


def _jumps(args, kwargs, result):
    return {"levy_noise.sample_subordinator_path.jumps": result.jump_times.size}


def _csv_bytes(args, kwargs, result):
    return {"runner.write_csv.bytes": Path(args[0]).stat().st_size}


# (module, attribute looked up by the caller, span name, counter)
SPANS = (
    (cli, "main", PIPELINE, None),
    (runner, "batch_flows", "flows.batch_flows", _batch_path_steps),
    (diagnostics, "batch_flows", "flows.batch_flows", _batch_path_steps),
    (runner, "evolve_flows", "flows.evolve_flows", None),
    (runner, "reduced_covariance", "flows.reduced_covariance", None),
    (runner, "simulate_path", "sde_core.simulate_path", _path_steps),
    (diagnostics, "simulate_path", "sde_core.simulate_path", _path_steps),
    (diagnostics, "frozen_regime_path", "sde_core.frozen_regime_path", None),
    (runner, "sample_batch_noise", "sde_core.sample_batch_noise", None),
    (diagnostics, "sample_batch_noise", "sde_core.sample_batch_noise", None),
    (sde_core, "simulate_regime_events", "switching.simulate_regime_events", _events),
    (sde_core, "partition_point", "switching.partition_point", None),
    (sde_core, "sample_increments", "levy_noise.sample_increments", _cells),
    (diagnostics, "sample_increments", "levy_noise.sample_increments", _cells),
    (sde_core, "sample_subordinator_path", "levy_noise.sample_subordinator_path", _jumps),
    (runner, "gradient_representation_check", "diagnostics.gradient_representation_check", None),
    (diagnostics, "window_integrals", "diagnostics.window_integrals", None),
    (runner, "eigen_tail", "diagnostics.eigen_tail", None),
    (runner, "kde_density", "diagnostics.kde_density", None),
    (runner, "decomposition_ks_test", "diagnostics.decomposition_ks_test", None),
    (runner, "write_csv", "runner.write_csv", _csv_bytes),
    (runner, "file_digest", "runner.file_digest", None),
    (config.RunConfig, "from_dict", "config.from_dict", None),
)


class Tracer:
    """Records spans while installed; install() and uninstall() must pair."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                start[i] = t0
                stack.pop()
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, count in SPANS:
            if attr not in vars(owner):
                continue  # name gone in this version: its metrics read 0
            traced = self.wrap(name, getattr(owner, attr), count)
            self._patch(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)
        if "_chunk_ranges" in vars(runner):
            ranges = runner._chunk_ranges

            def counted_ranges(*args):
                result = ranges(*args)
                self.counts["runner.chunks"] += len(result)
                return result

            self._patch(runner, "_chunk_ranges", counted_ranges)
        make_model = config.make_model

        def traced_make_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            model.drift = self.wrap("models.drift", model.drift, _rows)
            model.drift_jac = self.wrap("models.drift_jac", model.drift_jac, _rows)
            return model

        self._patch(config, "make_model", traced_make_model)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        m = len(self.names)
        calls = np.bincount(ids, minlength=m)
        total = np.bincount(ids, weights=dur, minlength=m) * 1e-9
        self_s = np.bincount(ids, weights=own, minlength=m) * 1e-9
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def layer_metrics(names, totals: dict, counts: dict, n: int) -> dict:
    """Per-traced-pass means of span self times, call counts and counters; 0 when absent.

    `names` are the per-layer metrics of BENCHMARK.json; the run-level ones
    (trace.*, outputs.*, runner.fanout_speedup) are left at 0 for the caller.
    """
    out = dict.fromkeys(names, 0.0)
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat == "s" and span in totals:
            out[name] = totals[span]["self_s"] / n
        elif stat == "calls" and span in totals:
            out[name] = totals[span]["calls"] / n
        elif name in counts:
            out[name] = counts[name] / n
    out["runner.self_s"] = totals.get(PIPELINE, {}).get("self_s", 0.0) / n
    bf_steps = counts.get("flows.batch_flows.path_steps", 0)
    bf_s = totals.get("flows.batch_flows", {}).get("total_s", 0.0)
    out["flows.batch_flows.ns_per_path_step"] = bf_s * 1e9 / bf_steps if bf_steps else 0.0
    sp_steps = counts.get("sde_core.simulate_path.steps", 0)
    sp_s = totals.get("sde_core.simulate_path", {}).get("total_s", 0.0)
    out["sde_core.us_per_step"] = sp_s * 1e6 / sp_steps if sp_steps else 0.0
    return out
