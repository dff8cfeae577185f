"""Checks of the benchmark itself (slow: every workload runs at full size).

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECOND_SEED = 1
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_harness():
    for path in (ROOT / "src", BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import harness

    return harness


def run_bench(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    verdicts = {}
    for line in lines:
        m = re.match(r"pass seed (\d+) workers \d+ \S+ s: (.*)$", line)
        if m:
            verdicts.setdefault(int(m.group(1)), set()).add(m.group(2))
    return json.loads(lines[-1]), verdicts


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def traced(request):
    return request.param, *run_bench(request.param, SECOND_SEED)


def test_metric_names_are_published():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_traced_run_emits_every_listed_name(traced):
    workload, result, _ = traced
    assert result["correct"]
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == listed
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v >= 0 for v in values.values())
    # self times of every span plus the pipeline's own time make up the traced pass
    self_times = sum(v for k, v in values.items() if k.endswith(".s") or k == "runner.self_s")
    assert self_times == pytest.approx(values["trace.run_s"], rel=0.01)


def test_second_seed_keeps_every_verdict(traced):
    """The warm-up pass runs at the reference seed, the traced passes at SECOND_SEED."""
    workload, _, verdicts = traced
    assert len(verdicts) == 2
    first, second = verdicts.values()
    assert first == second
    assert len(first) == 1
    failing = [c for c in next(iter(first)).split("; ") if "FAIL" in c]
    assert all("known defect" in c for c in failing)


@pytest.mark.parametrize(
    "exit_code, summary, expected",
    [
        (1, {"ks_pvalue": 2e-23, "h3_verdict": "holds"}, True),  # the recorded defect
        (0, {"ks_pvalue": 0.4, "h3_verdict": "holds"}, True),  # fixed
        (1, {"ks_pvalue": 0.4, "h3_verdict": "fails"}, False),  # another negative verdict
        (1, {"ks_pvalue": 2e-23, "h3_verdict": "fails"}, False),
        (1, {"ks_pvalue": float("nan"), "h3_verdict": "holds"}, False),
        (1, None, False),  # SwitchSdeError: no summary
        (2, None, False),  # ConfigError or SpecError
        (None, None, False),  # escaped exception
    ],
)
def test_only_the_recorded_defect_is_exempt(exit_code, summary, expected):
    harness = load_harness()
    call = next(c for c in harness.WORKLOADS["gradrep_bundle"].calls
                if c.command == "decompose-check")
    assert harness.CallResult(call, exit_code, summary).expected is expected
    plain = harness.Call(call.command, call.path_steps)
    assert harness.CallResult(plain, exit_code, summary).expected is (exit_code == 0)
