"""Tests for the JSON configuration layer and the command-line pipelines.

The configuration round-trips exactly (parse -> to_dict -> parse), unknown
keys are rejected with dotted paths, and each pipeline writes a manifest
whose file digests are reproducible across worker counts.
"""

import json
import os
import platform
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import ConfigError, RunConfig, runner, sde_core
from switchsde.cli import build_parser, main

SMALL = {
    "seed": 7,
    "model": {"name": "kalman"},
    "levy": {"alpha": 1.0, "upper_cutoff": 4.0},
    "simulation": {"horizon": 0.5, "grid_step": 1 / 64, "n_steps": 32, "n_paths": 24},
    "output": {"max_saved_paths": 3},
}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# -- parsing -------------------------------------------------------------------


def test_defaults_round_trip():
    cfg = RunConfig.from_dict({})
    assert cfg == RunConfig()
    assert cfg.seed == 0 and cfg.workers == 1
    assert cfg.model.name == "kalman"
    assert cfg.simulation.n_steps == 512
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert json.loads(cfg.canonical_json()) == cfg.to_dict()


def test_round_trip_preserves_values():
    cfg = RunConfig.from_dict(SMALL)
    assert cfg.seed == 7
    assert cfg.levy.upper_cutoff == 4.0
    assert cfg.simulation.n_paths == 24
    assert cfg.output.max_saved_paths == 3
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


ROOT = Path(__file__).resolve().parents[1]

_positive = st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6))
_number = st.one_of(st.integers(-(10**6), 10**6), st.floats(-1e6, 1e6))
_floats = st.lists(st.floats(-1e3, 1e3), max_size=3)
_window = st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(lambda t: [t[0], t[0] + t[1]])
_nonzero = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3).filter(any)
_MODELS = {
    "kalman": {},
    "zero_drift": {"n": 3, "d": 1},
    "linear": {"mats": [[0.0, 1.0], [-1.0, 0.0]]},
    "sin_bounded": {"amp": [0.5], "freq": [2.0]},
    "two_regime_linear": {"switch_rate": 2.0, "state_dependent": True},
}


def _section(fields, fit=None):
    """(names, strategy): each field optional; fit makes the drawn fields agree."""
    strategy = st.fixed_dictionaries({}, optional=fields)
    return set(fields), strategy if fit is None else strategy.map(fit)


def _fit_model(d):
    # params must fit the builder that name picks
    if d:
        d["params"] = _MODELS[d.get("name", "kalman")]
    return d


def _fit_levy(d):
    # a tabulated measure needs its table
    if d.get("kind") == "tabulated":
        d.setdefault("table", "measure.csv")
    return d


def _fit_simulation(d):
    # grid_step is drawn as a step count, so that it agrees with horizon and n_steps
    if "grid_step" in d:
        d["grid_step"] = d.get("horizon", 1.0) / d.get("n_steps", d["grid_step"])
    return d


def _fit_norris(d):
    # beta is drawn as a fraction of its open range (max(0, 4 theta - 7), 1)
    if "beta" in d or "theta" in d:
        lo = max(0.0, 4.0 * d.get("theta", 1.0) - 7.0)
        d["beta"] = lo + d.get("beta", 0.5) * (1.0 - lo)
    return d


SECTIONS = {
    "model": _section(
        {"name": st.sampled_from(sorted(_MODELS)), "params": st.just(None)}, _fit_model
    ),
    "levy": _section({
        "kind": st.sampled_from(["stable", "tabulated"]),
        "alpha": _positive,
        "small_jump_cutoff": _positive,
        "upper_cutoff": st.one_of(st.none(), _positive),
        "table": st.text(min_size=1),
    }, _fit_levy),
    "simulation": _section({
        "horizon": _positive,
        "grid_step": st.integers(1, 10**6),
        "n_steps": st.integers(1, 10**6),
        "n_paths": st.integers(1, 10**6),
    }, _fit_simulation),
    "output": _section(
        {"dir": st.text(), "save_paths": st.booleans(), "max_saved_paths": st.integers(0, 100)}
    ),
    "hormander": _section({
        "depth": st.integers(1, 6), "radius": _positive, "n_samples": st.integers(1, 10**4),
        "mode": st.sampled_from(["auto", "analytic", "fd"]), "threshold": _positive,
    }),
    "tails": _section({
        "n_thresholds": st.integers(3, 50),
        "q_top": st.floats(1e-6, 1.0),
        "min_count": st.integers(1, 50),
    }),
    "norris": _section({
        "window": _window, "regime": st.integers(1, 4), "direction": st.one_of(st.none(), _nonzero),
        "eps_grid": st.lists(_positive, min_size=2, max_size=5),
        "beta": st.floats(0.01, 0.99), "theta": st.floats(1e-6, 1.99),
        "field_name": st.sampled_from(["scaled_cos", "constant"]), "amp": _number, "freq": _number,
    }, _fit_norris),
    "gradrep": _section({"eta": _positive, "weights": _floats, "truncate": st.booleans()}),
    "density": _section({
        "component": st.integers(0, 5), "n_grid": st.integers(8, 4096),
        "bandwidth": st.one_of(st.none(), _positive),
    }),
}
TOP_LEVEL = {"seed": st.integers(0, 2**32), "workers": st.integers(1, 64)}

VALID_CONFIGS = st.fixed_dictionaries(
    {}, optional={**TOP_LEVEL, **{name: strategy for name, (_, strategy) in SECTIONS.items()}}
)


def test_valid_configs_name_every_field():
    # a new setting must be added to VALID_CONFIGS, or this fails
    assert set(TOP_LEVEL) | set(SECTIONS) == {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    for name, (names, _) in SECTIONS.items():
        assert {f.name for f in fields(getattr(defaults, name))} <= names, name


@settings(max_examples=200, deadline=None)
@given(raw=VALID_CONFIGS)
def test_valid_configs_round_trip(raw):
    cfg = RunConfig.from_dict(raw)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert RunConfig.from_dict(json.loads(cfg.canonical_json())) == cfg


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "perfbench" / "configs").glob("*.json")) + [ROOT / "configs" / "kalman.json"],
    ids=lambda p: p.relative_to(ROOT).as_posix(),
)
def test_shipped_configs_round_trip(path):
    cfg = RunConfig.load(path)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_unknown_keys_get_dotted_paths():
    with pytest.raises(ConfigError, match="'walltime' in the top level"):
        RunConfig.from_dict({"walltime": 60})
    with pytest.raises(ConfigError, match="'stepsize' in simulation"):
        RunConfig.from_dict({"simulation": {"stepsize": 0.1}})
    with pytest.raises(ConfigError, match="norris"):
        RunConfig.from_dict({"norris": {"epsilon": [0.1]}})


def test_type_and_range_errors():
    with pytest.raises(ConfigError, match="simulation.horizon"):
        RunConfig.from_dict({"simulation": {"horizon": "long"}})
    with pytest.raises(ConfigError, match="simulation.horizon"):
        RunConfig.from_dict({"simulation": {"horizon": -1.0}})
    with pytest.raises(ConfigError, match="simulation.n_steps"):
        RunConfig.from_dict({"simulation": {"n_steps": 2.5}})
    with pytest.raises(ConfigError, match="model.name"):
        RunConfig.from_dict({"model": {"name": "pendulum"}})
    with pytest.raises(ConfigError, match="save_paths"):
        RunConfig.from_dict({"output": {"save_paths": "yes"}})
    with pytest.raises(ConfigError, match="table"):
        RunConfig.from_dict({"levy": {"kind": "tabulated"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": -1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict([1, 2])


def test_grid_step_and_n_steps_must_agree(tmp_path, capsys):
    # either field is derived from the other; given both, they must fit the horizon
    sim = RunConfig.from_dict({"simulation": {"horizon": 0.5, "grid_step": 1 / 64}}).simulation
    assert sim.n_steps == 32
    sim = RunConfig.from_dict({"simulation": {"horizon": 0.5, "n_steps": 64}}).simulation
    assert sim.grid_step == 1 / 128
    with pytest.raises(ConfigError, match="simulation.grid_step"):
        RunConfig.from_dict({"simulation": {"horizon": 1.0, "grid_step": 0.3}})
    payload = dict(SMALL, simulation={"horizon": 1.0, "grid_step": 0.001, "n_steps": 16})
    for command in ("simulate", "flows"):
        assert main([command, "--config", write_config(tmp_path, payload)]) == 2
        assert "simulation.n_steps" in capsys.readouterr().err


def test_load_and_save(tmp_path):
    cfg = RunConfig.from_dict(SMALL)
    path = tmp_path / "saved.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.load(bad)


def test_model_and_levy_builders(tmp_path):
    cfg = RunConfig.from_dict(SMALL)
    model = cfg.model.build()
    assert model.name == "kalman" and model.n == 2
    levy = cfg.levy.build()
    assert levy.alpha == 1.0 and levy.upper_cutoff == 4.0
    # a tabulated measure takes both cutoffs from the config
    table = tmp_path / "measure.csv"
    table.write_text("u,density\n0.001,2.0\n1.0,1.0\n10.0,0.5\n")
    levy = {"kind": "tabulated", "table": str(table)}
    spec = RunConfig.from_dict({"levy": levy}).levy.build()
    assert spec.kind == "tabulated" and spec.small_jump_cutoff == 1e-4 and spec.upper_cutoff is None
    levy.update(small_jump_cutoff=0.01, upper_cutoff=5.0)
    spec = RunConfig.from_dict({"levy": levy}).levy.build()
    assert spec.small_jump_cutoff == 0.01 and spec.upper_cutoff == 5.0


# -- pipelines through the CLI -------------------------------------------------


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else {})


def test_simulate_writes_paths_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run1"
    code, report = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == 0 and report["ok"]
    assert (out / "terminals.csv").exists()
    assert sorted(p.name for p in out.glob("path_*.csv")) == [
        "path_0000.csv",
        "path_0001.csv",
        "path_0002.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert set(manifest["files"]) == {"terminals.csv"} | {
        f"path_{k:04d}.csv" for k in range(3)
    }
    # terminals: one header plus one row per path
    lines = (out / "terminals.csv").read_text().strip().splitlines()
    assert len(lines) == 25
    assert lines[0].startswith("path,")


def test_worker_count_does_not_change_results(tmp_path, capsys):
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70))
    cfg = write_config(tmp_path, payload)
    files = {
        "simulate": {"terminals.csv"} | {f"path_{k:04d}.csv" for k in range(3)},
        "flows": {"defect_profile.csv"},
        "tails": {"tail_curve.csv"},
        "density": {"density.csv"},
    }
    for command, written in files.items():
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"{command}_w{workers}"
            code, _ = run_cli(
                capsys, command, "--config", cfg, "--out", str(out),
                "--workers", str(workers),
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests = {k: v["sha256"] for k, v in manifest["files"].items()}
            runs[workers] = (digests, manifest["summary"])
        assert runs[1] == runs[2]
        assert set(runs[1][0]) == written


def test_flows_and_verdict(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "flows"
    code, report = run_cli(capsys, "flows", "--config", cfg, "--out", str(out))
    assert code == 0 and report["ok"]
    assert report["summary"]["within_defect_tolerance"]
    assert (out / "defect_profile.csv").exists()


def test_hormander_verdict_and_failure_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "h1"
    code, report = run_cli(capsys, "hormander", "--config", cfg, "--out", str(out))
    assert code == 0
    assert report["summary"]["kappa1"] == pytest.approx(1.0, abs=1e-9)
    assert json.loads((out / "hormander.json").read_text())["verdict"] == "holds"

    # noise that never reaches the first coordinate: certificate fails, exit 1
    payload = dict(SMALL, model={"name": "zero_drift", "params": {"n": 2, "d": 1, "sigma": [[0.0], [1.0]]}})
    cfg2 = write_config(tmp_path, payload, name="deg.json")
    code2, report2 = run_cli(capsys, "hormander", "--config", cfg2, "--out", str(tmp_path / "h2"))
    assert code2 == 1
    assert not report2["ok"]


def test_decompose_check(tmp_path, capsys):
    payload = dict(SMALL, levy={"alpha": 1.0}, simulation=dict(SMALL["simulation"], n_paths=2000))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "dec"
    code, report = run_cli(capsys, "decompose-check", "--config", cfg, "--out", str(out))
    assert code == 0
    assert report["summary"]["ks_pvalue"] >= 0.01
    assert report["summary"]["h3_verdict"] == "holds"
    detail = json.loads((out / "decomposition.json").read_text())
    assert detail["lambda1"] == pytest.approx(2.0, abs=1e-12)
    assert detail["h3_c_theta"] == pytest.approx(2.0, rel=1e-6)


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_override_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["simulate", "--config", cfg, "--paths", "0"]) == 2
    assert main(["simulate", "--config", cfg, "--seed", "-3"]) == 2
    capsys.readouterr()
    # hormander samples hormander.n_samples points, so it offers no --paths to ignore
    with pytest.raises(SystemExit) as exit_:
        main(["hormander", "--paths", "10"])
    assert exit_.value.code == 2
    assert "--paths" in capsys.readouterr().err


ESCAPED_ERRORS = {
    "beta": ("norris", {"norris": {"beta": 1.5}}, "norris.beta"),
    "theta": ("norris", {"norris": {"theta": 3.0}}, "norris.beta"),
    "zero_direction": ("norris", {"norris": {"direction": [0, 0]}}, "norris.direction"),
    "long_direction": ("norris", {"norris": {"direction": [1, 0, 0]}}, "norris.direction"),
    "q_top": ("tails", {"tails": {"q_top": 2.0}}, "tails.q_top"),
    "odd_n_steps": (
        "gradrep", {"simulation": {"horizon": 0.5, "n_steps": 15, "n_paths": 24}}, "n_steps"
    ),
}


@pytest.mark.parametrize(
    "command, payload, where", ESCAPED_ERRORS.values(), ids=ESCAPED_ERRORS.keys()
)
def test_config_errors_exit_2_without_traceback(tmp_path, command, payload, where):
    # each of these configs once passed parsing and died in the engine with a traceback
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(SMALL, **payload))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "switchsde.cli", command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and where in proc.stderr
    assert proc.stdout == ""
    assert not out.exists() or not any(out.iterdir())


def test_bad_model_params_and_reversed_window_are_usage_errors(tmp_path, capsys):
    bogus = dict(SMALL, model={"name": "kalman", "params": {"bogus": 1}})
    assert main(["simulate", "--config", write_config(tmp_path, bogus)]) == 2
    assert "bogus" in capsys.readouterr().err
    for window in ([0.5, 0.25], ["0", 0.5]):
        bad_window = dict(SMALL, norris={"window": window})
        assert main(["norris", "--config", write_config(tmp_path, bad_window)]) == 2
        assert "norris.window" in capsys.readouterr().err
    # kalman has one regime, so a frozen window in regime 2 is undefined
    regime_2 = dict(SMALL, norris={"regime": 2})
    assert main(["norris", "--config", write_config(tmp_path, regime_2)]) == 2
    assert "norris.regime" in capsys.readouterr().err


def test_non_finite_numbers_are_usage_errors(tmp_path, capsys):
    # Python's JSON reader takes NaN and Infinity literals; they must not reach the engine
    for value in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "cfg.json"
        path.write_text('{"simulation": {"horizon": %s, "n_paths": 4}}' % value)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "simulation.horizon must be a finite number" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="levy.alpha"):
        RunConfig.from_dict({"levy": {"alpha": float("nan")}})
    with pytest.raises(ConfigError, match="norris.window"):
        RunConfig.from_dict({"norris": {"window": [0.0, float("inf")]}})


def test_non_numeric_list_entries_are_usage_errors(tmp_path, capsys):
    cases = [
        ("norris", {"norris": {"eps_grid": ["a", "b"]}}, "norris.eps_grid"),
        ("norris", {"norris": {"eps_grid": [0.1, float("nan")]}}, "norris.eps_grid"),
        ("norris", {"norris": {"eps_grid": [0.1, -0.01]}}, "norris.eps_grid"),
        ("norris", {"norris": {"direction": [1.0, "x"]}}, "norris.direction"),
        ("gradrep", {"gradrep": {"weights": [1.0, "a"]}}, "gradrep.weights"),
        ("gradrep", {"gradrep": {"weights": [True, 0.7]}}, "gradrep.weights"),
    ]
    for command, payload, where in cases:
        assert main([command, "--config", write_config(tmp_path, dict(SMALL, **payload))]) == 2
        assert where in capsys.readouterr().err


def test_malformed_measure_tables_are_usage_errors(tmp_path, capsys):
    tables = {
        "non_numeric": "u,density\n0.001,abc\n1.0,1.0\n",
        "decreasing": "u,density\n1.0,2.0\n0.5,1.0\n",
        "one_row": "u,density\n0.5,1.0\n",
        "all_zero": "u,density\n0.1,0.0\n1.0,0.0\n",
        "no_header": "0.1,5.0\n0.5,2.0\n1.0,1.0\n",
    }
    for name, text in tables.items():
        table = tmp_path / f"{name}.csv"
        table.write_text(text)
        payload = dict(SMALL, levy={"kind": "tabulated", "table": str(table)})
        cfg = write_config(tmp_path, payload)
        assert main(["density", "--config", cfg, "--out", str(tmp_path / name)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: levy.table {str(table)!r}: ") and out.err.count("\n") == 1


def test_density_on_a_table_writes_nothing_to_stderr(tmp_path):
    # a table is sampled without quadrature, so scipy has nothing to warn about
    u = np.geomspace(1e-4, 4.0, 400)
    table = tmp_path / "measure.csv"
    np.savetxt(table, np.column_stack([u, u**-1.5]), delimiter=",", header="u,density")
    cfg = write_config(tmp_path, dict(SMALL, levy={"kind": "tabulated", "table": str(table)}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "switchsde.cli", "density", "--config", cfg,
         "--out", str(tmp_path / "d")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)


def test_overflowing_density_bandwidth_is_a_numeric_error(tmp_path, capsys):
    # RuntimeWarnings are errors in this suite, so an overflow warning fails it too
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=100))
    cfg = write_config(tmp_path, dict(payload, density={"bandwidth": 1e-300}))
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "not finite" in out.err


def test_gradrep_rejects_state_dependent_rates_before_simulating(tmp_path, capsys, monkeypatch):
    # shifted starts share each path's noise, so a state-dependent switch is undefined
    monkeypatch.setattr(
        runner, "gradient_representation_check", lambda *a, **k: pytest.fail("simulated")
    )
    state = {"name": "two_regime_linear", "params": {"state_dependent": True}}
    cfg = write_config(tmp_path, dict(SMALL, model=state))
    assert main(["gradrep", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
    assert "state-dependent" in capsys.readouterr().err


def test_tails_rejects_too_few_paths_before_simulating(tmp_path, capsys, monkeypatch):
    # SMALL's 24 paths are fewer than 10 * tails.min_count = 50 samples for a tail curve
    monkeypatch.setattr(runner, "sample_batch_noise", lambda *a, **k: pytest.fail("simulated"))
    cfg = write_config(tmp_path, SMALL)
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "tails.min_count" in out.err and "24" in out.err


def test_density_pipeline(tmp_path, capsys):
    # state-dependent rates run in the batched engine like constant ones
    state = {"name": "two_regime_linear", "params": {"switch_rate": 3.0, "state_dependent": True}}
    for model in (SMALL["model"], state):
        payload = dict(SMALL, model=model, simulation=dict(SMALL["simulation"], n_paths=400))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / model["name"]
        code, report = run_cli(capsys, "density", "--config", cfg, "--out", str(out))
        assert code == 0
        assert abs(report["summary"]["grid_mass"] - 1.0) < 0.05
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "x,density,se"
        assert len(rows) == 257


@pytest.mark.parametrize(
    "model",
    [
        {"name": "two_regime_linear", "params": {"switch_rate": 3.0, "state_dependent": True}},
        {"name": "sin_bounded"},
    ],
    ids=lambda m: m["name"],
)
def test_bundle_size_does_not_change_results(tmp_path, capsys, monkeypatch, model):
    # one seed block per batch_flows call, or every block in one bundle:
    # each pipeline writes the same bytes
    payload = dict(
        SMALL,
        model=model,
        simulation={"horizon": 0.5, "n_steps": 32, "n_paths": 150},
        norris={"window": [0.125, 0.5]},
    )
    cfg = write_config(tmp_path, payload)
    commands = ("simulate", "flows", "tails", "density", "norris")
    runs = {}
    for label, budget, bundles in (("one", 0, 3), ("all", 2**62, 1)):
        monkeypatch.setattr(sde_core, "BUNDLE_BYTES", budget)
        assert len(sde_core.bundle_ranges(150, 32, 2, recorded=30)) == bundles
        for command in commands:
            out = tmp_path / label / command
            code, _ = run_cli(capsys, command, "--config", cfg, "--out", str(out))
            assert code in (0, 1)
            runs[label, command] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
            }
    for command in commands:
        assert runs["one", command] and runs["one", command] == runs["all", command], command


def test_norris_window_off_the_grid_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "norris_joint_probability", lambda *a, **k: pytest.fail("ran"))
    for window in ([0.0, 0.3], [0.25, 1.5]):
        payload = {"simulation": {"horizon": 1.0, "n_steps": 16, "n_paths": 8},
                   "norris": {"window": window}}
        out = tmp_path / "norris"
        assert main(["norris", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "norris.window" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_manifest_records_workers_used(tmp_path, capsys):
    # 70 paths are two seed blocks; 24 paths are one
    def used(command, n_paths, workers):
        payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=n_paths))
        out = tmp_path / f"{command}_{n_paths}_{workers}"
        code, _ = run_cli(
            capsys, command, "--config", write_config(tmp_path, payload),
            "--out", str(out), "--workers", str(workers),
        )
        assert code == 0
        return json.loads((out / "manifest.json").read_text())["workers_used"]

    assert used("simulate", 70, 2) == 2
    assert used("tails", 70, 8) == 2
    assert used("density", 24, 2) == 1
    assert used("flows", 70, 1) == 1
    # these run in one process whatever --workers asks for
    for command in ("norris", "hormander", "decompose-check"):
        assert used(command, 24, 2) == 1


def test_manifest_records_environment_and_peak_rss(tmp_path, capsys, monkeypatch):
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70))
    out = tmp_path / "sim"
    code, report = run_cli(
        capsys, "simulate", "--config", write_config(tmp_path, payload),
        "--out", str(out), "--workers", "2",
    )
    assert code == 0 and set(report) == {"command", "ok", "summary"}
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    scipy = sys.modules.get("scipy")  # imported by other test modules, not by simulate
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy is not None else None,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in runner.BLAS_THREAD_VARS},
        "workers_requested": 2,
        "workers_used": 2,
    }
    # this process's peak plus the largest worker's, each at least a Python interpreter
    assert manifest["peak_rss_mb"] > 20
    monkeypatch.setattr(runner, "resource", None)
    assert runner.peak_rss_mb() is None
    # scipy's version is the loaded module's, and None before any run loads it
    monkeypatch.setitem(sys.modules, "scipy", SimpleNamespace(__version__="9.9"))
    assert runner.environment(1, 1)["scipy"] == "9.9"
    monkeypatch.delitem(sys.modules, "scipy")
    assert runner.environment(1, 1)["scipy"] is None


OS_ERRORS = ("out_is_a_file", "out_under_a_file", "config_is_a_directory", "table_is_a_directory")


@pytest.mark.parametrize("case", OS_ERRORS)
def test_os_errors_are_usage_errors(tmp_path, capsys, case):
    # each of these once exited 1 with a traceback
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = write_config(tmp_path, SMALL)
    table = dict(SMALL, levy={"kind": "tabulated", "table": str(tmp_path)})
    argv = {
        "out_is_a_file": ["--config", cfg, "--out", str(afile)],
        "out_under_a_file": ["--config", cfg, "--out", str(afile / "run")],
        "config_is_a_directory": ["--config", str(tmp_path)],
        "table_is_a_directory": [
            "--config", write_config(tmp_path, table, "table.json"), "--out", str(tmp_path / "o")
        ],
    }[case]
    assert main(["simulate", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    if case == "table_is_a_directory":  # the message names the setting
        assert out.err.startswith(f"error: levy.table {str(tmp_path)!r}: ")


def test_manifest_lists_only_the_files_the_run_wrote(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "shared"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")

    def listed(command):
        code, _ = run_cli(capsys, command, "--config", cfg, "--out", str(out))
        assert code == 0
        return set(json.loads((out / "manifest.json").read_text())["files"])

    simulated = {"terminals.csv"} | {f"path_{k:04d}.csv" for k in range(3)}
    assert listed("simulate") == simulated
    assert listed("density") == {"density.csv"}
    # a second run lists every file it rewrote, although the bytes are the same
    assert listed("simulate") == simulated
    assert (out / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("name", runner.PIPELINES)
def test_cli_follows_the_registry(tmp_path, capsys, name):
    spec = runner.PIPELINES[name]
    with pytest.raises(SystemExit) as exit_:
        main([name, "--help"])
    assert exit_.value.code == 0
    assert spec.help in " ".join(capsys.readouterr().out.split())
    if spec.paths:
        assert build_parser().parse_args([name, "--paths", "5"]).paths == 5
    else:
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--paths", "5"])
    capsys.readouterr()
    # tails needs 10 * tails.min_count samples, more than SMALL's 24 paths
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70))
    out = tmp_path / name
    code, report = run_cli(capsys, name, "--config", write_config(tmp_path, payload), "--out", str(out))
    assert json.loads((out / "manifest.json").read_text())["command"] == name
    assert report["command"] == name
    assert report["ok"] == spec.verdict(report["summary"])
    assert code == (0 if report["ok"] else 1)
