"""Tests for the JSON configuration layer and the command-line pipelines.

The configuration round-trips exactly (parse -> to_dict -> parse), unknown
keys are rejected with dotted paths, and each pipeline writes a manifest
whose file digests are reproducible across worker counts.
"""

import contextlib
import io
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import ConfigError, RunConfig, norris_joint_probability, runner, sde_core
from switchsde.cli import build_parser, main
from switchsde.diagnostics import Verdict

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
    # a given kind must agree with whether a table is given, and a table takes no alpha
    if "kind" in d:
        d["kind"] = "tabulated" if d.get("table") is not None else "stable"
    if d.get("table") is not None:
        d.pop("alpha", None)
    return d


def _fit_norris(d):
    # amp and freq shape only the scaled_cos field
    if d.get("field_name") == "constant":
        for key in ("amp", "freq"):
            d.pop(key, None)
    return d


def _fit_simulation(d):
    # grid_step is drawn as a step count, so that it agrees with horizon and n_steps
    if "grid_step" in d:
        d["grid_step"] = d.get("horizon", 1.0) / d.get("n_steps", d["grid_step"])
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
        "threshold": _positive,
    }),
    "tails": _section({
        "n_thresholds": st.integers(3, 50),
        "q_top": st.floats(1e-6, 1.0),
        "min_count": st.integers(1, 50),
    }),
    "norris": _section({
        "window": _window, "regime": st.integers(1, 4), "direction": st.one_of(st.none(), _nonzero),
        "eps_grid": st.lists(_positive, min_size=2, max_size=5),
        "beta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "field_name": st.sampled_from(["scaled_cos", "constant"]), "amp": _number, "freq": _number,
    }, _fit_norris),
    "gradrep": _section({"eta": _positive, "weights": _floats}),
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
    # a new setting must be added to VALID_CONFIGS, and a deleted one removed, or this fails
    assert set(TOP_LEVEL) | set(SECTIONS) == {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    for name, (names, _) in SECTIONS.items():
        sec = getattr(defaults, name)
        assert {f.name for f in fields(sec)} | sec.inputs == names, name


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
    # a shipped config's clock is the kind its levy section names
    assert cfg.levy.build().kind == json.loads(path.read_text())["levy"].get("kind", "stable")


def test_unknown_keys_get_dotted_paths():
    with pytest.raises(ConfigError, match="'walltime' in the top level"):
        RunConfig.from_dict({"walltime": 60})
    with pytest.raises(ConfigError, match="'stepsize' in simulation"):
        RunConfig.from_dict({"simulation": {"stepsize": 0.1}})
    with pytest.raises(ConfigError, match="norris"):
        RunConfig.from_dict({"norris": {"epsilon": [0.1]}})
    # deleted settings: gradrep integrates the declared clock, hormander's model picks its brackets
    with pytest.raises(ConfigError, match="'truncate' in gradrep"):
        RunConfig.from_dict({"gradrep": {"truncate": True}})
    with pytest.raises(ConfigError, match="'mode' in hormander"):
        RunConfig.from_dict({"hormander": {"mode": "fd"}})
    # norris takes theta from its clock
    with pytest.raises(ConfigError, match="'theta' in norris"):
        RunConfig.from_dict({"norris": {"theta": 1.0}})


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
    # 70 paths are two seed blocks; gradrep's 2100 paths are two PATH_TILE tiles
    def paths(n, name):
        payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=n))
        return write_config(tmp_path, payload, name)

    two_blocks, two_tiles = paths(70, "blocks.json"), paths(2100, "tiles.json")
    files = {
        "simulate": (two_blocks, {"terminals.csv"} | {f"path_{k:04d}.csv" for k in range(3)}),
        "flows": (two_blocks, {"defect_profile.csv"}),
        "tails": (two_blocks, {"tail_curve.csv"}),
        "density": (two_blocks, {"density.csv"}),
        "norris": (two_blocks, {"norris_curve.csv"}),
        "gradrep": (two_tiles, {"gradrep.json"}),
    }
    for command, (cfg, written) in files.items():
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
            runs[workers] = (digests, manifest["summary"], manifest["workers_used"])
        assert runs[1][:2] == runs[2][:2] and runs[2][2] == 2
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
    manifest = json.loads((tmp_path / "h2" / "manifest.json").read_text())
    assert [(v["name"], v["holds"]) for v in manifest["verdicts"]] == [("kappa1", False)]


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


def test_decompose_check_fails_h3_on_every_table(tmp_path, capsys):
    # a table has no mass below its first point, so the H3 probe at eps = 1e-4
    # reads 0 and the verdict is tends_to_zero, although the u^-1.5 law it
    # tabulates satisfies H3; the split-rebuild KS test still passes
    u = np.geomspace(1e-4, 4.0, 400)
    table = tmp_path / "measure.csv"
    np.savetxt(table, np.column_stack([u, u**-1.5]), delimiter=",", header="u,density")
    payload = json.loads((ROOT / "configs" / "kalman.json").read_text())
    payload["levy"] = {"kind": "tabulated", "table": str(table)}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "dec"
    code, report = run_cli(
        capsys, "decompose-check", "--config", cfg, "--paths", "2000", "--out", str(out)
    )
    assert code == 1
    assert report["summary"]["h3_verdict"] == "tends_to_zero"
    assert report["summary"]["ks_pvalue"] >= 0.01
    detail = json.loads((out / "decomposition.json").read_text())
    assert detail["h3_values"][-1] == 0.0
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    assert {v["name"]: v["holds"] for v in verdicts} == {"ks_split": True, "h3_balance": False}


def _short_power_table(tmp_path):
    """The 50-point u^-1.5 table on (1e-4, 0.5): a clock with no mass above 1."""
    u = np.geomspace(1e-4, 0.5, 50)
    table = tmp_path / "short.csv"
    np.savetxt(table, np.column_stack([u, u**-1.5]), delimiter=",", header="u,density")
    return str(table)


def test_decompose_check_splits_a_clock_below_one_trivially(tmp_path, capsys):
    # no mass above the unit cutoff is a valid clock with lambda1 = 0, not a config error
    for name, levy in [
        ("stable", {"alpha": 1.0, "upper_cutoff": 0.5}),
        ("table", {"table": _short_power_table(tmp_path)}),
    ]:
        out = tmp_path / name
        cfg = write_config(tmp_path, dict(SMALL, levy=levy))
        code, _ = run_cli(capsys, "decompose-check", "--config", cfg, "--out", str(out))
        assert code in (0, 1)
        assert json.loads((out / "decomposition.json").read_text())["lambda1"] == 0
        assert sorted(p.name for p in out.iterdir()) == ["decomposition.json", "manifest.json"]


def test_a_table_config_is_a_tabulated_clock_with_or_without_kind(tmp_path, capsys):
    table = _short_power_table(tmp_path)
    sim = {"horizon": 1.0, "n_steps": 16, "n_paths": 256}
    terminals = []
    for levy in ({"table": table}, {"kind": "tabulated", "table": table}):
        out = tmp_path / f"sim{len(terminals)}"
        cfg = write_config(tmp_path, dict(SMALL, levy=levy, simulation=sim))
        assert run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))[0] == 0
        terminals.append((out / "terminals.csv").read_bytes())
    assert terminals[0] == terminals[1]
    # a kind that disagrees with the table is a config error
    out = tmp_path / "stable"
    cfg = write_config(tmp_path, dict(SMALL, levy={"kind": "stable", "table": table}))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "levy.kind" in capsys.readouterr().err
    assert not out.exists()


IGNORED_SETTINGS = {
    # a table fixes its own law, so alpha 1.9 would neither shape it nor raise beta's floor
    "alpha_beside_table": ({"levy": {"alpha": 1.9}, "norris": {"beta": 0.5}}, "levy.alpha"),
    # the constant field has no amplitude or frequency
    "amp_beside_constant": ({"norris": {"field_name": "constant", "amp": 5.0}}, "norris.amp"),
    "freq_beside_constant": ({"norris": {"field_name": "constant", "freq": 2.0}}, "norris.freq"),
}


@pytest.mark.parametrize("payload, where", IGNORED_SETTINGS.values(), ids=IGNORED_SETTINGS.keys())
def test_settings_that_the_clock_or_field_would_ignore_exit_2(tmp_path, capsys, payload, where):
    if "levy" in payload:
        payload = dict(payload, levy=dict(payload["levy"], table=_short_power_table(tmp_path)))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(SMALL, **payload))
    assert main(["norris", "--config", cfg, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_omitted_clock_and_field_settings_keep_their_values(tmp_path, capsys):
    # stored as null, they stand for alpha = 1 and the scaled_cos field's amp = 1, freq = 3
    cfg = RunConfig.from_dict({"levy": {"table": "absent.csv"}})
    assert cfg.levy.alpha is None and cfg.norris.amp is None and cfg.norris.freq is None
    assert RunConfig().levy.build() == RunConfig.from_dict({"levy": {"alpha": 1.0}}).levy.build()
    curves = []
    for norris in ({}, {"field_name": "scaled_cos", "amp": 1.0, "freq": 3.0}):
        out = tmp_path / f"n{len(curves)}"
        cfg = write_config(tmp_path, dict(SMALL, norris=norris))
        assert run_cli(capsys, "norris", "--config", cfg, "--out", str(out))[0] == 0
        curves.append((out / "norris_curve.csv").read_bytes())
    assert curves[0] == curves[1]


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
    # the alpha = 1.9 clock has theta 1.9, so beta must exceed 4 * 1.9 - 7 = 0.6
    "theta": ("norris", {"levy": {"alpha": 1.9}, "norris": {"beta": 0.5}}, "norris.beta"),
    "zero_direction": ("norris", {"norris": {"direction": [0, 0]}}, "norris.direction"),
    "long_direction": ("norris", {"norris": {"direction": [1, 0, 0]}}, "norris.direction"),
    "q_top": ("tails", {"tails": {"q_top": 2.0}}, "tails.q_top"),
    "odd_n_steps": (
        "gradrep", {"simulation": {"horizon": 0.5, "n_steps": 15, "n_paths": 24}}, "n_steps"
    ),
    # model.params of a type the builder cannot convert
    "text_x0": (
        "simulate", {"model": {"name": "kalman", "params": {"x0": ["a", "b"]}}}, "model.params"
    ),
    "text_sigma": (
        "simulate",
        {"model": {"name": "zero_drift", "params": {"sigma": [[1.0, "x"]]}}},
        "model.params",
    ),
    "ragged_mats": (
        "simulate", {"model": {"name": "linear", "params": {"mats": [[1, 2], [3]]}}}, "model.params"
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
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
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


def test_pipelines_run_without_scipy(tmp_path):
    # a fresh process in which importing scipy fails (this suite's process has
    # it) runs every pipeline on kalman.json, and decompose-check on a table,
    # which fails H3 by design (see test_decompose_check_fails_h3_on_every_table)
    u = np.geomspace(1e-4, 4.0, 400)
    table = tmp_path / "measure.csv"
    np.savetxt(table, np.column_stack([u, u**-1.5]), delimiter=",", header="u,density")
    kalman = ROOT / "configs" / "kalman.json"
    payload = json.loads(kalman.read_text())
    payload["levy"] = {"kind": "tabulated", "table": str(table)}
    outs = [tmp_path / name for name in runner.PIPELINES] + [tmp_path / "table"]
    argvs = [[name, "--config", str(kalman), "--out", str(out)]
             for name, out in zip(runner.PIPELINES, outs)]
    argvs.append(["decompose-check", "--config", write_config(tmp_path, payload),
                  "--paths", "2000", "--out", str(outs[-1])])
    script = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from switchsde.cli import main\n"
        "print([main(argv) for argv in json.loads(sys.argv[1])])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runner.PIPELINES) + [1]
    for out in outs:
        assert "scipy" not in json.loads((out / "manifest.json").read_text())["environment"]


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


def test_gradrep_runs_a_table_that_ends_below_the_unit_cutoff(tmp_path, capsys):
    payload = dict(
        SMALL,
        levy={"kind": "tabulated", "table": _short_power_table(tmp_path)},
        simulation={"horizon": 1.0, "n_steps": 16, "n_paths": 128},
    )
    cfg = write_config(tmp_path, payload)
    code, report = run_cli(capsys, "gradrep", "--config", cfg, "--out", str(tmp_path / "g"))
    assert code == 0 and report["summary"]["passes"]


def test_gradrep_integrates_the_declared_clock(tmp_path, capsys, monkeypatch):
    clocks, real = [], sde_core.map_bundles

    def spy(body, model, levy, *args):
        clocks.append(levy)
        return real(body, model, levy, *args)

    monkeypatch.setattr(sde_core, "map_bundles", spy)
    payload = dict(
        SMALL,
        levy={"alpha": 1.0, "upper_cutoff": None},
        simulation={"horizon": 1.0, "n_steps": 16, "n_paths": 128},
    )
    cfg = write_config(tmp_path, payload)
    code, _ = run_cli(capsys, "gradrep", "--config", cfg, "--out", str(tmp_path / "g"))
    assert code == 0
    assert clocks == [RunConfig.load(cfg).levy.build()]
    assert clocks[0].upper_cutoff is None


def test_tails_rejects_too_few_paths_before_simulating(tmp_path, capsys, monkeypatch):
    # SMALL's 24 paths are fewer than 10 * tails.min_count = 50 samples for a tail curve
    monkeypatch.setattr(sde_core, "map_bundles", lambda *a, **k: pytest.fail("simulated"))
    cfg = write_config(tmp_path, SMALL)
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "tails.min_count" in out.err and "24" in out.err


def test_density_rejects_one_path_before_simulating(tmp_path, capsys, monkeypatch):
    # a kernel density needs two samples
    monkeypatch.setattr(sde_core, "map_bundles", lambda *a, **k: pytest.fail("simulated"))
    cfg = write_config(tmp_path, SMALL)
    assert main(["density", "--config", cfg, "--paths", "1", "--out", str(tmp_path / "d")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "simulation.n_paths >= 2" in out.err


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


def test_norris_writes_the_library_curve(tmp_path, capsys):
    # the window integrals of the workers' bundles, reduced by the parent, are the
    # curve norris_joint_probability gives at the same seed, at one or two workers
    payload = dict(
        SMALL,
        model={"name": "two_regime_linear", "params": {"state_dependent": True}},
        simulation=dict(SMALL["simulation"], n_paths=70),
        norris={"window": [0.125, 0.375], "regime": 2, "amp": 6.0, "eps_grid": [0.3, 0.25, 0.2]},
    )
    cfg = RunConfig.from_dict(payload)
    model, levy, sim = cfg.model.build(), cfg.levy.build(), cfg.simulation
    params, fld = runner._norris_setup(cfg, model, levy)
    curve = norris_joint_probability(
        model, levy, sim.horizon, sim.n_steps, params, fld, sim.n_paths, cfg.seed
    )
    assert 0 < curve.counts.min() < curve.counts.max() < sim.n_paths
    for workers in (1, 2):
        out = tmp_path / f"norris_{workers}"
        code, stdout = run_cli(
            capsys, "norris", "--config", write_config(tmp_path, payload),
            "--out", str(out), "--workers", str(workers),
        )
        assert code in (0, 1) and stdout["summary"]["probs"] == curve.probs.tolist()
        cols = np.loadtxt(out / "norris_curve.csv", delimiter=",", skiprows=1, ndmin=2).T
        for col, ref in zip(cols, (curve.eps, curve.thresholds, curve.probs, curve.se, curve.counts)):
            assert col.tobytes() == ref.astype(float).tobytes()


def test_norris_window_off_the_grid_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sde_core, "map_bundles", lambda *a, **k: pytest.fail("ran"))
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
    assert used("norris", 70, 2) == 2
    assert used("gradrep", 2100, 2) == 2
    # these run in one process whatever --workers asks for
    for command in ("hormander", "decompose-check"):
        assert used(command, 24, 2) == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the wrapped write_csv reaches the workers only when they are forked",
)
def test_workers_write_their_own_path_files(tmp_path, capsys, monkeypatch):
    # two seed blocks on two workers: every path file is formatted where it was simulated
    log = tmp_path / "writes.log"
    write_csv = runner.write_csv

    def logged(path, header, columns):
        with log.open("a") as f:
            f.write(f"{os.getpid()} {Path(path).name}\n")
        write_csv(path, header, columns)

    monkeypatch.setattr(runner, "write_csv", logged)
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70),
                   output={"max_saved_paths": 70})
    out = tmp_path / "sim"
    code, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path, payload),
                      "--out", str(out), "--workers", "2")
    assert code == 0
    writes = [line.split() for line in log.read_text().splitlines()]
    path_writers = {int(pid) for pid, name in writes if name.startswith("path_")}
    assert len(path_writers) == 2 and os.getpid() not in path_writers
    assert [name for _, name in writes if not name.startswith("path_")] == ["terminals.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    paths = {f"path_{k:04d}.csv" for k in range(70)}
    assert set(manifest["files"]) == paths | {"terminals.csv"}
    assert {name for _, name in writes} == set(manifest["files"])


def test_a_worker_os_error_is_a_usage_error(tmp_path):
    # the second bundle's first path file cannot be written; a fresh process
    # also shows whatever the workers print
    payload = dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70),
                   output={"max_saved_paths": 70})
    out = tmp_path / "sim"
    (out / "path_0065.csv").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "switchsde.cli", "simulate", "--config",
         write_config(tmp_path, payload), "--out", str(out), "--workers", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "path_0065.csv" in proc.stderr


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
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in runner.BLAS_THREAD_VARS},
        "workers_requested": 2,
        "workers_used": 2,
    }
    # this process's peak plus the largest worker's, each at least a Python interpreter
    assert manifest["peak_rss_mb"] > 20
    monkeypatch.setattr(runner, "resource", None)
    assert runner.peak_rss_mb() is None


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


@pytest.fixture(scope="module")
def registry_runs(tmp_path_factory):
    """Each registered pipeline run once on SMALL: name -> (exit code, report, manifest)."""
    tmp = tmp_path_factory.mktemp("registry")
    # tails needs 10 * tails.min_count samples, more than SMALL's 24 paths
    cfg = write_config(tmp, dict(SMALL, simulation=dict(SMALL["simulation"], n_paths=70)))
    runs = {}
    for name in runner.PIPELINES:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = main([name, "--config", cfg, "--out", str(tmp / name)])
        manifest = json.loads((tmp / name / "manifest.json").read_text())
        runs[name] = code, json.loads(printed.getvalue()), manifest
    return runs


@pytest.mark.parametrize("name", runner.PIPELINES)
def test_cli_follows_the_registry(capsys, registry_runs, name):
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
    code, report, manifest = registry_runs[name]
    assert manifest["command"] == report["command"] == name
    assert report["ok"] == all(v["holds"] for v in manifest["verdicts"])
    assert code == (0 if report["ok"] else 1)
    assert all(set(v) == {f.name for f in fields(Verdict)} for v in manifest["verdicts"])
    assert (manifest["verdicts"] == []) == (name in ("simulate", "density"))


def test_readme_documents_every_verdict(registry_runs):
    # README's verdict table names exactly the verdicts that the pipelines emit
    emitted = [(name, v["name"]) for name, (_, _, m) in registry_runs.items() for v in m["verdicts"]]
    rows = re.findall(r"^\| `([\w-]+)` \| `(\w+)` \|", (ROOT / "README.md").read_text(), re.M)
    assert sorted(rows) == sorted(emitted)
