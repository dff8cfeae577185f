"""Tests for the JSON configuration layer and the command-line pipelines.

The configuration round-trips exactly (parse -> to_dict -> parse), unknown
keys are rejected with dotted paths, and each pipeline writes a manifest
whose file digests are reproducible across worker counts.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import ConfigError, RunConfig, runner, sde_core
from switchsde.cli import main

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


def _section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def _simulation(draw):
    """horizon, grid_step and n_steps that agree; any of them may be left out."""
    keep = draw(st.sets(st.sampled_from(["horizon", "grid_step", "n_steps", "n_paths"])))
    horizon = draw(_positive) if "horizon" in keep else 1.0
    n_steps = draw(st.integers(1, 10**6))
    sim = {
        "horizon": horizon,
        "grid_step": horizon / n_steps,
        "n_steps": n_steps,
        "n_paths": draw(st.integers(1, 10**6)),
    }
    return {k: v for k, v in sim.items() if k in keep}


_window = st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(lambda t: [t[0], t[0] + t[1]])

VALID_CONFIGS = _section(
    seed=st.integers(0, 2**32),
    workers=st.integers(1, 64),
    model=st.sampled_from([
        {"name": "kalman"},
        {"name": "zero_drift", "params": {"n": 3, "d": 1}},
        {"name": "linear", "params": {"mats": [[0.0, 1.0], [-1.0, 0.0]]}},
        {"name": "sin_bounded", "params": {"amp": [0.5], "freq": [2.0]}},
        {"name": "two_regime_linear", "params": {"switch_rate": 2.0, "state_dependent": True}},
    ]),
    levy=st.one_of(
        _section(
            kind=st.just("stable"),
            alpha=_positive,
            small_jump_cutoff=_positive,
            upper_cutoff=st.one_of(st.none(), _positive),
        ),
        st.fixed_dictionaries({"kind": st.just("tabulated"), "table": st.text(min_size=1)}),
    ),
    simulation=_simulation(),
    output=_section(dir=st.text(), save_paths=st.booleans(), max_saved_paths=st.integers(0, 100)),
    hormander=_section(
        depth=st.integers(1, 6), radius=_positive, n_samples=st.integers(1, 10**4),
        mode=st.sampled_from(["auto", "analytic", "fd"]), threshold=_positive,
    ),
    tails=_section(n_thresholds=st.integers(3, 50), q_top=_positive, min_count=st.integers(1, 50)),
    norris=_section(
        window=_window, regime=st.integers(1, 4), direction=st.one_of(st.none(), _floats),
        eps_grid=st.lists(_positive, min_size=2, max_size=5), beta=_positive, theta=_positive,
        field_name=st.sampled_from(["scaled_cos", "constant"]), amp=_number, freq=_number,
    ),
    gradrep=_section(
        eta=_positive, weights=_floats, truncate=st.booleans(), chunk=st.integers(1, 10**6)
    ),
    density=_section(
        component=st.integers(0, 5), n_grid=st.integers(8, 4096),
        bandwidth=st.one_of(st.none(), _positive),
    ),
)


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


def test_model_and_levy_builders():
    cfg = RunConfig.from_dict(SMALL)
    model = cfg.model.build()
    assert model.name == "kalman" and model.n == 2
    levy = cfg.levy.build()
    assert levy.alpha == 1.0 and levy.upper_cutoff == 4.0


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


def test_gradrep_rejects_state_dependent_rates_before_simulating(tmp_path, capsys, monkeypatch):
    # shifted starts share each path's noise, so a state-dependent switch is undefined
    monkeypatch.setattr(
        runner, "gradient_representation_check", lambda *a, **k: pytest.fail("simulated")
    )
    state = {"name": "two_regime_linear", "params": {"state_dependent": True}}
    cfg = write_config(tmp_path, dict(SMALL, model=state))
    assert main(["gradrep", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
    assert "state-dependent" in capsys.readouterr().err


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
