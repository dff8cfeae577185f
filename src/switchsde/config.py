"""JSON run configuration.

One file drives every CLI subcommand.  Parsing is strict: unknown keys are
rejected with their dotted path, values are type-checked, and a parsed
configuration serializes back to the exact dictionary it came from, so run
manifests can embed the configuration verbatim.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .levy_noise import LevyMeasureSpec, load_tabulated_csv
from .models import MODEL_BUILDERS, ModelSpec, make_model


def _reject_unknown(d: dict, allowed, where: str):
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r} in {where}")


def _is_number(v) -> bool:
    """A finite JSON number; booleans, NaN, infinities and huge integers are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _number(d, key, where, default, positive=False, allow_none=False):
    if key not in d:
        return default
    v = d[key]
    if v is None and allow_none:
        return None
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a finite number")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive")
    return float(v)


def _number_list(values, where, positive=False) -> list:
    if not all(_is_number(v) and (v > 0 or not positive) for v in values):
        raise ConfigError(f"{where} entries must be {'positive ' * positive}finite numbers")
    return [float(v) for v in values]


def _integer(d, key, where, default, minimum=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be at least {minimum}")
    return v


def _string(d, key, where, default, choices=None):
    if key not in d:
        return default
    v = d[key]
    if v is None and default is None:
        return None
    if not isinstance(v, str):
        raise ConfigError(f"{where}.{key} must be a string")
    if choices is not None and v not in choices:
        raise ConfigError(f"{where}.{key} must be one of {sorted(choices)}")
    return v


@dataclass
class ModelConfig:
    name: str = "kalman"
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        _reject_unknown(d, {"name", "params"}, "model")
        name = _string(d, "name", "model", "kalman", choices=set(MODEL_BUILDERS))
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("model.params must be an object")
        try:
            inspect.signature(MODEL_BUILDERS[name]).bind(**params)
        except TypeError as e:
            raise ConfigError(f"model.params do not fit model {name!r}: {e}") from e
        return cls(name=name, params=params)

    def build(self) -> ModelSpec:
        return make_model(self.name, **self.params)


@dataclass
class LevyConfig:
    kind: str = "stable"
    alpha: float = 1.0
    small_jump_cutoff: float = 1e-4
    upper_cutoff: float | None = None
    table: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "LevyConfig":
        _reject_unknown(
            d, {"kind", "alpha", "small_jump_cutoff", "upper_cutoff", "table"}, "levy"
        )
        kind = _string(d, "kind", "levy", "stable", choices={"stable", "tabulated"})
        alpha = _number(d, "alpha", "levy", 1.0, positive=True)
        if kind == "tabulated" and not d.get("table"):
            raise ConfigError("levy.table is required when levy.kind is 'tabulated'")
        return cls(
            kind=kind,
            alpha=alpha,
            small_jump_cutoff=_number(d, "small_jump_cutoff", "levy", 1e-4, positive=True),
            upper_cutoff=_number(d, "upper_cutoff", "levy", None, positive=True, allow_none=True),
            table=_string(d, "table", "levy", None),
        )

    def build(self) -> LevyMeasureSpec:
        if self.kind == "tabulated":
            spec = load_tabulated_csv(self.table)
            if self.upper_cutoff is not None:
                from dataclasses import replace

                spec = replace(spec, upper_cutoff=self.upper_cutoff)
            return spec
        return LevyMeasureSpec(
            kind="stable",
            alpha=self.alpha,
            small_jump_cutoff=self.small_jump_cutoff,
            upper_cutoff=self.upper_cutoff,
        )


@dataclass
class SimulationConfig:
    """The time grid: n_steps steps of length grid_step = horizon / n_steps.

    A config may give grid_step instead of n_steps, or both when they agree
    with the horizon; only n_steps is stored.
    """

    horizon: float = 1.0
    n_steps: int = 512
    n_paths: int = 256

    @property
    def grid_step(self) -> float:
        return self.horizon / self.n_steps

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        _reject_unknown(d, {"horizon", "grid_step", "n_steps", "n_paths"}, "simulation")
        horizon = _number(d, "horizon", "simulation", 1.0, positive=True)
        grid_step = _number(d, "grid_step", "simulation", None, positive=True)
        n_steps = _integer(d, "n_steps", "simulation", None, minimum=1)
        if n_steps is None and grid_step is not None:
            # capped so that a vanishing grid_step fails the check below, not round()
            n_steps = max(1, round(min(horizon / grid_step, 2.0**62)))
        n_steps = n_steps or 512
        if grid_step is not None and not math.isclose(grid_step * n_steps, horizon, rel_tol=1e-9):
            raise ConfigError(
                f"simulation.grid_step ({grid_step!r}) times simulation.n_steps ({n_steps}) "
                f"must equal simulation.horizon ({horizon!r})"
            )
        return cls(
            horizon=horizon,
            n_steps=n_steps,
            n_paths=_integer(d, "n_paths", "simulation", 256, minimum=1),
        )


@dataclass
class OutputConfig:
    dir: str = "out"
    save_paths: bool = True
    max_saved_paths: int = 16

    @classmethod
    def from_dict(cls, d: dict) -> "OutputConfig":
        _reject_unknown(d, {"dir", "save_paths", "max_saved_paths"}, "output")
        save = d.get("save_paths", True)
        if not isinstance(save, bool):
            raise ConfigError("output.save_paths must be a boolean")
        return cls(
            dir=_string(d, "dir", "output", "out"),
            save_paths=save,
            max_saved_paths=_integer(d, "max_saved_paths", "output", 16, minimum=0),
        )


@dataclass
class HormanderConfig:
    depth: int = 3
    radius: float = 1.0
    n_samples: int = 64
    mode: str = "auto"
    threshold: float = 1e-8

    @classmethod
    def from_dict(cls, d: dict) -> "HormanderConfig":
        _reject_unknown(d, {"depth", "radius", "n_samples", "mode", "threshold"}, "hormander")
        return cls(
            depth=_integer(d, "depth", "hormander", 3, minimum=1),
            radius=_number(d, "radius", "hormander", 1.0, positive=True),
            n_samples=_integer(d, "n_samples", "hormander", 64, minimum=1),
            mode=_string(d, "mode", "hormander", "auto", choices={"auto", "analytic", "fd"}),
            threshold=_number(d, "threshold", "hormander", 1e-8, positive=True),
        )


@dataclass
class TailsConfig:
    n_thresholds: int = 10
    q_top: float = 0.25
    min_count: int = 5

    @classmethod
    def from_dict(cls, d: dict) -> "TailsConfig":
        _reject_unknown(d, {"n_thresholds", "q_top", "min_count"}, "tails")
        return cls(
            n_thresholds=_integer(d, "n_thresholds", "tails", 10, minimum=3),
            q_top=_number(d, "q_top", "tails", 0.25, positive=True),
            min_count=_integer(d, "min_count", "tails", 5, minimum=1),
        )


@dataclass
class NorrisConfig:
    window: list = field(default_factory=lambda: [0.0, 0.5])
    regime: int = 1
    direction: list | None = None
    eps_grid: list = field(default_factory=lambda: [0.03, 0.01, 0.003, 0.001])
    beta: float = 0.5
    theta: float = 1.0
    field_name: str = "scaled_cos"
    amp: float = 1.0
    freq: float = 3.0

    @classmethod
    def from_dict(cls, d: dict) -> "NorrisConfig":
        _reject_unknown(
            d,
            {"window", "regime", "direction", "eps_grid", "beta", "theta", "field_name", "amp", "freq"},
            "norris",
        )
        window = d.get("window", [0.0, 0.5])
        if not (isinstance(window, list) and len(window) == 2):
            raise ConfigError("norris.window must be a [t1, t2] pair")
        window = _number_list(window, "norris.window")
        if not 0 <= window[0] < window[1]:
            raise ConfigError("norris.window must satisfy 0 <= t1 < t2")
        eps = d.get("eps_grid", [0.03, 0.01, 0.003, 0.001])
        if not (isinstance(eps, list) and len(eps) >= 2):
            raise ConfigError("norris.eps_grid must list at least two levels")
        direction = d.get("direction")
        if direction is not None:
            if not isinstance(direction, list):
                raise ConfigError("norris.direction must be a list of coordinates")
            _number_list(direction, "norris.direction")
        return cls(
            window=window,
            regime=_integer(d, "regime", "norris", 1, minimum=1),
            direction=direction,
            eps_grid=_number_list(eps, "norris.eps_grid", positive=True),
            beta=_number(d, "beta", "norris", 0.5, positive=True),
            theta=_number(d, "theta", "norris", 1.0, positive=True),
            field_name=_string(d, "field_name", "norris", "scaled_cos", choices={"scaled_cos", "constant"}),
            amp=_number(d, "amp", "norris", 1.0),
            freq=_number(d, "freq", "norris", 3.0),
        )


@dataclass
class GradRepConfig:
    eta: float = 1e-3
    weights: list = field(default_factory=lambda: [1.0, 0.7])
    truncate: bool = True
    chunk: int = 20000

    @classmethod
    def from_dict(cls, d: dict) -> "GradRepConfig":
        _reject_unknown(d, {"eta", "weights", "truncate", "chunk"}, "gradrep")
        weights = d.get("weights", [1.0, 0.7])
        if not isinstance(weights, list):
            raise ConfigError("gradrep.weights must be a list")
        truncate = d.get("truncate", True)
        if not isinstance(truncate, bool):
            raise ConfigError("gradrep.truncate must be a boolean")
        return cls(
            eta=_number(d, "eta", "gradrep", 1e-3, positive=True),
            weights=_number_list(weights, "gradrep.weights"),
            truncate=truncate,
            chunk=_integer(d, "chunk", "gradrep", 20000, minimum=1),
        )


@dataclass
class DensityConfig:
    component: int = 0
    n_grid: int = 256
    bandwidth: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "DensityConfig":
        _reject_unknown(d, {"component", "n_grid", "bandwidth"}, "density")
        return cls(
            component=_integer(d, "component", "density", 0, minimum=0),
            n_grid=_integer(d, "n_grid", "density", 256, minimum=8),
            bandwidth=_number(d, "bandwidth", "density", None, positive=True, allow_none=True),
        )


_SECTIONS = {
    "model": ModelConfig,
    "levy": LevyConfig,
    "simulation": SimulationConfig,
    "output": OutputConfig,
    "hormander": HormanderConfig,
    "tails": TailsConfig,
    "norris": NorrisConfig,
    "gradrep": GradRepConfig,
    "density": DensityConfig,
}


@dataclass
class RunConfig:
    seed: int = 0
    workers: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)
    levy: LevyConfig = field(default_factory=LevyConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    hormander: HormanderConfig = field(default_factory=HormanderConfig)
    tails: TailsConfig = field(default_factory=TailsConfig)
    norris: NorrisConfig = field(default_factory=NorrisConfig)
    gradrep: GradRepConfig = field(default_factory=GradRepConfig)
    density: DensityConfig = field(default_factory=DensityConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("configuration root must be an object")
        _reject_unknown(d, {"seed", "workers", *_SECTIONS}, "the top level")
        kwargs = {
            "seed": _integer(d, "seed", "top level", 0, minimum=0),
            "workers": _integer(d, "workers", "top level", 1, minimum=1),
        }
        for name, section in _SECTIONS.items():
            raw = d.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigError(f"section {name!r} must be an object")
            kwargs[name] = section.from_dict(raw)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"configuration is not valid JSON: {e}") from e
        return cls.from_dict(raw)

    def save(self, path) -> None:
        Path(path).write_text(self.canonical_json() + "\n")
