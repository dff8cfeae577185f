"""JSON run configuration.

One file drives every CLI subcommand.  Each setting is declared once, as a
dataclass field built by ``setting``, which carries its default and the rule
its values must meet; parsing is derived from those declarations.  Parsing is
strict: unknown keys are rejected with their dotted path, values are
type-checked, and a parsed configuration serializes back to the exact
dictionary it came from, so run manifests can embed the configuration
verbatim.  Rules that tie several fields of a section together live in that
section's ``check``.
"""

import functools
import inspect
import json
import math
import types
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, DataError, SpecError
from .levy_noise import LevyMeasureSpec, load_tabulated_csv
from .models import MODEL_BUILDERS, ModelSpec, make_model


def setting(default=None, **rule):
    """A config field with its default and its rule.

    Rule keys: positive, minimum, at_most, choices, and length=(lo, hi) for
    lists (hi None for no upper bound).  The field's type hint gives its type.
    """
    if isinstance(default, (list, dict)):
        return field(default_factory=default.copy, metadata=rule)
    return field(default=default, metadata=rule)


class _Section:
    inputs = frozenset()  # keys a config may give that are checked but not stored

    def check(self, raw: dict) -> None:
        """Rules across fields, run once every field passed its own rule."""


def section(cls):
    """Make cls a dataclass and resolve each field's type hint once, for parsing."""
    cls = dataclass(cls)
    schema = {}
    for f in fields(cls):
        tp, optional = f.type, isinstance(f.type, types.UnionType)
        if optional:
            (tp,) = (a for a in tp.__args__ if a is not type(None))
        schema[f.name] = (getattr(tp, "__origin__", tp), optional, dict(f.metadata))
    cls._schema = schema
    return cls


def _parse(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'configuration root'} must be an object")
    schema = cls._schema
    extra = sorted(raw.keys() - schema.keys() - cls.inputs)
    if extra:
        raise ConfigError(f"unknown key {extra[0]!r} in {where or 'the top level'}")
    prefix = f"{where}." if where else ""
    obj = cls(**{k: _value(raw[k], *schema[k], prefix + k) for k in raw if k in schema})
    obj.check(raw)
    return obj


def _is_number(v) -> bool:
    """A finite JSON number; booleans, NaN, infinities and huge integers are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


_KINDS = {str: "a string", bool: "a boolean", dict: "an object"}


def _value(v, tp, optional, rule, where):
    if v is None and optional:
        return None
    positive = rule.get("positive", False)
    if tp is float:
        if not _is_number(v):
            raise ConfigError(f"{where} must be a finite number")
        v = float(v)
    elif tp is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{where} must be an integer")
    elif tp is list:
        lo, hi = rule.get("length", (0, None))
        if not isinstance(v, list) or len(v) < lo or (hi is not None and len(v) > hi):
            size = f"{lo} " if lo == hi else f"at least {lo} " if lo else ""
            raise ConfigError(f"{where} must be a list of {size}numbers")
        if not all(_is_number(x) and (x > 0 or not positive) for x in v):
            raise ConfigError(f"{where} entries must be {'positive ' * positive}finite numbers")
        return [float(x) for x in v]
    elif tp in _KINDS:
        if not isinstance(v, tp):
            raise ConfigError(f"{where} must be {_KINDS[tp]}")
    else:
        return _parse(tp, v, where)
    if not rule:
        return v
    if positive and v <= 0:
        raise ConfigError(f"{where} must be positive")
    if "minimum" in rule and v < rule["minimum"]:
        raise ConfigError(f"{where} must be at least {rule['minimum']}")
    if "at_most" in rule and v > rule["at_most"]:
        raise ConfigError(f"{where} must be at most {rule['at_most']}")
    if "choices" in rule and v not in rule["choices"]:
        raise ConfigError(f"{where} must be one of {sorted(rule['choices'])}")
    return v


@functools.cache
def _builder_signature(name: str) -> inspect.Signature:
    return inspect.signature(MODEL_BUILDERS[name])


@section
class ModelConfig(_Section):
    name: str = setting("kalman", choices=MODEL_BUILDERS)
    params: dict = setting({})

    def check(self, raw):
        try:
            _builder_signature(self.name).bind(**self.params)
        except TypeError as e:
            raise ConfigError(f"model.params do not fit model {self.name!r}: {e}") from e

    def build(self) -> ModelSpec:
        # looked up as a module global, so perfbench's tracer can wrap it
        return make_model(self.name, **self.params)


@section
class LevyConfig(_Section):
    kind: str = setting("stable", choices=("stable", "tabulated"))
    alpha: float = setting(1.0, positive=True)
    small_jump_cutoff: float = setting(1e-4, positive=True)
    upper_cutoff: float | None = setting(positive=True)
    table: str | None = setting()

    def check(self, raw):
        if self.kind == "tabulated" and not self.table:
            raise ConfigError("levy.table is required when levy.kind is 'tabulated'")

    def build(self) -> LevyMeasureSpec:
        cutoffs = dict(small_jump_cutoff=self.small_jump_cutoff, upper_cutoff=self.upper_cutoff)
        if self.kind == "tabulated":
            try:
                table = load_tabulated_csv(self.table)
            except (DataError, SpecError) as e:
                raise ConfigError(f"levy.table {self.table!r}: {e}") from e
            except OSError as e:  # a directory, a missing file, no permission
                raise ConfigError(f"levy.table {self.table!r}: {e.strerror or e}") from e
            return replace(table, **cutoffs)
        return LevyMeasureSpec(kind="stable", alpha=self.alpha, **cutoffs)


@section
class SimulationConfig(_Section):
    """The time grid: n_steps steps of length grid_step = horizon / n_steps.

    A config may give grid_step instead of n_steps, or both when they agree
    with the horizon; only n_steps is stored.
    """

    horizon: float = setting(1.0, positive=True)
    n_steps: int = setting(512, minimum=1)
    n_paths: int = setting(256, minimum=1)
    inputs = frozenset({"grid_step"})

    @property
    def grid_step(self) -> float:
        return self.horizon / self.n_steps

    def check(self, raw):
        if "grid_step" not in raw:
            return
        step = _value(raw["grid_step"], float, False, {"positive": True}, "simulation.grid_step")
        if "n_steps" not in raw:
            # capped so that a vanishing grid_step fails the check below, not round()
            self.n_steps = max(1, round(min(self.horizon / step, 2.0**62)))
        if not math.isclose(step * self.n_steps, self.horizon, rel_tol=1e-9):
            raise ConfigError(
                f"simulation.grid_step ({step!r}) times simulation.n_steps ({self.n_steps}) "
                f"must equal simulation.horizon ({self.horizon!r})"
            )


@section
class OutputConfig(_Section):
    dir: str = setting("out")
    save_paths: bool = setting(True)
    max_saved_paths: int = setting(16, minimum=0)


@section
class HormanderConfig(_Section):
    depth: int = setting(3, minimum=1)
    radius: float = setting(1.0, positive=True)
    n_samples: int = setting(64, minimum=1)
    mode: str = setting("auto", choices=("auto", "analytic", "fd"))
    threshold: float = setting(1e-8, positive=True)


@section
class TailsConfig(_Section):
    n_thresholds: int = setting(10, minimum=3)
    q_top: float = setting(0.25, positive=True, at_most=1.0)
    min_count: int = setting(5, minimum=1)


@section
class NorrisConfig(_Section):
    window: list[float] = setting([0.0, 0.5], length=(2, 2))
    regime: int = setting(1, minimum=1)
    direction: list[float] | None = setting()
    eps_grid: list[float] = setting([0.03, 0.01, 0.003, 0.001], positive=True, length=(2, None))
    beta: float = setting(0.5)
    theta: float = setting(1.0, positive=True)
    field_name: str = setting("scaled_cos", choices=("scaled_cos", "constant"))
    amp: float = setting(1.0)
    freq: float = setting(3.0)

    def check(self, raw):
        if not 0 <= self.window[0] < self.window[1]:
            raise ConfigError("norris.window must satisfy 0 <= t1 < t2")
        if self.direction is not None and not any(self.direction):
            raise ConfigError("norris.direction must be a nonzero vector")
        lo = max(0.0, 4.0 * self.theta - 7.0)
        if not lo < self.beta < 1.0:
            raise ConfigError(
                f"norris.beta must lie in ({lo!r}, 1) for norris.theta = {self.theta!r}"
            )


@section
class GradRepConfig(_Section):
    eta: float = setting(1e-3, positive=True)
    weights: list[float] = setting([1.0, 0.7])
    truncate: bool = setting(True)


@section
class DensityConfig(_Section):
    component: int = setting(0, minimum=0)
    n_grid: int = setting(256, minimum=8)
    bandwidth: float | None = setting(positive=True)


@section
class RunConfig(_Section):
    seed: int = setting(0, minimum=0)
    workers: int = setting(1, minimum=1)
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
        """Parse a raw config; defined here, not inherited, so perfbench's tracer can wrap it."""
        return _parse(cls, d, "")

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    def save(self, path) -> None:
        Path(path).write_text(self.canonical_json() + "\n")


def read_json(path):
    """The raw JSON value of a config file, before any parsing."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"configuration is not valid JSON: {e}") from e
