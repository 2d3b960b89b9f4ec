"""Run configuration: nested dataclass blocks, JSON (de)serialization and
validation.  The JSON keys are the dataclass fields, with no alias, and the
material and time-stepping blocks are the library's own dataclasses, so
constructing a config validates the physical parameters."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import ConfigurationError, MaterialError
from .fluid import FluidMaterial
from .heat import HeatMaterial
from .simulate import SCENARIOS, SimConfig


@dataclass(frozen=True)
class GeometryConfig:
    a: float = 0.0
    b: float = 1.0
    circumference: float = 0.5
    depth: float = 0.05
    n_ax: int = 16
    n_az: int = 8
    n_th: int = 4
    n_fluid: int = 16

    def __post_init__(self):
        # every mesh lays its nodes out in index arrays, the solid box
        # the most of them
        limit = np.iinfo(np.intp).max
        for name in ("n_ax", "n_az", "n_th", "n_fluid"):
            count = getattr(self, name)
            if count >= limit:
                raise ConfigurationError(
                    f"{name} = {count} cells: the node count must fit "
                    f"np.intp (at most {limit})")
        nodes = (self.n_ax + 1) * self.n_az * (self.n_th + 1)
        if nodes > limit:
            raise ConfigurationError(
                f"geometry {self.n_ax}x{self.n_az}x{self.n_th}: the solid's "
                f"{nodes} nodes must fit np.intp (at most {limit})")


@dataclass(frozen=True)
class RunConfig:
    """One run: geometry, materials, time stepping and scenario.  The
    output directory is the command line's."""

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    heat: HeatMaterial = field(default_factory=lambda: HeatMaterial(
        rho=10.0, c=10.0, conductivity=5.0, t_ref=300.0))
    fluid: FluidMaterial = field(default_factory=lambda: FluidMaterial(
        r_gas=0.4, c_v=1.0, friction=0.1, t_ref=300.0))
    sim: SimConfig = SimConfig(dt=2.5e-4, t_end=5e-2)
    scenario: str = "hot-wall-cooldown"
    seed: int = 0
    scenario_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; valid: "
                f"{', '.join(SCENARIOS)}")
        if self.geometry.n_ax != self.geometry.n_fluid:
            raise ConfigurationError(
                f"geometry.n_ax ({self.geometry.n_ax}) must equal "
                f"geometry.n_fluid ({self.geometry.n_fluid}): the solid axial "
                f"mesh and the channel mesh must coincide node-for-node")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def _is_finite_number(value) -> bool:
    # JSON as Python reads it has NaN, Infinity and integers past the float
    # range
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_type(key: str, value, default) -> None:
    """Reject a value whose type does not fit the default's: an int field
    takes an int but not a bool, a float field a finite int or float, and
    scenario_params an object of finite numbers."""
    if isinstance(default, dict):
        kind = "an object of finite numbers"
        ok = isinstance(value, dict) and \
            all(map(_is_finite_number, value.values()))
    elif isinstance(default, float):
        kind, ok = "a finite number", _is_finite_number(value)
    elif isinstance(default, int):
        kind = "an integer"
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise ConfigurationError(f"{key} must be {kind}, got {value!r}")


def _block_from_dict(data: dict, section: str, base):
    """Build a config block, overriding the defaults in `base` field by
    field."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"section {section!r} must be an object")
    cls = type(base)
    kwargs = {f.name: getattr(base, f.name) for f in fields(cls)}
    for key, value in data.items():
        if key not in kwargs:
            raise ConfigurationError(
                f"unknown key {section}.{key} (valid: "
                f"{', '.join(sorted(kwargs))})")
        _check_type(f"{section}.{key}", value, kwargs[key])
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (MaterialError, ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"section {section!r}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a (possibly partial) nested dict; unknown
    keys are rejected with the offending path.  The sections are
    RunConfig's fields: a dataclass field is a block of keys, any other a
    single value."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    names = [f.name for f in fields(RunConfig)]
    for key in data:
        if key not in names:
            raise ConfigurationError(
                f"unknown top-level key {key!r} (valid: {', '.join(names)})")
    base = RunConfig()
    kwargs = {}
    for name in (name for name in names if name in data):
        default = getattr(base, name)
        if is_dataclass(default):
            kwargs[name] = _block_from_dict(data[name], name, default)
        else:
            _check_type(name, data[name], default)
            kwargs[name] = data[name]
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON form of a config: its dataclass fields, key for key."""
    return asdict(cfg)


def load_config(path) -> RunConfig:
    """Read a JSON config file; parse errors carry line/column."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # an integer literal past Python's digit limit for int conversion
        raise ConfigurationError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def default_config(**overrides) -> RunConfig:
    return config_from_dict(overrides)
