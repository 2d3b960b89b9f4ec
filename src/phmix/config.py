"""Run configuration: nested dataclass blocks, JSON (de)serialization and
validation.  The material and time-stepping blocks reuse the library's own
dataclasses, so constructing a config validates the physical parameters."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

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


@dataclass(frozen=True)
class RunConfig:
    """One run: geometry, materials, time stepping, scenario and output.

    quad_degree is the polynomial degree the Gauss rules integrate exactly,
    with (degree + 2) // 2 points per direction, and must lie in 2..9.  The
    Q1 mass and stiffness integrands have degree 2 per direction, so degree
    2 is exact for them; a higher degree only refines the quadrature of the
    nonlinear heat closure.  The default 3 uses 8 points per solid cell and
    9 uses 5 per direction, 125 per cell, about 16 times the default's
    points.  A larger value reads as a typo: at 40 (9,261 points per cell)
    the default run, 0.3 s at degree 3, had not finished after 60 s.
    """

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    heat: HeatMaterial = field(default_factory=lambda: HeatMaterial(
        rho=10.0, c=10.0, conductivity=5.0, t_ref=300.0))
    fluid: FluidMaterial = field(default_factory=lambda: FluidMaterial(
        r_gas=0.4, c_v=1.0, friction=0.1, phi_ref=1.0, s_ref=0.0,
        t_ref=300.0))
    sim: SimConfig = field(default_factory=lambda: SimConfig(
        dt=2.5e-4, t_end=5e-2, newton_tol=1e-12, newton_max_iters=40,
        output_every=20))
    scenario: str = "hot-wall-cooldown"
    seed: int = 0
    output_dir: str = "out"
    quad_degree: int = 3
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
        if not 2 <= self.quad_degree <= 9:
            raise ConfigurationError(
                f"quad_degree must be between 2 and 9, got {self.quad_degree}")


# JSON keys that differ from the dataclass field names, per section: "lambda"
# is friendlier than "conductivity"
_KEY_MAPS = {"heat": {"lambda": "conductivity"}}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # JSON as Python reads it has NaN and Infinity
    return _is_number(value) and math.isfinite(value)


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


def _block_from_dict(data: dict, section: str, base, key_map: dict):
    """Build a config block, overriding the defaults in `base` field by
    field."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"section {section!r} must be an object")
    cls = type(base)
    kwargs = {f.name: getattr(base, f.name) for f in fields(cls)}
    for key, value in data.items():
        name = key_map.get(key, key)
        if name not in kwargs:
            raise ConfigurationError(
                f"unknown key {section}.{key} (valid: "
                f"{', '.join(sorted(kwargs))})")
        _check_type(f"{section}.{key}", value, kwargs[name])
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (MaterialError, ConfigurationError) as exc:
        raise ConfigurationError(f"section {section!r}: {exc}") from exc
    except (TypeError, ValueError) as exc:
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
            kwargs[name] = _block_from_dict(data[name], name, default,
                                            _KEY_MAPS.get(name, {}))
        else:
            _check_type(name, data[name], default)
            kwargs[name] = data[name]
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc


def config_to_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    for section, key_map in _KEY_MAPS.items():
        json_key = {name: key for key, name in key_map.items()}
        out[section] = {json_key.get(k, k): v for k, v in out[section].items()}
    return out


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
    return config_from_dict(data)


def default_config(**overrides) -> RunConfig:
    return config_from_dict(overrides) if overrides else RunConfig()
