"""Config-file schema: INI sections per module, validated with defaults.

One file drives every command; flags override file values.  Unknown
sections or keys are rejected with a suggestion, malformed values report
the key, and constraint violations name the constraint.

Each section is a field of :class:`RunSettings` holding a frozen
dataclass, and each field of that dataclass is one INI key, declared
nowhere else: the field's type picks the parser (``float``, ``int``,
``str``, ``tuple[float, float, float]``, ``FieldVector``, or ``X | None``,
where an empty value means None), its default is the documented default,
and the dataclass's ``__post_init__`` holds its checks.  A nested
dataclass field (``odmr``, ``lia``) adds its own keys to the section, and
``field(metadata={"ini": name})`` names a key that differs from its field.
"""

from __future__ import annotations

import configparser
import dataclasses
import difflib
import functools
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigParseError, ConfigValidationError
from .geometry import FieldVector, OrientationBasis, default_basis
from .params import (
    GAMMA_NV,
    GAMMA_RB,
    LiaParams,
    OdmrParams,
)
from .simulation import SimConfig, SpatialScanConfig


def _require_direction(v, name: str) -> None:
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{name} must be nonzero, with a finite norm")


@dataclass(frozen=True)
class MeasurementSettings:
    gamma_nv: float = GAMMA_NV
    gamma_rb: float = GAMMA_RB
    odmr: OdmrParams = field(default_factory=OdmrParams)
    lia: LiaParams = field(default_factory=LiaParams)
    bias_field: float = 30.0
    bias_direction: tuple[float, float, float] = (2.0, 1.0, 0.0)

    def __post_init__(self):
        if self.gamma_nv <= 0:
            raise ValueError("gamma_nv must be positive")
        if self.gamma_rb <= 0:
            raise ValueError("gamma_rb must be positive")
        _require_direction(self.bias_direction, "bias_direction")


@dataclass(frozen=True)
class GeometrySettings:
    """Custom NV axis directions: all four, or none for the default basis."""

    axis_a: tuple[float, float, float] | None = None
    axis_b: tuple[float, float, float] | None = None
    axis_c: tuple[float, float, float] | None = None
    axis_d: tuple[float, float, float] | None = None

    def __post_init__(self):
        missing = [f.name for f in dataclasses.fields(self) if getattr(self, f.name) is None]
        if 0 < len(missing) < 4:
            raise ValueError(f"[geometry] requires all four axes; missing {missing}")
        for f in dataclasses.fields(self):
            if f.name not in missing:
                _require_direction(getattr(self, f.name), f"[geometry] {f.name}")


@dataclass(frozen=True)
class AngularSettings:
    grid_min: float = -1.5
    grid_max: float = 1.5
    grid_points: int = 41
    sigma: float = 0.1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("angular sigma must be positive")
        if self.grid_points < 2:
            raise ValueError("angular grid_points must be >= 2")
        if not self.grid_min < self.grid_max:
            raise ValueError("angular grid_min must be below grid_max")


@dataclass(frozen=True)
class MarginalSettings:
    axis: str = "x"
    field_min: float = 0.0
    field_max: float = 1.6
    n_points: int = 41

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError("marginal axis must be one of x, y, z")
        if self.n_points < 2:
            raise ValueError("marginal n_points must be >= 2")
        if not self.field_min < self.field_max:
            raise ValueError("marginal field_min must be below field_max")


@dataclass(frozen=True)
class EstimateSettings:
    b_nv: tuple[float, float, float] | None = None
    b_0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b_rb: float | None = None

    def __post_init__(self):
        if self.b_rb is not None and self.b_rb < 0:
            raise ValueError("estimate b_rb must be >= 0")


@dataclass(frozen=True)
class CalibrateSettings:
    pairs_csv: str | None = None


@dataclass(frozen=True)
class RunSettings:
    """Validated configuration for every command, one field per INI section."""

    measurement: MeasurementSettings = field(default_factory=MeasurementSettings)
    geometry: GeometrySettings = field(default_factory=GeometrySettings)
    simulation: SimConfig = field(default_factory=SimConfig)
    spatial: SpatialScanConfig = field(default_factory=SpatialScanConfig)
    angular: AngularSettings = field(default_factory=AngularSettings)
    marginal: MarginalSettings = field(default_factory=MarginalSettings)
    estimate: EstimateSettings = field(default_factory=EstimateSettings)
    calibrate: CalibrateSettings = field(default_factory=CalibrateSettings)

    def basis(self) -> OrientationBasis:
        if self.geometry.axis_a is None:
            return default_basis()
        return OrientationBasis.from_axes(np.array(dataclasses.astuple(self.geometry)))

    def with_seed(self, seed: int) -> "RunSettings":
        return replace(
            self,
            simulation=replace(self.simulation, seed=seed),
            spatial=replace(self.spatial, seed=seed),
        )


def _parse_float(text: str, name: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigParseError(f"{name}: expected a number, got {text!r}")
    if not math.isfinite(v):
        raise ConfigValidationError(f"{name}: value must be finite")
    return v


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigParseError(f"{name}: expected an integer, got {text!r}")


def parse_vector(text: str, name: str) -> tuple[float, float, float]:
    """Three comma-separated finite numbers; ``name`` labels the error messages."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigParseError(f"{name}: expected three comma-separated numbers")
    return tuple(_parse_float(p, name) for p in parts)  # type: ignore[return-value]


_LEAF_PARSERS = {
    float: _parse_float,
    int: _parse_int,
    str: lambda text, name: text.strip(),
    tuple[float, float, float]: parse_vector,
    FieldVector: lambda text, name: FieldVector(*parse_vector(text, name)),
}


def _parser(tp):
    """The INI value parser for a field type; ``X | None`` reads empty as None."""
    if tp in _LEAF_PARSERS:
        return _LEAF_PARSERS[tp]
    (inner,) = [t for t in typing.get_args(tp) if t is not type(None)]
    parse = _LEAF_PARSERS[inner]
    return lambda text, name: None if text.strip() == "" else parse(text, name)


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Field name -> resolved type, in field order.  Cached: get_type_hints
    costs far more than parsing a whole config file."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _walk(cls, path=()):
    """(INI key, field path, parser) for each key a section dataclass declares."""
    for f in dataclasses.fields(cls):
        tp = _field_types(cls)[f.name]
        if dataclasses.is_dataclass(tp) and tp is not FieldVector:
            yield from _walk(tp, path + (f.name,))
        else:
            yield f.metadata.get("ini", f.name), path + (f.name,), _parser(tp)


# Section -> INI key -> (field path within the section, value parser).
_KEYS = {
    section: {key: (path, parse) for key, path, parse in _walk(cls)}
    for section, cls in _field_types(RunSettings).items()
}


def _build(cls, values: dict):
    """cls from {field: value or nested {field: value}}.  Fields are built in
    declaration order, so the check that fails first does not depend on the
    order of the file."""
    kwargs = {}
    for name, tp in _field_types(cls).items():
        if name in values:
            v = values[name]
            kwargs[name] = _build(tp, v) if isinstance(v, dict) else v
    return cls(**kwargs)


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name.lower(), list(candidates), n=1, cutoff=0.5)
    return f"; did you mean {close[0]!r}?" if close else ""


def parse_config_text(text: str) -> RunSettings:
    """Parse and validate configuration text; empty text gives all defaults."""
    # No default section: a [DEFAULT] in the file is an unknown section like any other.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigParseError(str(err))

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigParseError(
                f"unknown section [{section}]" + _suggest(section, _KEYS)
            )
        keys = _KEYS[section]
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in keys:
                raise ConfigParseError(
                    f"unknown key {key!r} in [{section}]" + _suggest(key, keys)
                )
            path, parse = keys[key]
            target = values[section]
            for name in path[:-1]:
                target = target.setdefault(name, {})
            target[path[-1]] = parse(raw, f"key {key!r}")
    try:
        return _build(RunSettings, values)
    except ValueError as err:
        # Dataclass validators raise ValueError naming the constraint.
        raise ConfigValidationError(str(err))


def parse_config(path: str) -> RunSettings:
    """Parse and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigParseError(f"cannot read config file {path!r}: {err}")
    return parse_config_text(text)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, FieldVector):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def default_config_text() -> str:
    """Render every key of every section with its default value."""
    defaults = RunSettings()
    out = []
    for section, keys in _KEYS.items():
        out.append(f"[{section}]\n")
        for key, (path, _) in keys.items():
            value = functools.reduce(getattr, (section, *path), defaults)
            out.append(f"{key} = {_fmt(value)}\n")
        out.append("\n")
    return "".join(out)
