"""Config-file schema: INI sections per module, validated with defaults.

One file drives every command, and flags replace its values: the file is
parsed (syntax, then its sections, keys and values in file order), then the
flags, and only then is each section built and checked, once, on the merged
values, so parse errors come first (a non-finite number fails as it is read).
Unknown sections or keys are rejected with a suggestion, malformed values
report the key or flag, and constraint violations name the constraint.

Each section is a field of :class:`RunSettings` holding a frozen
dataclass, and each field of that dataclass is one INI key, declared
nowhere else: the field's type picks the parser (``float``, ``int``,
``str``, ``tuple[float, float, float]``, ``FieldVector``, or ``X | None``,
where an empty value means None), its default is the documented default,
and the dataclass's ``__post_init__`` holds its checks.
``field(metadata={"ini": name})`` names a key that differs from its field.
"""

from __future__ import annotations

import configparser
import dataclasses
import difflib
import itertools
import math
import typing
from dataclasses import dataclass, field, replace

from .errors import ConfigParseError, ConfigValidationError
from .geometry import FieldVector
from .simulation import AngularSettings, MarginalSettings, SimConfig, SpatialScanConfig


@dataclass(frozen=True)
class EstimateSettings:
    b_nv: tuple[float, float, float] | None = None
    b_0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    b_rb: float | None = None

    def __post_init__(self):
        if self.b_rb is not None and not self.b_rb >= 0:  # NaN too
            raise ValueError("estimate b_rb must be >= 0")


@dataclass(frozen=True)
class CalibrateSettings:
    pairs: str | None = field(default=None, metadata={"ini": "pairs_csv"})


@dataclass(frozen=True)
class RunSettings:
    """Validated configuration for every command, one field per INI section."""

    simulation: SimConfig = field(default_factory=SimConfig)
    spatial: SpatialScanConfig = field(default_factory=SpatialScanConfig)
    angular: AngularSettings = field(default_factory=AngularSettings)
    marginal: MarginalSettings = field(default_factory=MarginalSettings)
    estimate: EstimateSettings = field(default_factory=EstimateSettings)
    calibrate: CalibrateSettings = field(default_factory=CalibrateSettings)


# Built once (every section is frozen): the sections nothing sets come from here.
_DEFAULTS = RunSettings()


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


def _parse_vector(text: str, name: str) -> tuple[float, float, float]:
    """Three comma-separated finite numbers; ``name`` labels the error messages."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigParseError(f"{name}: expected three comma-separated numbers")
    return tuple(_parse_float(p, name) for p in parts)  # type: ignore[return-value]


_LEAF_PARSERS = {
    float: _parse_float,
    int: _parse_int,
    str: lambda text, name: text.strip(),
    tuple[float, float, float]: _parse_vector,
    FieldVector: lambda text, name: FieldVector(*_parse_vector(text, name)),
}


def _parser(tp):
    """The INI value parser for a field type; ``X | None`` reads empty as None."""
    if tp in _LEAF_PARSERS:
        return _LEAF_PARSERS[tp]
    (inner,) = [t for t in typing.get_args(tp) if t is not type(None)]
    parse = _LEAF_PARSERS[inner]
    return lambda text, name: None if text.strip() == "" else parse(text, name)


def _keys(cls) -> dict:
    """INI key -> (field name, value parser) for each field of a section dataclass."""
    hints = typing.get_type_hints(cls)
    return {
        f.metadata.get("ini", f.name): (f.name, _parser(hints[f.name]))
        for f in dataclasses.fields(cls)
    }


# Section -> its dataclass, in RunSettings declaration order.
_SECTIONS = typing.get_type_hints(RunSettings)
# Section -> INI key -> (field name, value parser).
_KEYS = {section: _keys(cls) for section, cls in _SECTIONS.items()}


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name.lower(), list(candidates), n=1, cutoff=0.5)
    return f"; did you mean {close[0]!r}?" if close else ""


def _file_entries(cp: configparser.ConfigParser):
    """(section, key, text, label) of each value of a read file, in file
    order; an unknown section or key raises when it is reached."""
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigParseError(f"unknown section [{section}]" + _suggest(section, _KEYS))
        keys = _KEYS[section]
        for key, raw in cp.items(section):
            if key not in keys:
                raise ConfigParseError(f"unknown key {key!r} in [{section}]" + _suggest(key, keys))
            yield section, key, raw, f"key {key!r}"


def parse_config_text(text: str, source: str = "<string>", *, _flags=()) -> RunSettings:
    """Parse and validate configuration text, named ``source`` in syntax
    errors; empty text gives all defaults.  ``_flags``, a command's flags as
    (section, key, text, label), are parsed after the file's values and
    replace them before any check."""
    # No default section: a [DEFAULT] in the file is an unknown section like any other.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text, source=source)
    except configparser.Error as err:
        raise ConfigParseError(" ".join(line.strip() for line in str(err).splitlines()))
    values: dict[str, dict] = {}
    for section, key, raw, label in itertools.chain(_file_entries(cp), _flags):
        name, parse = _KEYS[section][key]
        values.setdefault(section, {})[name] = parse(raw, label)
    try:
        # Each section set is built once, in declaration order, so the check
        # that fails first does not depend on the order of the file or flags.
        return replace(
            _DEFAULTS, **{name: cls(**values[name]) for name, cls in _SECTIONS.items() if name in values}
        )
    except ValueError as err:
        # Dataclass validators raise ValueError naming the constraint.
        raise ConfigValidationError(str(err))


def parse_config(path: str, *, _flags=()) -> RunSettings:
    """Parse and validate a configuration file; ``_flags`` as in parse_config_text."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigParseError(f"cannot read config file {path!r}: {err}")
    return parse_config_text(text, path, _flags=_flags)


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


def rendered(settings: RunSettings, section: str) -> dict[str, str]:
    """INI key -> value text for each key of one section of ``settings``."""
    values = getattr(settings, section)
    return {key: _fmt(getattr(values, name)) for key, (name, _) in _KEYS[section].items()}


def default_config_text() -> str:
    """Render every key of every section with its default value."""
    out = []
    for section in _SECTIONS:
        out.append(f"[{section}]\n")
        out.extend(f"{k} = {v}\n" for k, v in rendered(_DEFAULTS, section).items())
        out.append("\n")
    return "".join(out)
