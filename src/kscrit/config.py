"""Run configuration: INI files, flag overrides, schema validation."""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ValidationError

__all__ = ["RunConfig", "check_singular_comparison", "parse_config", "resolved_json"]


@dataclass
class ProblemConfig:
    d: int = 3
    alpha: float = 2.0
    T_target: float | None = None


@dataclass
class InitialConfig:
    profile: str = "gauss(mass=1.0,width=1.0)"


@dataclass
class GridConfig:
    r_max: float = 20.0
    n: int = 1000
    inner_fraction: float = 0.5


@dataclass
class TimeConfig:
    t_end: float = 1.0
    density_cap: float | None = None
    dt_floor: float | None = None


@dataclass
class OutputConfig:
    path: str = "out"
    stride: int = 1
    format: str = "csv"


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {
    "problem": ProblemConfig,
    "initial": InitialConfig,
    "grid": GridConfig,
    "time": TimeConfig,
    "output": OutputConfig,
}

_OPTIONAL_FLOATS = {"T_target", "density_cap", "dt_floor"}


def _convert(section: str, key: str, raw: str, target_type):
    text = raw.strip()
    try:
        if key in _OPTIONAL_FLOATS:
            return None if text.lower() in ("", "none") else float(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ValidationError(
            f"config key {section}.{key}: expected {target_type.__name__}, got {raw!r}"
        ) from exc


def _section_types(cls) -> dict[str, type]:
    out = {}
    for f in fields(cls):
        t = f.type
        if t in ("int", int):
            out[f.name] = int
        elif t in ("float", float, "float | None"):
            out[f.name] = float
        else:
            out[f.name] = str
    return out


def _validate(cfg: RunConfig) -> RunConfig:
    p, g, t, o = cfg.problem, cfg.grid, cfg.time, cfg.output
    if p.d < 2:
        raise ValidationError("problem.d must be >= 2")
    if not 0.0 < p.alpha <= 2.0:
        raise ValidationError("problem.alpha: alpha must be in (0,2]")
    if g.r_max <= 0 or g.n < 16 or not 0 <= g.inner_fraction <= 1:
        raise ValidationError("grid: need r_max > 0, n >= 16, inner_fraction in [0,1]")
    if t.t_end <= 0:
        raise ValidationError("time.t_end must be positive")
    if t.density_cap is not None and t.density_cap <= 0:
        raise ValidationError("time.density_cap must be positive when given")
    if t.dt_floor is not None and t.dt_floor <= 0:
        raise ValidationError("time.dt_floor must be positive when given")
    if o.stride < 1:
        raise ValidationError("output.stride must be >= 1")
    if o.format not in ("csv", "json"):
        raise ValidationError("output.format must be 'csv' or 'json'")
    return cfg


def check_singular_comparison(cfg: RunConfig) -> RunConfig:
    """The fractional singular comparison (classify, constants) needs 2*alpha < d."""
    p = cfg.problem
    if p.alpha < 2.0 and 2.0 * p.alpha >= p.d:
        raise ValidationError(
            "problem.alpha: the fractional singular comparison requires 2*alpha < d"
        )
    return cfg


def parse_config(text: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults < INI file text < flat overrides {'section.key': value}.

    Unknown sections or keys are hard errors with their full key path.
    """
    cfg = RunConfig()
    if text is not None:
        parser = configparser.ConfigParser()
        try:
            parser.read_file(io.StringIO(text))
        except configparser.Error as exc:
            raise ValidationError(f"config parse error: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValidationError(
                    f"unknown config section [{section}]; known: {sorted(_SECTIONS)}"
                )
            sub = getattr(cfg, section)
            types = _section_types(type(sub))
            for key, raw in parser.items(section):
                if key == "t_target":
                    key = "T_target"  # configparser lowercases option names
                if key not in types:
                    raise ValidationError(
                        f"unknown config key {section}.{key}; known: {sorted(types)}"
                    )
                setattr(sub, key, _convert(section, key, raw, types[key]))
    for path, value in (overrides or {}).items():
        if value is None:
            continue
        if "." not in path:
            raise ValidationError(f"unknown config key {path!r}")
        section, key = path.split(".", 1)
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section {section!r}")
        sub = getattr(cfg, section)
        types = _section_types(type(sub))
        if key not in types:
            raise ValidationError(f"unknown config key {section}.{key}")
        if isinstance(value, str):
            value = _convert(section, key, value, types[key])
        setattr(sub, key, value)
    return _validate(cfg)


def resolved_json(cfg: RunConfig) -> str:
    """Canonical JSON echo of a resolved config (round-trips through parse_config)."""

    def clean(x):
        if isinstance(x, float) and not math.isfinite(x):
            return str(x)
        return x

    d = asdict(cfg)
    return json.dumps(d, sort_keys=True, indent=2, default=clean) + "\n"


def config_from_resolved(text: str) -> RunConfig:
    """Rebuild a RunConfig from a resolved.json payload."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"resolved config is not valid JSON: {exc}") from exc
    overrides: dict = {}
    for section, sub in data.items():
        if isinstance(sub, dict):
            for key, value in sub.items():
                overrides[f"{section}.{key}"] = value
        else:
            overrides[section] = sub
    return parse_config(None, overrides)
