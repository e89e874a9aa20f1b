"""Run configuration: INI or resolved.json files, flag overrides, schema validation."""

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


def _convert(path: str, value, default):
    """Convert a setting to the type of its field's default; a None default means an optional float."""
    kind = float if default is None else type(default)
    text = str(value).strip()
    if default is None and text.lower() in ("", "none"):
        return None
    try:
        result = kind(text)
        if kind is float and not math.isfinite(result):
            raise ValueError(text)
    except ValueError as exc:
        name = "finite float" if kind is float else kind.__name__
        raise ValidationError(f"config key {path}: expected {name}, got {value!r}") from exc
    return result


def _known_section(name: str) -> str:
    if name not in _SECTIONS:
        raise ValidationError(f"unknown config section [{name}]; known: {sorted(_SECTIONS)}")
    return name


def _file_settings(text: str) -> dict:
    """Flatten an INI file, or a re-fed resolved.json, to {'section.key': value}.

    An INI file opens with a section header or a comment, never with '{'.
    """
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"resolved config is not valid JSON: {exc}") from exc
        if not all(isinstance(sub, dict) for sub in data.values()):
            raise ValidationError("resolved config: every section must be a JSON object")
        return {f"{section}.{key}": value for section, sub in data.items() for key, value in sub.items()}
    parser = configparser.ConfigParser()
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    return {
        # configparser lowercases option names
        f"{section}.{'T_target' if key == 't_target' else key}": raw
        for section in map(_known_section, parser.sections())
        for key, raw in parser.items(section)
    }


def _validate(cfg: RunConfig) -> RunConfig:
    p, g, t, o = cfg.problem, cfg.grid, cfg.time, cfg.output
    if p.d < 2:
        raise ValidationError("problem.d must be >= 2")
    if not 0.0 < p.alpha <= 2.0:
        raise ValidationError("problem.alpha: alpha must be in (0,2]")
    if p.T_target is not None and p.T_target <= 0:
        raise ValidationError("problem.T_target must be positive when given")
    if g.r_max <= 0 or g.n < 16 or not 0 <= g.inner_fraction <= 1:
        raise ValidationError("grid: need r_max > 0, n >= 16, inner_fraction in [0,1]")
    if t.t_end <= 0:
        raise ValidationError("time.t_end must be positive")
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
    """Defaults < config file text (INI or resolved.json) < flat overrides {'section.key': value}.

    Unknown sections or keys are hard errors with their full key path; an
    override of None leaves the setting alone.
    """
    settings = _file_settings(text) if text is not None else {}
    settings.update((path, value) for path, value in (overrides or {}).items() if value is not None)
    cfg = RunConfig()
    for path, value in settings.items():
        section, _, key = path.partition(".")
        known = {f.name: f.default for f in fields(_SECTIONS[_known_section(section)])}
        if key not in known:
            raise ValidationError(f"unknown config key {path}; known: {sorted(known)}")
        setattr(getattr(cfg, section), key, _convert(path, value, known[key]))
    return _validate(cfg)


def resolved_json(cfg: RunConfig) -> str:
    """Canonical JSON echo of a resolved config (round-trips through parse_config)."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"
