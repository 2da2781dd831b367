"""Declarative run configuration: one INI file, every key optional.

Sections mirror the settings dataclasses: [synth] is `SynthConfig`, [run]
`RunConfig`, [hyperparams] `Hyperparams` and [eval] `Config` itself. Every
field of a section's dataclass whose type is int, float, bool, tuple (a list
of numbers) or `GradMode` (a mode name) is a key of the same name; nothing
else is. The dataclasses check their own values when built (with
`errors.check_settings` rules, and [eval] with
`evaluate.check_iou_thresholds`), so a bad value is a ConfigError on load,
as is an unknown section or key (with the closest valid name suggested). An
empty (or absent) file yields the stock desk-scale setup.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .evaluate import DEFAULT_IOU_THRESHOLDS, check_iou_thresholds
from .losses import GradMode
from .synth import SynthConfig
from .trainer import RunConfig

MODE_NAMES = {m.value: m for m in GradMode}
SECTIONS = ("synth", "run", "hyperparams", "eval")
# a field's type, as a class or as the string that postponed annotations leave
_KINDS = {key: kind for kind in (int, float, bool, tuple, GradMode)
          for key in (kind, kind.__name__)}


def parse_mode(name: str, where: str) -> GradMode:
    """The gradient mode called `name`; a ConfigError naming `where` and
    listing the valid names otherwise."""
    if name not in MODE_NAMES:
        raise ConfigError(f"{where}: {name!r} is not one of {sorted(MODE_NAMES)}")
    return MODE_NAMES[name]


@dataclass(frozen=True)
class Config:
    """Everything one INI file sets. Frozen: construction (and so `replace`)
    checks the IoU thresholds and raises ConfigError."""

    synth: SynthConfig = field(default_factory=SynthConfig)
    run: RunConfig = field(default_factory=RunConfig)
    iou_thresholds: tuple = DEFAULT_IOU_THRESHOLDS

    def __post_init__(self):
        check_iou_thresholds(self.iou_thresholds)


def _suggest(name: str, valid, kind: str) -> str:
    close = difflib.get_close_matches(name, list(valid), n=1)
    return f"; closest valid {kind} is {close[0]!r}" if close else ""


def coerce(where: str, raw: str, kind):
    """The text `raw` as an int, float, bool, tuple of floats (split at commas
    or spaces) or GradMode, or a ConfigError naming `where`."""
    if kind is GradMode:
        return parse_mode(raw.strip().lower(), where)
    try:
        if kind is tuple:
            return tuple(float(v) for v in raw.replace(",", " ").split())
        if kind is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _apply(parser, section: str, settings):
    """`settings` with the keys of INI `section` applied, rebuilt once so
    that its dataclass checks the result; a ConfigError names the section."""
    if not parser.has_section(section):
        return settings
    kinds = {f.name: _KINDS[f.type] for f in fields(settings) if f.type in _KINDS}
    updates = {}
    for key, raw in parser.items(section):
        if key not in kinds:
            raise ConfigError(f"[{section}] unknown key {key!r}{_suggest(key, kinds, 'key')}")
        updates[key] = coerce(f"[{section}] {key}", raw, kinds[key])
    try:
        return replace(settings, **updates)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path: str | None) -> Config:
    """Parse the INI file into a Config; None means all defaults."""
    if path is None:
        return Config()
    # no header can name the empty section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]"
                              f"{_suggest(section, SECTIONS, 'section')}")

    defaults = Config()
    synth = _apply(parser, "synth", defaults.synth)
    hp = _apply(parser, "hyperparams", defaults.run.hp)
    run = _apply(parser, "run", replace(defaults.run, hp=hp))
    return _apply(parser, "eval", Config(synth=synth, run=run))
