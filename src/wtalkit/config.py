"""Declarative run configuration: one INI file, every key optional.

Sections mirror the settings dataclasses: [synth] is `SynthConfig`, [run]
`RunConfig`, [hyperparams] `Hyperparams` and [eval] the scoring thresholds.
Every int, float or bool field of a section's dataclass is a key of that
name and type; `_EXTRA_KEYS` lists the few keys that differ from a field.
The dataclasses, `Config` among them, check their own values when built
(with `errors.check_settings` rules, and [eval] with
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
# a field's type, as a class or as the string that postponed annotations leave
_KINDS = {key: kind for kind in (int, float, bool) for key in (kind, kind.__name__)}


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
    eval_thresholds: tuple = DEFAULT_IOU_THRESHOLDS

    def __post_init__(self):
        check_iou_thresholds(self.eval_thresholds)


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    hint = f"; closest valid key is {close[0]!r}" if close else ""
    return f"unknown key {key!r}{hint}"


def _parse_float_list(where: str, raw: str, _) -> tuple:
    try:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad number list {raw!r}: {exc}") from exc


def coerce(where: str, raw: str, kind):
    """The text `raw` as an int, float or bool, or a ConfigError naming `where`."""
    try:
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


def _range_end(name: str, index: int) -> tuple:
    """The extra key that sets end `index` of the (low, high) field `name`."""
    def parse(where, raw, ends):
        ends = list(ends)
        ends[index] = coerce(where, raw, int)
        return tuple(ends)
    return name, parse


def _bvl_weight(where, raw, _):
    if raw.strip().lower() in ("", "none", "lam"):
        return None
    return coerce(where, raw, float)


# Per section, each key that is not an int, float or bool field of the same
# name: key -> (field it sets, parse(where, raw text, field's current value)).
_EXTRA_KEYS = {
    "synth": {f"{key}_{end}": _range_end(f"{key}_range", i)
              for key in ("t", "instances", "instance_len")
              for i, end in enumerate(("min", "max"))},
    "run": {"mode": ("grad_mode",
                     lambda where, raw, _: parse_mode(raw.strip().lower(), where))},
    "hyperparams": {"proposal_thresholds": ("proposal_thresholds", _parse_float_list),
                    "bvl_weight": ("bvl_weight", _bvl_weight)},
    "eval": {"iou_thresholds": ("eval_thresholds", _parse_float_list)},
}


def _apply(parser, section: str, settings):
    """`settings` with the keys of INI `section` applied, rebuilt once so
    that its dataclass checks the result; a ConfigError names the section."""
    if not parser.has_section(section):
        return settings
    kinds = {f.name: _KINDS[f.type] for f in fields(settings) if f.type in _KINDS}
    extra = _EXTRA_KEYS[section]
    updates = {}
    for key, raw in parser.items(section):
        where = f"[{section}] {key}"
        if key in kinds:
            updates[key] = coerce(where, raw, kinds[key])
        elif key in extra:
            name, parse = extra[key]
            updates[name] = parse(where, raw, updates.get(name, getattr(settings, name)))
        else:
            raise ConfigError(f"[{section}] {_suggest(key, [*kinds, *extra])}")
    try:
        return replace(settings, **updates)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_config(path: str | None) -> Config:
    """Parse the INI file into a Config; None means all defaults."""
    if path is None:
        return Config()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _EXTRA_KEYS:
            raise ConfigError(f"unknown section [{section}]; "
                              f"{_suggest(section, _EXTRA_KEYS)}")

    defaults = Config()
    synth = _apply(parser, "synth", defaults.synth)
    hp = _apply(parser, "hyperparams", defaults.run.hp)
    run = _apply(parser, "run", replace(defaults.run, hp=hp))
    return _apply(parser, "eval", Config(synth=synth, run=run))
