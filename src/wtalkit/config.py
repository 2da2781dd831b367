"""Declarative run configuration: one INI file, every key optional.

Sections mirror the main dataclasses: [synth] for data generation, [run] for
the training loop, [hyperparams] for model/loss/inference knobs, [eval] for
scoring thresholds. Unknown sections or keys are errors, with the closest
valid name suggested. An empty (or absent) file yields the stock desk-scale
setup.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .losses import GradMode
from .model import Hyperparams
from .synth import SynthConfig
from .trainer import RunConfig

MODE_NAMES = {m.value: m for m in GradMode}


@dataclass
class Config:
    synth: SynthConfig = field(default_factory=SynthConfig)
    run: RunConfig = field(default_factory=RunConfig)
    eval_thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    hint = f"; closest valid key is {close[0]!r}" if close else ""
    return f"unknown key {key!r}{hint}"


def _parse_float_list(raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad number list {raw!r}: {exc}") from exc


def _coerce(section: str, key: str, raw: str, kind):
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
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


_SYNTH_SCALARS = {
    "num_classes": int, "feature_dim": int, "prototype_scale": float,
    "confound_strength": float, "noise_sigma": float, "num_train": int,
    "num_test": int, "seed": int,
}
_SYNTH_RANGES = {
    "t_min": ("t_range", 0), "t_max": ("t_range", 1),
    "instances_min": ("instances_range", 0), "instances_max": ("instances_range", 1),
    "instance_len_min": ("instance_len_range", 0),
    "instance_len_max": ("instance_len_range", 1),
}

_HP_SCALARS = {
    "lam": float, "beta": float, "k": int, "epsilon": float, "rho_cls": float,
    "nms_iou": float, "embed_dim": int, "kernel_size": int, "iterations": int,
    "gauss_sigma": float, "gauss_radius": int,
    "stop_gradient_targets": bool,
}

_RUN_SCALARS = {
    "use_ten": bool, "learning_rate": float, "decay_fraction": float,
    "weight_decay": float, "iterations": int, "batch_size": int, "seed": int,
    "checkpoint_every": int,
}


def _apply_synth(cfg: SynthConfig, items) -> SynthConfig:
    ranges = {f: list(getattr(cfg, f)) for f in
              ("t_range", "instances_range", "instance_len_range")}
    updates = {}
    for key, raw in items:
        if key in _SYNTH_SCALARS:
            updates[key] = _coerce("synth", key, raw, _SYNTH_SCALARS[key])
        elif key in _SYNTH_RANGES:
            name, idx = _SYNTH_RANGES[key]
            ranges[name][idx] = _coerce("synth", key, raw, int)
        else:
            valid = list(_SYNTH_SCALARS) + list(_SYNTH_RANGES)
            raise ConfigError(f"[synth] {_suggest(key, valid)}")
    updates.update({name: tuple(vals) for name, vals in ranges.items()})
    return replace(cfg, **updates)


def _apply_hyperparams(hp: Hyperparams, items) -> Hyperparams:
    updates = {}
    for key, raw in items:
        if key in _HP_SCALARS:
            updates[key] = _coerce("hyperparams", key, raw, _HP_SCALARS[key])
        elif key == "proposal_thresholds":
            updates[key] = _parse_float_list(raw)
        elif key == "bvl_weight":
            updates[key] = (None if raw.strip().lower() in ("", "none", "lam")
                            else _coerce("hyperparams", key, raw, float))
        else:
            valid = list(_HP_SCALARS) + ["proposal_thresholds", "bvl_weight"]
            raise ConfigError(f"[hyperparams] {_suggest(key, valid)}")
    return replace(hp, **updates)


def _apply_run(run: RunConfig, items) -> RunConfig:
    updates = {}
    for key, raw in items:
        if key in _RUN_SCALARS:
            updates[key] = _coerce("run", key, raw, _RUN_SCALARS[key])
        elif key == "mode":
            name = raw.strip().lower()
            if name not in MODE_NAMES:
                raise ConfigError(f"[run] mode: {name!r} is not one of "
                                  f"{sorted(MODE_NAMES)}")
            updates["grad_mode"] = MODE_NAMES[name]
        else:
            valid = list(_RUN_SCALARS) + ["mode"]
            raise ConfigError(f"[run] {_suggest(key, valid)}")
    return replace(run, **updates)


def load_config(path: str | None) -> Config:
    """Parse the INI file into a Config; None means all defaults."""
    cfg = Config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    known_sections = ("synth", "run", "hyperparams", "eval")
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]; "
                              f"{_suggest(section, known_sections)}")

    if parser.has_section("synth"):
        cfg.synth = _apply_synth(cfg.synth, parser.items("synth"))
    hp = cfg.run.hp
    if parser.has_section("hyperparams"):
        hp = _apply_hyperparams(hp, parser.items("hyperparams"))
    run = replace(cfg.run, hp=hp)
    if parser.has_section("run"):
        run = _apply_run(run, parser.items("run"))
    cfg.run = run
    if parser.has_section("eval"):
        for key, raw in parser.items("eval"):
            if key == "iou_thresholds":
                cfg.eval_thresholds = _parse_float_list(raw)
            else:
                raise ConfigError(f"[eval] {_suggest(key, ['iou_thresholds'])}")
    return cfg
