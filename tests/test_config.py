"""INI config parsing: each key is the settings field of its name, typo suggestions."""

import re
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest

from wtalkit.cli import main
from wtalkit.config import SECTIONS, Config, load_config
from wtalkit.errors import ConfigError
from wtalkit.losses import GradMode
from wtalkit.model import Hyperparams
from wtalkit.synth import SynthConfig
from wtalkit.trainer import RunConfig


REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_none_path_gives_defaults(self):
        cfg = load_config(None)
        assert cfg == Config()

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_config(_write(tmp_path, "")) == Config()


class TestSections:
    def test_full_round(self, tmp_path):
        path = _write(tmp_path, """
[synth]
num_classes = 3
feature_dim = 8
t_min = 24
t_max = 40
noise_sigma = 0.2
num_train = 10
num_test = 5
seed = 3

[hyperparams]
lam = 0.2
k = 2

[run]
iterations = 50
mode = bges
use_ten = yes
seed = 9
batch_size = 4

[eval]
iou_thresholds = 0.3 0.5 0.7
""")
        cfg = load_config(path)
        assert cfg.synth.num_classes == 3
        assert (cfg.synth.t_min, cfg.synth.t_max) == (24, 40)
        assert cfg.synth.noise_sigma == 0.2
        assert cfg.run.hp.lam == 0.2
        assert cfg.run.hp.k == 2
        assert cfg.run.iterations == 50
        assert cfg.run.mode is GradMode.BGES
        assert cfg.run.use_ten is True
        assert cfg.run.seed == 9
        assert cfg.run.batch_size == 4
        assert cfg.iou_thresholds == (0.3, 0.5, 0.7)

    @pytest.mark.parametrize("raw, message", [
        ("", "need at least one value"),
        ("0.5 0", "0.0 is outside"),
        ("-0.1", "-0.1 is outside"),
        ("0.5 1.5", "1.5 is outside"),
        ("nan", "nan is outside"),
        ("0.3 0.5 0.3", "0.3 is repeated"),
        ("0.5, 0.50001", "0.50001 is repeated"),
    ])
    def test_bad_iou_thresholds(self, tmp_path, raw, message):
        with pytest.raises(ConfigError, match=r"\[eval\] iou_thresholds: " + message):
            load_config(_write(tmp_path, f"[eval]\niou_thresholds = {raw}\n"))

    def test_iou_threshold_of_one_is_valid(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[eval]\niou_thresholds = 1 0.1\n"))
        assert cfg.iou_thresholds == (1.0, 0.1)

    @pytest.mark.parametrize("section, key", [
        ("eval", "iou_thresholds"), ("hyperparams", "proposal_thresholds")])
    def test_bad_number_list(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: could not "
                                              r"convert string to float: 'x'$"):
            load_config(_write(tmp_path, f"[{section}]\n{key} = 0.5, x\n"))

    def test_partial_range_override_keeps_other_end(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[synth]\nt_min = 70\ninstance_len_max = 30\n"))
        assert (cfg.synth.t_min, cfg.synth.t_max) == (70, 120)
        assert (cfg.synth.instance_len_min, cfg.synth.instance_len_max) == (8, 30)

    @pytest.mark.parametrize("text, message", [
        ("t_min = 130", "t_max must be >= 130, got 120"),  # against the default end
        ("instances_min = 4\ninstances_max = 3", "instances_max must be >= 4, got 3"),
        ("instance_len_min = 0", "instance_len_min must be >= 1, got 0"),
    ], ids=["t_min_above_default_t_max", "instances_min_above_max", "instance_len_min_0"])
    def test_bad_range_is_refused(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=rf"^\[synth\] {message}$"):
            load_config(_write(tmp_path, f"[synth]\n{text}\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^unknown section \[model\]$"):
            load_config(_write(tmp_path, "[model]\nx = 1\n"))
        with pytest.raises(ConfigError,
                           match=r"^unknown section \[synt\]; closest valid section is 'synth'$"):
            load_config(_write(tmp_path, "[synt]\nseed = 1\n"))

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nlam = 0.5\n",  # alone, configparser would ignore it
        "[run]\nseed = 3\n[DEFAULT]\nnum_train = 5\n",  # beside, merge it into [run]
        "[DEFAULT]\n",
    ], ids=["alone", "beside_run", "empty"])
    def test_default_section_is_refused(self, tmp_path, text, capsys):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            load_config(path)
        out = tmp_path / "world"
        assert main(["--config", path, "gen", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: unknown section [DEFAULT]\n"
        assert not out.exists()

    def test_unknown_key_suggests(self, tmp_path):
        with pytest.raises(ConfigError, match="noise_sigma"):
            load_config(_write(tmp_path, "[synth]\nnoise_sigm = 0.1\n"))

    def test_removed_t_train_key_is_rejected(self, tmp_path):
        # t_train was parsed but never read; it is now an unknown key
        with pytest.raises(ConfigError, match=r"\[hyperparams\] unknown key 't_train'"):
            load_config(_write(tmp_path, "[hyperparams]\nt_train = 100\n"))

    @pytest.mark.parametrize("key", ["gauss_sigma", "gauss_radius"])
    def test_removed_smoothing_key_is_rejected(self, tmp_path, key, capsys):
        # the continuity smoothing is the constant numerics.GAUSS_TAPS
        path = _write(tmp_path, f"[hyperparams]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"\[hyperparams\] unknown key '{key}'"):
            load_config(path)
        out = tmp_path / "world"
        assert main(["--config", path, "gen", "--out", str(out)]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_hyperparams_iterations_key_is_rejected(self, tmp_path):
        # step counts are set by [run] iterations alone
        with pytest.raises(ConfigError,
                           match=r"\[hyperparams\] unknown key 'iterations'"):
            load_config(_write(tmp_path, "[hyperparams]\niterations = 50\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[synth\] num_train"):
            load_config(_write(tmp_path, "[synth]\nnum_train = many\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, "[run]\nuse_ten = maybe\n"))

    def test_bad_mode(self, tmp_path):
        names = sorted(m.value for m in GradMode)
        with pytest.raises(ConfigError) as info:
            load_config(_write(tmp_path, "[run]\nmode = reverse\n"))
        assert str(info.value) == f"[run] mode: 'reverse' is not one of {names}"

    def test_mode_names_cover_all(self, tmp_path):
        for mode in GradMode:
            cfg = load_config(_write(tmp_path, f"[run]\nmode = {mode.value.upper()}\n"))
            assert cfg.run.mode is mode


class TestHyperparamKeys:
    def test_proposal_thresholds_list(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "[hyperparams]\nproposal_thresholds = 0.2, 0.4, 0.6\n"))
        assert cfg.run.hp.proposal_thresholds == (0.2, 0.4, 0.6)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"))

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            load_config(_write(tmp_path, "not an ini at all\n"))

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"config '.*bad\.ini' is not UTF-8: "):
            load_config(str(path))

    def test_unknown_eval_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[eval\]"):
            load_config(_write(tmp_path, "[eval]\nthresholds = 0.5\n"))


class TestFieldKeys:
    @pytest.mark.parametrize("section, cls", [
        ("synth", SynthConfig), ("hyperparams", Hyperparams), ("run", RunConfig)])
    def test_every_scalar_field_is_a_key_of_its_type(self, tmp_path, section, cls):
        scalars = {name: kind for name, kind in get_type_hints(cls).items()
                   if kind in (int, float, bool)}
        assert len(scalars) == {"synth": 13, "hyperparams": 8, "run": 8}[section]
        default = cls()
        values = {}
        for name, kind in scalars.items():
            old = getattr(default, name)
            values[name] = (not old if kind is bool
                            else old + 2 if kind is int else old / 2)
        text = "".join(f"{name} = {value!r}\n" for name, value in values.items())
        cfg = load_config(_write(tmp_path, f"[{section}]\n{text}"))
        got = {"synth": cfg.synth, "hyperparams": cfg.run.hp, "run": cfg.run}[section]
        for name, kind in scalars.items():
            assert type(getattr(got, name)) is kind, name
            assert getattr(got, name) == values[name], name

    def test_int_key_refuses_a_fraction(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[hyperparams\] k: invalid literal"):
            load_config(_write(tmp_path, "[hyperparams]\nk = 2.5\n"))


class TestChecks:
    """The settings types check their values when built and replaced."""

    @pytest.mark.parametrize("cls, changes, message", [
        (Hyperparams, {"k": 0}, "k must be >= 1, got 0"),
        (Hyperparams, {"lam": float("inf")}, "lam must be finite, got inf"),
        (Hyperparams, {"beta": -0.1}, "beta must be >= 0, got -0.1"),
        (Hyperparams, {"rho_cls": float("nan")}, "rho_cls must be finite, got nan"),
        (Hyperparams, {"epsilon": -0.5}, r"epsilon must lie in \[0, 1\], got -0.5"),
        (Hyperparams, {"kernel_size": 4}, "kernel_size must be odd and >= 1, got 4"),
        (Hyperparams, {"nms_iou": -0.1}, "nms_iou must be >= 0, got -0.1"),
        (Hyperparams, {"embed_dim": -1}, "embed_dim must be >= 0, got -1"),
        (Hyperparams, {"proposal_thresholds": (0.2, float("nan"))},
         "proposal_thresholds must be finite, got nan"),
        (Config, {"iou_thresholds": (0.00001, 0.5)},
         r"^iou_thresholds: 1e-05 rounds to 0 at 4 decimals$"),
        (RunConfig, {"decay_fraction": 1.5},
         r"decay_fraction must lie in \[0, 1\], got 1.5"),
        (RunConfig, {"weight_decay": -1e-3}, "weight_decay must be >= 0, got -0.001"),
        (RunConfig, {"iterations": 0}, "iterations must be >= 1, got 0"),
        (RunConfig, {"checkpoint_every": -1}, "checkpoint_every must be >= 0, got -1"),
        (RunConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (SynthConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (SynthConfig, {"noise_sigma": float("nan")}, "noise_sigma must be finite, got nan"),
        (Hyperparams, {"rho_cls": 1.5}, r"rho_cls must lie in \[0, 1\], got 1.5"),
        (Hyperparams, {"rho_cls": -0.1}, r"rho_cls must lie in \[0, 1\], got -0.1"),
        (Hyperparams, {"proposal_thresholds": (0.2, 2.0)},
         r"proposal_thresholds must each lie in \(0, 1\), got \(0.2, 2.0\)"),
        (Hyperparams, {"proposal_thresholds": (0.0,)},
         r"proposal_thresholds must each lie in \(0, 1\), got \(0.0,\)"),
        (Hyperparams, {"proposal_thresholds": (0.5, 1.0)},
         r"proposal_thresholds must each lie in \(0, 1\), got \(0.5, 1.0\)"),
        (Hyperparams, {"proposal_thresholds": ()}, r"proposal_thresholds must not be empty"),
        (SynthConfig, {"num_classes": 0}, "num_classes must be >= 1, got 0"),
        (SynthConfig, {"feature_dim": 0}, "feature_dim must be >= 1, got 0"),
        (SynthConfig, {"t_min": 40, "t_max": 30}, "t_max must be >= 40, got 30"),
        (SynthConfig, {"instances_min": 0, "instances_max": 2},
         "instances_min must be >= 1, got 0"),
        (SynthConfig, {"instance_len_max": 7}, "instance_len_max must be >= 8, got 7"),
        (SynthConfig, {"confound_strength": 1.5},
         r"confound_strength must lie in \[0, 1\], got 1.5"),
        (SynthConfig, {"noise_sigma": -0.1}, "noise_sigma must be >= 0, got -0.1"),
        (SynthConfig, {"num_train": 0}, "num_train must be >= 1, got 0"),
        (SynthConfig, {"num_test": -1}, "num_test must be >= 0, got -1"),
        (SynthConfig, {"t_min": 8, "t_max": 12, "instances_min": 3, "instances_max": 3,
                       "instance_len_min": 4, "instance_len_max": 6},
         "instances cannot fit: 3 x 4 snippets plus 4 background gaps exceed min T=8"),
        (Config, {"iou_thresholds": (2.0, 0.5)},
         r"^iou_thresholds: 2.0 is outside \(0, 1\]$"),
        (Config, {"iou_thresholds": (0.5, 0.50001)},
         r"^iou_thresholds: 0.50001 is repeated$"),
        (Config, {"iou_thresholds": ()}, "^iou_thresholds: need at least one value$"),
    ])
    def test_bad_value_is_refused_on_build_and_replace(self, cls, changes, message):
        with pytest.raises(ConfigError, match=message):
            cls(**changes)
        with pytest.raises(ConfigError, match=message):
            replace(cls(), **changes)

    @pytest.mark.parametrize("cls, changes", [
        (Hyperparams, {"k": 1, "epsilon": 0.0, "nms_iou": 0.0, "embed_dim": 0,
                       "lam": 0.0, "beta": 0.0, "kernel_size": 1}),
        (Hyperparams, {"epsilon": 1.0}),
        (RunConfig, {"learning_rate": 0.0, "decay_fraction": 0.0, "weight_decay": 0.0,
                     "iterations": 1, "batch_size": 1, "seed": 0,
                     "checkpoint_every": 0}),
        (RunConfig, {"decay_fraction": 1.0}),
        (Hyperparams, {"rho_cls": 0.0, "proposal_thresholds": (0.001, 0.999)}),
        (Hyperparams, {"rho_cls": 1.0}),
        (SynthConfig, {"num_classes": 1, "feature_dim": 1, "t_min": 3, "t_max": 3,
                       "instances_min": 1, "instances_max": 1,
                       "instance_len_min": 1, "instance_len_max": 1,
                       "confound_strength": 0.0, "noise_sigma": 0.0, "num_train": 1,
                       "num_test": 0, "seed": 0}),
        (SynthConfig, {"confound_strength": 1.0}),
        (Config, {"iou_thresholds": (1.0, 0.5, 0.5001)}),
    ])
    def test_range_ends_are_accepted(self, cls, changes):
        got = replace(cls(), **changes)
        assert all(getattr(got, name) == value for name, value in changes.items())

    def test_load_names_the_section(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"^\[run\] learning_rate must be >= 0, got -1.0$"):
            load_config(_write(tmp_path, "[run]\nlearning_rate = -1\n"))


def _readme_table() -> dict:
    """Section -> keys named in the README's key table."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    table, section = {}, None
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) != 4 or cells[0] in ("Section", "---"):
            continue
        section = cells[0].strip("`[]") or section
        table.setdefault(section, set()).update(re.findall(r"`(\w+)`", cells[1]))
    return table


# the settings dataclass of each section, and the field types a value can spell
SETTINGS = {"synth": SynthConfig, "hyperparams": Hyperparams, "run": RunConfig,
            "eval": Config}
PARSABLE = (int, float, bool, tuple, GradMode)


class TestReadmeKeyTable:
    """A section accepts exactly the fields of its dataclass whose type an
    INI value can spell, by their own names, and README's key table lists
    exactly those keys."""

    @pytest.mark.parametrize("section, cls", SETTINGS.items())
    def test_table_names_every_accepted_key_and_no_other(self, tmp_path, section, cls):
        keys = {name for name, kind in get_type_hints(cls).items() if kind in PARSABLE}
        assert _readme_table()[section] == keys
        for key in keys:  # each is a key, whatever its value's fate
            try:
                load_config(_write(tmp_path, f"[{section}]\n{key} = 1\n"))
            except ConfigError as exc:
                assert "unknown key" not in str(exc), key
        for name in {f.name for f in fields(cls)} - keys:
            with pytest.raises(ConfigError, match=rf"^\[{section}\] unknown key '{name}'"):
                load_config(_write(tmp_path, f"[{section}]\n{name} = 1\n"))

    def test_table_has_only_the_config_sections(self):
        assert set(_readme_table()) == set(SETTINGS) == set(SECTIONS)


class TestBenchWorkloads:
    """The benchmark's worlds load to the values they have always been
    measured at, spelled out field by field."""

    WORLDS = {
        "golden": dict(num_classes=5, feature_dim=32, t_min=60, t_max=120,
                       instances_min=1, instances_max=3, instance_len_min=8,
                       instance_len_max=20, confound_strength=0.8, noise_sigma=0.7,
                       num_train=200, num_test=60, seed=7),
        "long": dict(num_classes=5, feature_dim=256, t_min=300, t_max=600,
                     instances_min=2, instances_max=5, instance_len_min=20,
                     instance_len_max=80, confound_strength=0.8, noise_sigma=0.7,
                     num_train=40, num_test=12, seed=7),
        "gradcheck": dict(num_classes=3, feature_dim=6, t_min=8, t_max=16,
                          instances_min=1, instances_max=2, instance_len_min=2,
                          instance_len_max=5, confound_strength=0.8, noise_sigma=0.7,
                          num_train=200, num_test=60, seed=7),
    }

    @pytest.mark.parametrize("name", WORLDS)
    def test_workload_world(self, name):
        cfg = load_config(str(REPO / "bench" / "workloads" / f"{name}.ini"))
        assert asdict(cfg.synth) == self.WORLDS[name]
        assert cfg == Config(synth=SynthConfig(**self.WORLDS[name]))
