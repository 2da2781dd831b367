"""INI config parsing: coercion, range pairs, and typo suggestions."""

from dataclasses import replace
from typing import get_type_hints

import pytest

from wtalkit.config import Config, load_config
from wtalkit.errors import ConfigError
from wtalkit.losses import GradMode
from wtalkit.model import Hyperparams
from wtalkit.synth import SynthConfig
from wtalkit.trainer import RunConfig


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
        assert cfg.synth.t_range == (24, 40)
        assert cfg.synth.noise_sigma == 0.2
        assert cfg.run.hp.lam == 0.2
        assert cfg.run.hp.k == 2
        assert cfg.run.iterations == 50
        assert cfg.run.grad_mode is GradMode.BGES
        assert cfg.run.use_ten is True
        assert cfg.run.seed == 9
        assert cfg.run.batch_size == 4
        assert cfg.eval_thresholds == (0.3, 0.5, 0.7)

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
        assert cfg.eval_thresholds == (1.0, 0.1)

    def test_partial_range_override_keeps_other_end(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[synth]\nt_min = 70\n"))
        assert cfg.synth.t_range == (70, 120)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[model\]"):
            load_config(_write(tmp_path, "[model]\nx = 1\n"))

    def test_unknown_key_suggests(self, tmp_path):
        with pytest.raises(ConfigError, match="noise_sigma"):
            load_config(_write(tmp_path, "[synth]\nnoise_sigm = 0.1\n"))

    def test_removed_t_train_key_is_rejected(self, tmp_path):
        # t_train was parsed but never read; it is now an unknown key
        with pytest.raises(ConfigError, match=r"\[hyperparams\] unknown key 't_train'"):
            load_config(_write(tmp_path, "[hyperparams]\nt_train = 100\n"))

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
        with pytest.raises(ConfigError, match="mode"):
            load_config(_write(tmp_path, "[run]\nmode = reverse\n"))

    def test_mode_names_cover_all(self, tmp_path):
        for mode in GradMode:
            cfg = load_config(_write(tmp_path, f"[run]\nmode = {mode.value}\n"))
            assert cfg.run.grad_mode is mode


class TestHyperparamKeys:
    def test_proposal_thresholds_list(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "[hyperparams]\nproposal_thresholds = 0.2, 0.4, 0.6\n"))
        assert cfg.run.hp.proposal_thresholds == (0.2, 0.4, 0.6)

    def test_bvl_weight_none(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[hyperparams]\nbvl_weight = none\n"))
        assert cfg.run.hp.bvl_weight is None

    def test_bvl_weight_number(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[hyperparams]\nbvl_weight = 0.25\n"))
        assert cfg.run.hp.bvl_weight == 0.25

    def test_stop_gradient_targets_bool(self, tmp_path):
        cfg = load_config(_write(
            tmp_path, "[hyperparams]\nstop_gradient_targets = off\n"))
        assert cfg.run.hp.stop_gradient_targets is False


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"))

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            load_config(_write(tmp_path, "not an ini at all\n"))

    def test_unknown_eval_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[eval\]"):
            load_config(_write(tmp_path, "[eval]\nthresholds = 0.5\n"))


class TestFieldKeys:
    @pytest.mark.parametrize("section, cls", [
        ("synth", SynthConfig), ("hyperparams", Hyperparams), ("run", RunConfig)])
    def test_every_scalar_field_is_a_key_of_its_type(self, tmp_path, section, cls):
        scalars = {name: kind for name, kind in get_type_hints(cls).items()
                   if kind in (int, float, bool)}
        assert len(scalars) >= 8
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
        (Hyperparams, {"gauss_sigma": 0.0}, "gauss_sigma must be > 0, got 0.0"),
        (Hyperparams, {"gauss_radius": -1}, "gauss_radius must be >= 0, got -1"),
        (Hyperparams, {"proposal_thresholds": (0.2, float("nan"))},
         "proposal_thresholds must be finite, got nan"),
        (Hyperparams, {"bvl_weight": -0.5}, "bvl_weight must be >= 0 or none, got -0.5"),
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
        (SynthConfig, {"t_range": (40, 30)},
         r"t_range must be a \(low, high\) pair with 1 <= low <= high, got \(40, 30\)"),
        (SynthConfig, {"instances_range": (0, 2)},
         r"instances_range must be a \(low, high\) pair .*, got \(0, 2\)"),
        (SynthConfig, {"instance_len_range": (8,)},
         r"instance_len_range must be a \(low, high\) pair .*, got \(8,\)"),
        (SynthConfig, {"confound_strength": 1.5},
         r"confound_strength must lie in \[0, 1\], got 1.5"),
        (SynthConfig, {"noise_sigma": -0.1}, "noise_sigma must be >= 0, got -0.1"),
        (SynthConfig, {"num_train": 0}, "num_train must be >= 1, got 0"),
        (SynthConfig, {"num_test": -1}, "num_test must be >= 0, got -1"),
        (SynthConfig, {"t_range": (8, 12), "instances_range": (3, 3),
                       "instance_len_range": (4, 6)},
         "instances cannot fit: 3 x 4 snippets plus 4 background gaps exceed min T=8"),
        (Config, {"eval_thresholds": (2.0, 0.5)},
         r"^iou_thresholds: 2.0 is outside \(0, 1\]$"),
        (Config, {"eval_thresholds": (0.5, 0.50001)},
         r"^iou_thresholds: 0.50001 is repeated$"),
        (Config, {"eval_thresholds": ()}, "^iou_thresholds: need at least one value$"),
    ])
    def test_bad_value_is_refused_on_build_and_replace(self, cls, changes, message):
        with pytest.raises(ConfigError, match=message):
            cls(**changes)
        with pytest.raises(ConfigError, match=message):
            replace(cls(), **changes)

    @pytest.mark.parametrize("cls, changes", [
        (Hyperparams, {"k": 1, "epsilon": 0.0, "nms_iou": 0.0, "embed_dim": 0,
                       "gauss_radius": 0, "lam": 0.0, "beta": 0.0, "kernel_size": 1,
                       "bvl_weight": 0.0}),
        (Hyperparams, {"epsilon": 1.0, "bvl_weight": None}),
        (RunConfig, {"learning_rate": 0.0, "decay_fraction": 0.0, "weight_decay": 0.0,
                     "iterations": 1, "batch_size": 1, "seed": 0,
                     "checkpoint_every": 0}),
        (RunConfig, {"decay_fraction": 1.0}),
        (Hyperparams, {"rho_cls": 0.0, "proposal_thresholds": (0.001, 0.999)}),
        (Hyperparams, {"rho_cls": 1.0}),
        (SynthConfig, {"num_classes": 1, "feature_dim": 1, "t_range": (3, 3),
                       "instances_range": (1, 1), "instance_len_range": (1, 1),
                       "confound_strength": 0.0, "noise_sigma": 0.0, "num_train": 1,
                       "num_test": 0, "seed": 0}),
        (SynthConfig, {"confound_strength": 1.0}),
        (Config, {"eval_thresholds": (1.0, 0.5, 0.5001)}),
    ])
    def test_range_ends_are_accepted(self, cls, changes):
        got = replace(cls(), **changes)
        assert all(getattr(got, name) == value for name, value in changes.items())

    def test_load_names_the_section(self, tmp_path):
        with pytest.raises(ConfigError,
                           match=r"^\[run\] learning_rate must be >= 0, got -1.0$"):
            load_config(_write(tmp_path, "[run]\nlearning_rate = -1\n"))
