"""INI config parsing: coercion, range pairs, and typo suggestions."""

import pytest

from wtalkit.config import Config, load_config
from wtalkit.errors import ConfigError
from wtalkit.losses import GradMode


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
