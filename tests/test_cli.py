"""End-to-end command-line behaviour, run in process via main(argv)."""

import os
import re
import struct
import warnings
import zlib
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import wtalkit.losses as losses_mod
from wtalkit.cli import ENV_CONFIG, build_parser, main
from wtalkit.model import ModelParams, init_params, load_checkpoint, save_checkpoint
from wtalkit.synth import VideoRecord, read_dataset, write_dataset
from wtalkit.trainer import COMPONENT_GRID

BLOCK_NAMES = [name for name, _ in ModelParams.zeros(1, 1, 1, 1).blocks()]

TINY_INI = """
[synth]
num_classes = 3
feature_dim = 8
t_min = 24
t_max = 36
instances_min = 1
instances_max = 2
instance_len_min = 5
instance_len_max = 8
noise_sigma = 0.2
num_train = 8
num_test = 4
seed = 5

[hyperparams]
embed_dim = 8

[run]
iterations = 4
batch_size = 4
"""


@pytest.fixture()
def ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


@pytest.fixture()
def data_dir(tmp_path, ini):
    out = tmp_path / "data"
    assert main(["--config", ini, "gen", "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_pair_and_checksums(self, tmp_path, ini, capsys):
        out = tmp_path / "d"
        assert main(["--config", ini, "gen", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sha256=" in printed
        ds = read_dataset(out / "train.bin")
        assert len(ds.records) == 8 and ds.num_classes == 3
        assert len(read_dataset(out / "test.bin").records) == 4

    def test_deterministic_under_seed(self, tmp_path, ini):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", ini, "gen", "--out", str(a), "--seed", "9"]) == 0
        assert main(["--config", ini, "gen", "--out", str(b), "--seed", "9"]) == 0
        assert (a / "train.bin").read_bytes() == (b / "train.bin").read_bytes()

    def test_overrides_change_output(self, tmp_path, ini):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--config", ini, "gen", "--out", str(a)])
        main(["--config", ini, "gen", "--out", str(b), "--noise", "0.5"])
        assert (a / "train.bin").read_bytes() != (b / "train.bin").read_bytes()

    def test_env_var_supplies_config(self, tmp_path, ini, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG, ini)
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out)]) == 0
        assert len(read_dataset(out / "train.bin").records) == 8

    def test_empty_env_var_means_no_config(self, tmp_path, data_dir, monkeypatch, capsys):
        argv = ["train", "--data", str(data_dir / "train.bin"), "--iterations", "1"]
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        assert main([*argv, "--out", str(tmp_path / "unset.ckpt")]) == 0
        monkeypatch.setenv(ENV_CONFIG, "")
        assert main([*argv, "--out", str(tmp_path / "empty.ckpt")]) == 0
        assert (tmp_path / "empty.ckpt").read_bytes() == (tmp_path / "unset.ckpt").read_bytes()
        capsys.readouterr()
        assert main(["--config", "", *argv]) == 1  # an explicit empty path is refused
        assert "config error: cannot read config ''" in capsys.readouterr().err


class TestTrainLocalizeEval:
    def test_full_pipeline(self, tmp_path, ini, data_dir, capsys):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        rc = main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                   "--out", str(ckpt), "--log", str(log), "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final losses:" in out
        assert ckpt.exists()
        assert log.read_text().startswith("step,loss_fg")

        props = tmp_path / "props.txt"
        rc = main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                   "--data", str(data_dir / "test.bin"), "--out", str(props)])
        assert rc == 0
        assert props.exists()

        report = tmp_path / "report.csv"
        rc = main(["--config", ini, "eval", "--proposals", str(props),
                   "--data", str(data_dir / "test.bin"), "--out", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IoU" in out and "mAP" in out
        assert report.read_text().startswith("threshold,class,ap")

    def test_train_mode_and_ten_flags(self, tmp_path, ini, data_dir):
        rc = main(["--config", ini, "train", "--data",
                   str(data_dir / "train.bin"), "--mode", "bges", "--ten",
                   "--iterations", "2", "--seed", "1"])
        assert rc == 0

    def test_bvl_mode_logs_and_prints_the_bvl_term(self, tmp_path, ini, data_dir,
                                                   capsys):
        log = tmp_path / "log.csv"
        capsys.readouterr()
        assert main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                     "--mode", "bvl", "--iterations", "3", "--log", str(log)]) == 0
        header, *rows = [line.split(",") for line in log.read_text().splitlines()]
        assert header[5:7] == ["loss_bvl", "loss_all"]
        assert len(rows) == 3 and all(float(row[5]) > 0 for row in rows)
        printed = capsys.readouterr().out
        assert f" bvl={float(rows[-1][5]):.4f} total=" in printed

    def test_train_missing_data_is_exit_2(self, tmp_path, ini):
        rc = main(["--config", ini, "train", "--data",
                   str(tmp_path / "missing.bin")])
        assert rc == 2

    def test_corrupt_dataset_is_exit_2(self, tmp_path, ini, data_dir):
        path = data_dir / "train.bin"
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        rc = main(["--config", ini, "train", "--data", str(path)])
        assert rc == 2


    def test_non_finite_feature_is_exit_2_naming_video_and_offset(
            self, tmp_path, ini, data_dir, capsys):
        # one NaN in the second video's flow stream, CRC recomputed so that
        # only the value check can catch it
        path = data_dir / "train.bin"
        ds = read_dataset(path)
        first, second = ds.records[:2]
        blob = bytearray(path.read_bytes())
        stream = blob.index(second.x_flow.astype("<f8").tobytes())
        bad = stream + 8 * (2 * ds.feature_dim + 3)  # snippet 2, feature 3
        blob[bad : bad + 8] = struct.pack("<d", float("nan"))
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["--config", ini, "train", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{second.video_id} flow features at snippet 2" in err
        assert f"byte offset {bad})" in err

    def test_duplicate_video_id_is_exit_2_naming_id_and_offset(
            self, tmp_path, ini, data_dir, capsys):
        # the second test video takes the first one's id (same length), CRC
        # recomputed so that only the id check can catch it
        path = data_dir / "test.bin"
        first, second = read_dataset(path).records[:2]
        blob = bytearray(path.read_bytes())
        at = blob.index(second.video_id.encode())
        blob[at:at + len(first.video_id)] = first.video_id.encode()
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
        path.write_bytes(bytes(blob))
        props = tmp_path / "p.txt"
        props.write_text(f"{first.video_id} 0 0.9 0 1\n")
        capsys.readouterr()
        assert main(["--config", ini, "eval", "--proposals", str(props),
                     "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"data error: duplicate video id {first.video_id!r} (at byte offset {at})" in err

    def test_zero_snippet_video_is_exit_2_naming_video_and_offset(
            self, tmp_path, ini, data_dir, monkeypatch, capsys):
        ds = read_dataset(data_dir / "train.bin")
        empty = ds.records[1]
        empty.x_rgb, empty.x_flow = empty.x_rgb[:0], empty.x_flow[:0]
        empty.ground_truth = []
        path = tmp_path / "empty.bin"
        with monkeypatch.context() as m:  # the writer refuses such a video
            m.setattr(VideoRecord, "validate", lambda self: None)
            write_dataset(path, ds.records, num_classes=ds.num_classes)
        capsys.readouterr()
        assert main(["--config", ini, "train", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {empty.video_id}: no snippets" in err
        assert "byte offset" in err

    @pytest.mark.parametrize("vid", ["#x", "a b", "a\tb", ""])
    def test_video_id_a_proposal_line_cannot_carry_is_exit_2(
            self, tmp_path, ini, data_dir, monkeypatch, vid, capsys):
        # such an id would be dropped as a comment, or split into columns,
        # when eval reads the proposal file back
        ds = read_dataset(data_dir / "test.bin")
        ds.records[1].video_id = vid
        path = tmp_path / "bad_id.bin"
        with monkeypatch.context() as m:  # the writer refuses such an id
            m.setattr(VideoRecord, "validate", lambda self: None)
            write_dataset(path, ds.records, num_classes=ds.num_classes)
        ckpt = tmp_path / "m.ckpt"
        assert main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                     "--out", str(ckpt)]) == 0
        props = tmp_path / "p.txt"
        capsys.readouterr()
        assert main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                     "--data", str(path), "--out", str(props)]) == 2
        err = capsys.readouterr().err
        assert f"data error: video id {vid!r} must be non-empty" in err
        assert not props.exists()

    def test_decay_fraction_out_of_range_is_exit_1(self, tmp_path, data_dir,
                                                  capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_INI + "decay_fraction = 1.5\n")
        rc = main(["--config", str(bad), "train", "--data",
                   str(data_dir / "train.bin")])
        assert rc == 1
        assert "decay_fraction must lie in [0, 1]" in capsys.readouterr().err

    def test_iterations_below_one_is_exit_1_and_writes_nothing(
            self, tmp_path, ini, data_dir, capsys):
        ckpt = tmp_path / "m.ckpt"
        rc = main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                   "--iterations", "-3", "--out", str(ckpt)])
        assert rc == 1
        assert "iterations must be >= 1, got -3" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_non_finite_checkpoint_is_exit_2_naming_block_and_offset(
            self, tmp_path, ini, data_dir, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                     "--out", str(ckpt)]) == 0
        params = load_checkpoint(ckpt)
        params.rgb.w_cls[1, 2] = np.nan
        save_checkpoint(ckpt, params)
        capsys.readouterr()
        rc = main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                   "--data", str(data_dir / "test.bin"),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite value in checkpoint block rgb.w_cls" in err
        # past the 28-byte head, rgb.w_embed (8 * 8 * 3) and rgb.b_embed (8),
        # then row 1, column 2 of the (8, 4) classifier
        assert f"byte offset {28 + 8 * (192 + 8 + 1 * 4 + 2)})" in err
        assert not (tmp_path / "p.tsv").exists()


class TestBadSettings:
    """Every setting is checked when the config loads and when a flag or an
    ablation row overrides it: a bad value is a config error (exit 1) naming
    the key, before any data is read."""

    @pytest.fixture(autouse=True)
    def no_data(self, monkeypatch):
        from wtalkit import cli

        def never(*args, **kwargs):
            raise AssertionError("data was read before the settings were checked")

        monkeypatch.setattr(cli, "read_dataset", never)
        monkeypatch.setattr(cli, "ablate", None)  # no row may train

    def _refused(self, argv, message, output, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"config error: {message}" in err
        assert not output.exists()

    @pytest.mark.parametrize("ini_text, flags, message", [
        ("[hyperparams]\nk = 0\n", ["--ten"], "[hyperparams] k must be >= 1, got 0"),
        ("[hyperparams]\nlam = nan\n", [], "[hyperparams] lam must be finite, got nan"),
        ("[run]\nlearning_rate = -1\n", [],
         "[run] learning_rate must be >= 0, got -1.0"),
        ("[run]\nbatch_size = 0\n", [], "[run] batch_size must be >= 1, got 0"),
        ("[hyperparams]\nepsilon = 2\n", [],
         "[hyperparams] epsilon must lie in [0, 1], got 2.0"),
        ("[hyperparams]\nnms_iou = -1\n", [],
         "[hyperparams] nms_iou must be >= 0, got -1.0"),
        ("[hyperparams]\nproposal_thresholds =\n", [],
         "[hyperparams] proposal_thresholds must not be empty, got ()"),
        ("[hyperparams]\nembed_dim = -4\n", [],
         "[hyperparams] embed_dim must be >= 0, got -4"),
        ("", ["--lam", "nan"], "lam must be finite, got nan"),
        ("[hyperparams]\nproposal_thresholds = 2\n", [],
         "[hyperparams] proposal_thresholds must each lie in (0, 1), got (2.0,)"),
        ("[hyperparams]\nrho_cls = 1.5\n", [],
         "[hyperparams] rho_cls must lie in [0, 1], got 1.5"),
        ("[eval]\niou_thresholds = 0.5 2\n", [],
         "[eval] iou_thresholds: 2.0 is outside (0, 1]"),
        # keys of settings that were removed, not renamed
        ("[hyperparams]\nstop_gradient_targets = false\n", [],
         "[hyperparams] unknown key 'stop_gradient_targets'"),
        ("[hyperparams]\nbvl_weight = 0.5\n", [], "[hyperparams] unknown key 'bvl_weight'"),
        ("[synth]\nprototype_scale = 2\n", [], "[synth] unknown key 'prototype_scale'"),
    ], ids=["k_0", "lam_nan", "learning_rate_-1", "batch_size_0", "epsilon_2",
            "nms_iou_-1", "proposal_thresholds_empty", "embed_dim_-4", "flag_lam_nan",
            "proposal_thresholds_2", "rho_cls_1.5", "iou_thresholds_2",
            "removed_stop_gradient_targets", "removed_bvl_weight",
            "removed_prototype_scale"])
    def test_train(self, ini_text, flags, message, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(ini_text)
        ckpt = tmp_path / "m.ckpt"
        argv = ["--config", str(ini), "train", "--data", str(tmp_path / "train.bin"),
                "--out", str(ckpt), *flags]
        self._refused(argv, message, ckpt, capsys)

    @pytest.mark.parametrize("grid, values, message", [
        ("k", "0,2", "k must be >= 1, got 0"),
        ("lambda", "nan", "lam must be finite, got nan"),
        ("k", "2,2.5",
         "--values for --grid k: invalid literal for int() with base 10: '2.5'"),
        ("lambda", "0.1,big",
         "--values for --grid lambda: could not convert string to float: 'big'"),
    ])
    def test_ablate_grid_row(self, grid, values, message, tmp_path, capsys):
        ini = tmp_path / "empty.ini"
        ini.write_text("")
        out_csv = tmp_path / "grid.csv"
        argv = ["--config", str(ini), "ablate", "--data", str(tmp_path / "train.bin"),
                "--test", str(tmp_path / "test.bin"), "--grid", grid,
                "--values", values, "--out", str(out_csv)]
        self._refused(argv, message, out_csv, capsys)


class TestNumericFailure:
    """A training blow-up exits 3 with one stderr line that names the step,
    the batch and what failed, whichever thread ran the overflowing GEMM."""

    @pytest.mark.parametrize("run, failure", [
        ("learning_rate = 1.7e308\nweight_decay = 1.0\n",
         "adam_step produced non-finite parameters"),
        ("learning_rate = 1e308\n",
         r"forward produced non-finite outputs at batch position \d+ \(train_\d+\)"),
    ], ids=["adam", "forward"])
    @pytest.mark.parametrize("paired", [False, True], ids=["stacked", "paired"])
    def test_names_the_step_on_one_line(self, tmp_path, data_dir, capsys, run, failure,
                                        paired):
        path = tmp_path / "blowup.ini"
        path.write_text(TINY_INI.replace("[run]\n", "[run]\n" + run))
        pool = losses_mod._worker(os.getpid())
        with patch.object(losses_mod, "PAIR_WORK", 0 if paired else np.inf), \
                patch.object(losses_mod, "_may_pair", lambda: True), \
                patch.object(pool, "submit", wraps=pool.submit) as submit, \
                warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["--config", str(path), "train", "--data", str(data_dir / "train.bin"),
                       "--iterations", "5"])
        assert rc == 3
        assert submit.called == paired
        assert [str(w.message) for w in seen] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"numeric failure: step \d+ on batch \['train_\d+'.*\]: " + failure,
                            lines[0]), lines[0]


class TestGradcheck:
    def test_passes_quickly(self, capsys):
        # by default one line per mode that is a gradient, in GradMode order
        rc = main(["gradcheck", "--instances", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in lines] == ["standard", "bges", "bvl", "bvl+bges"]
        assert all(line.endswith(" PASS") for line in lines)

    @pytest.mark.parametrize("block", BLOCK_NAMES)
    def test_injected_bug_fails_with_exit_3(self, block, capsys):
        # every named block's gradient is under test: negating any one fails
        rc = main(["gradcheck", "--instances", "2", "--inject-bug", block])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out

    def test_mode_subset(self, capsys):
        rc = main(["gradcheck", "--instances", "1", "--modes", "standard"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "standard" in out and "bges" not in out

    @pytest.mark.parametrize("modes", ["bogus", "standard,bogus"])
    def test_unknown_mode_is_config_error_listing_the_modes(self, modes, capsys):
        assert main(["gradcheck", "--instances", "1", "--modes", modes]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: --modes: 'bogus' is not one of ['bges', 'bvl'," in err

    @staticmethod
    def _no_instance(monkeypatch):
        def never(seed):
            raise AssertionError("an instance was drawn before the arguments were refused")
        monkeypatch.setattr(losses_mod, "make_tiny_instance", never)

    def _refused(self, argv, message, monkeypatch, capsys):
        self._no_instance(monkeypatch)
        assert main(["gradcheck", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("modes, message", [
        ("grl", "modes: grl is not the gradient of a loss, so it cannot be certified"),
        ("standard,grl", "modes: grl is not the gradient of a loss, so it cannot be certified"),
        ("bges,bges", "modes: bges is named twice"),
        ("bges,standard,bges", "modes: bges is named twice"),
    ])
    def test_mode_that_cannot_be_certified_once_is_config_error(self, modes, message,
                                                                monkeypatch, capsys):
        self._refused(["--instances", "1", "--modes", modes], message, monkeypatch, capsys)

    def test_empty_mode_list_is_config_error(self, monkeypatch, capsys):
        TestDirectoryAsPath._no_work(monkeypatch, "certify_gradients")
        assert main(["gradcheck", "--instances", "1", "--modes", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: --modes: '' is not one of ['bges', 'bvl',")

    def test_unknown_injected_block_is_config_error_before_any_instance(self, monkeypatch,
                                                                        capsys):
        self._refused(["--instances", "1", "--inject-bug", "rgb.w_nope"],
                      "flip_block: no parameter block 'rgb.w_nope'", monkeypatch, capsys)

    def test_help_names_the_default_modes(self, capsys):
        assert main(["gradcheck", "--help"]) == 0
        assert "default standard,bges,bvl,bvl+bges" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_instances_below_one_is_config_error(self, instances, monkeypatch, capsys):
        self._refused(["--instances", instances],
                      f"num_instances must be >= 1, got {instances}", monkeypatch, capsys)

    @pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf"])
    def test_bad_step_is_config_error_before_any_certification(self, eps, monkeypatch,
                                                              capsys):
        self._refused(["--instances", "1", f"--eps={eps}"],
                      f"fd_epsilon must be finite and > 0, got {float(eps)}",
                      monkeypatch, capsys)

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_bad_tolerance_is_config_error_before_any_certification(self, tolerance,
                                                                    monkeypatch, capsys):
        self._refused(["--instances", "1", f"--tolerance={tolerance}"],
                      f"tolerance must be finite and >= 0, got {float(tolerance)}",
                      monkeypatch, capsys)

    def test_infinite_tolerance_cannot_pass_a_negated_block(self, capsys):
        # every relative error is below inf, so the certificate would pass
        # with the attention weights' gradient negated
        argv = ["gradcheck", "--tolerance", "inf", "--inject-bug", "rgb.w_att",
                "--modes", "standard"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: tolerance must be finite and >= 0, got inf\n"


class TestMissingOutputDirectory:
    """An output path in a directory that does not exist is a data error
    (exit 2) naming that path, raised before any work is done."""

    def _refused(self, argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"data error: cannot write {path}: its directory does not exist" in err

    @pytest.mark.parametrize("flag", ["--log", "--out"])
    def test_train_writes_no_checkpoint(self, flag, tmp_path, ini, data_dir, capsys):
        missing = str(tmp_path / "nodir" / "x.out")
        ckpt = tmp_path / "m.ckpt"
        argv = ["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                "--out", str(ckpt), flag, missing]
        self._refused(argv, missing, capsys)
        assert not ckpt.exists()

    def test_localize_eval_and_ablate(self, tmp_path, ini, data_dir, capsys):
        missing = str(tmp_path / "nodir" / "x.out")
        ckpt = tmp_path / "m.ckpt"
        props = tmp_path / "p.tsv"
        test = str(data_dir / "test.bin")
        assert main(["--config", ini, "train", "--data", str(data_dir / "train.bin"),
                     "--out", str(ckpt)]) == 0
        assert main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                     "--data", test, "--out", str(props)]) == 0
        self._refused(["--config", ini, "localize", "--checkpoint", str(ckpt),
                       "--data", test, "--out", missing], missing, capsys)
        self._refused(["--config", ini, "eval", "--proposals", str(props),
                       "--data", test, "--out", missing], missing, capsys)
        self._refused(["--config", ini, "ablate", "--data", str(data_dir / "train.bin"),
                       "--test", test, "--out", missing], missing, capsys)


class TestDirectoryAsPath:
    """A directory given where a file goes, or a file where `gen`'s output
    directory goes, is a data error (exit 2) with a one-line message, raised
    before any training, inference, scoring or generation."""

    @staticmethod
    def _no_work(monkeypatch, *names):
        import wtalkit.cli

        def never(*args, **kwargs):
            raise AssertionError("work ran before the path was refused")
        for name in names:
            monkeypatch.setattr(wtalkit.cli, name, never)

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # `gen` runs in the data_dir fixture, so its own test stubs it
        self._no_work(monkeypatch, "train", "localize_dataset", "evaluate", "ablate")

    def _refused(self, argv, message, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err

    @pytest.fixture()
    def folder(self, tmp_path):
        path = tmp_path / "folder"
        path.mkdir()
        return path

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    def test_train_output(self, flag, folder, tmp_path, ini, data_dir, capsys):
        ckpt = tmp_path / "m.ckpt"
        outputs = {"--out": str(ckpt), flag: str(folder)}
        argv = ["--config", ini, "train", "--data", str(data_dir / "train.bin")]
        argv += [v for pair in outputs.items() for v in pair]
        self._refused(argv, f"cannot write {folder}: it is a directory", capsys)
        assert not ckpt.exists() and not any(folder.iterdir())

    def test_train_data(self, folder, tmp_path, ini, capsys):
        ckpt = tmp_path / "m.ckpt"
        self._refused(["--config", ini, "train", "--data", str(folder), "--out", str(ckpt)],
                      f"Is a directory: '{folder}'", capsys)
        assert not ckpt.exists()

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(np.random.default_rng(0), 8, 8, 3))
        return path

    def test_localize_output(self, folder, ckpt, ini, data_dir, capsys):
        self._refused(["--config", ini, "localize", "--checkpoint", str(ckpt),
                       "--data", str(data_dir / "test.bin"), "--out", str(folder)],
                      f"cannot write {folder}: it is a directory", capsys)
        assert not any(folder.iterdir())

    def test_localize_checkpoint(self, folder, tmp_path, ini, data_dir, capsys):
        props = tmp_path / "p.tsv"
        self._refused(["--config", ini, "localize", "--checkpoint", str(folder),
                       "--data", str(data_dir / "test.bin"), "--out", str(props)],
                      f"Is a directory: '{folder}'", capsys)
        assert not props.exists()

    def test_eval_proposals_and_outputs(self, folder, tmp_path, ini, data_dir, capsys):
        report = tmp_path / "r.csv"
        test = str(data_dir / "test.bin")
        self._refused(["--config", ini, "eval", "--proposals", str(folder),
                       "--data", test, "--out", str(report)],
                      f"Is a directory: '{folder}'", capsys)
        assert not report.exists()
        for argv in (["eval", "--proposals", str(report), "--data", test],
                     ["ablate", "--data", str(data_dir / "train.bin"), "--test", test]):
            self._refused(["--config", ini, *argv, "--out", str(folder)],
                          f"cannot write {folder}: it is a directory", capsys)
        assert not any(folder.iterdir())

    def test_gen_output_that_is_a_file(self, tmp_path, ini, monkeypatch, capsys):
        self._no_work(monkeypatch, "generate")
        path = tmp_path / "taken"
        path.write_text("keep")
        self._refused(["--config", ini, "gen", "--out", str(path)],
                      f"File exists: '{path}'", capsys)
        assert path.read_text() == "keep"

    def test_gen_dataset_that_is_a_directory(self, folder, ini, monkeypatch, capsys):
        self._no_work(monkeypatch, "generate")
        (folder / "test.bin").mkdir()
        self._refused(["--config", ini, "gen", "--out", str(folder)],
                      f"cannot write {folder / 'test.bin'}: it is a directory", capsys)
        assert sorted(p.name for p in folder.iterdir()) == ["test.bin"]


class TestEmptyOutputPath:
    """An output flag given as '' is a data error (exit 2) naming the flag,
    raised before any work, as an empty --config is a config error."""

    @pytest.mark.parametrize("command, flag", [("train", "--out"), ("train", "--log"),
                                               ("localize", "--out"), ("eval", "--out"),
                                               ("ablate", "--out")])
    def test_refused_before_any_work(self, command, flag, tmp_path, ini, data_dir,
                                     monkeypatch, capsys):
        TestDirectoryAsPath._no_work(monkeypatch, "train", "localize_dataset",
                                     "evaluate", "ablate")
        train, test = str(data_dir / "train.bin"), str(data_dir / "test.bin")
        ckpt, props = tmp_path / "m.ckpt", tmp_path / "p.tsv"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 8, 8, 3))
        props.write_text("# video_id class q start end\n")
        inputs = {"train": ["--data", train],
                  "localize": ["--checkpoint", str(ckpt), "--data", test],
                  "eval": ["--proposals", str(props), "--data", test],
                  "ablate": ["--data", train, "--test", test]}[command]
        capsys.readouterr()
        assert main(["--config", ini, command, *inputs, flag, ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: cannot write {flag}: the path is empty\n"


class TestEmptyInputPath:
    """An input flag given as '', or `gen --out ''`, is a data error (exit 2)
    naming the flag, raised before any file is read or written."""

    def _refused(self, argv, message, tmp_path, monkeypatch, capsys):
        TestDirectoryAsPath._no_work(monkeypatch, "read_dataset", "load_checkpoint",
                                     "read_proposals", "generate", "train",
                                     "localize_dataset", "evaluate", "ablate")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: {message}\n"
        assert os.listdir(tmp_path) == ["tiny.ini"]

    @pytest.mark.parametrize("command, flag", [
        ("train", "--data"), ("localize", "--checkpoint"), ("localize", "--data"),
        ("eval", "--proposals"), ("eval", "--data"), ("ablate", "--data"),
        ("ablate", "--test")])
    def test_refused_before_any_read(self, command, flag, tmp_path, ini, monkeypatch,
                                     capsys):
        argv = {"train": ["--data", "d.bin", "--out", "m.ckpt"],
                "localize": ["--checkpoint", "m.ckpt", "--data", "d.bin", "--out", "p.tsv"],
                "eval": ["--proposals", "p.tsv", "--data", "d.bin", "--out", "r.csv"],
                "ablate": ["--data", "d.bin", "--test", "t.bin", "--out", "a.csv"]}[command]
        argv[argv.index(flag) + 1] = ""
        self._refused(["--config", ini, command, *argv],
                      f"cannot read {flag}: the path is empty", tmp_path, monkeypatch, capsys)

    def test_gen_out(self, tmp_path, ini, monkeypatch, capsys):
        # os.path.join('', 'train.bin') would write into the working directory
        self._refused(["--config", ini, "gen", "--out", ""],
                      "cannot write --out: the path is empty", tmp_path, monkeypatch, capsys)


class TestOutputNamesAnotherFile:
    """An output path that resolves to the same file as an input (the config
    included) or as another output is a data error (exit 2) with a one-line
    message, raised before any work, and nothing is written."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        TestDirectoryAsPath._no_work(monkeypatch, "train", "localize_dataset",
                                     "evaluate", "ablate")

    @pytest.fixture()
    def files(self, tmp_path, ini, data_dir):
        ckpt, props = tmp_path / "m.ckpt", tmp_path / "p.tsv"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 8, 8, 3))
        props.write_text("")
        return {"ini": Path(ini), "train": data_dir / "train.bin",
                "test": data_dir / "test.bin", "ckpt": ckpt, "props": props}

    def _refused(self, argv, files, message, capsys):
        before = {name: path.read_bytes() for name, path in files.items()}
        made = set(files["ckpt"].parent.iterdir())
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: {message}\n"
        assert {name: path.read_bytes() for name, path in files.items()} == before
        assert set(files["ckpt"].parent.iterdir()) == made

    def test_train(self, files, tmp_path, capsys):
        new = tmp_path / "new.ckpt"
        train = ["--config", str(files["ini"]), "train", "--data", str(files["train"])]
        self._refused(train + ["--out", str(new), "--log", str(new)], files,
                      f"cannot write {new} (--log): it is the same file as --out", capsys)
        self._refused(train + ["--out", str(files["train"])], files,
                      f"cannot write {files['train']} (--out): it is the same file as --data",
                      capsys)
        self._refused(train + ["--log", str(files["ini"])], files,
                      f"cannot write {files['ini']} (--log): it is the same file as the config",
                      capsys)

    def test_localize(self, files, tmp_path, monkeypatch, capsys):
        localize = ["--config", str(files["ini"]), "localize", "--checkpoint",
                    str(files["ckpt"]), "--data", str(files["test"]), "--out"]
        self._refused(localize + [str(files["test"])], files,
                      f"cannot write {files['test']} (--out): it is the same file as --data",
                      capsys)
        # a relative spelling of the checkpoint, and a link to it
        monkeypatch.chdir(tmp_path)
        self._refused(localize + ["./m.ckpt"], files,
                      "cannot write ./m.ckpt (--out): it is the same file as --checkpoint",
                      capsys)
        link = tmp_path / "link.tsv"
        link.symlink_to(files["ckpt"])
        files["link"] = link
        self._refused(localize + [str(link)], files,
                      f"cannot write {link} (--out): it is the same file as --checkpoint",
                      capsys)

    def test_eval(self, files, monkeypatch, capsys):
        evaluate = ["eval", "--proposals", str(files["props"]), "--data", str(files["test"]),
                    "--out"]
        config = ["--config", str(files["ini"])]
        self._refused(config + evaluate + [str(files["props"])], files,
                      f"cannot write {files['props']} (--out): it is the same file as "
                      "--proposals", capsys)
        self._refused(config + evaluate + [str(files["test"])], files,
                      f"cannot write {files['test']} (--out): it is the same file as --data",
                      capsys)
        monkeypatch.setenv(ENV_CONFIG, str(files["ini"]))
        self._refused(evaluate + [str(files["ini"])], files,
                      f"cannot write {files['ini']} (--out): it is the same file as the config",
                      capsys)

    def test_ablate(self, files, capsys):
        ablate = ["--config", str(files["ini"]), "ablate", "--data", str(files["train"]),
                  "--test", str(files["test"]), "--out"]
        for name, flag in (("train", "--data"), ("test", "--test"), ("ini", "the config")):
            self._refused(ablate + [str(files[name])], files,
                          f"cannot write {files[name]} (--out): it is the same file as {flag}",
                          capsys)


def _dataset_file(path, records, num_classes, c=None, d=None):
    """A dataset file of `records`, its header's C and D overwritten when
    given, with the checksum recomputed so that only the header is wrong."""
    write_dataset(path, records, num_classes=num_classes)
    blob = bytearray(path.read_bytes())
    for at, value in ((12, c), (16, d)):
        if value is not None:
            blob[at:at + 4] = struct.pack("<I", value)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
    path.write_bytes(bytes(blob))
    return str(path)


class TestUntrainableDataset:
    """A training file with no videos, no classes, or videos without
    features is a data error (exit 2), raised before any training step."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        TestDirectoryAsPath._no_work(monkeypatch, "train", "ablate")

    def _refused(self, argv, message, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err

    def test_no_videos(self, tmp_path, ini, data_dir, capsys):
        empty = _dataset_file(tmp_path / "empty.bin", [], 3)
        ckpt = tmp_path / "m.ckpt"
        self._refused(["--config", ini, "train", "--data", empty, "--out", str(ckpt)],
                      f"{empty} holds no videos to train on", capsys)
        assert not ckpt.exists()
        self._refused(["--config", ini, "ablate", "--data", empty,
                       "--test", str(data_dir / "test.bin")],
                      f"{empty} holds no videos to train on", capsys)

    @pytest.mark.parametrize("c, d, message", [
        (0, None, "header field num_classes (C) is 0, must be >= 1 (at byte offset 12)"),
        (None, 0, "header field feature_dim (D) is 0 for 8 videos, must be >= 1 "
                  "(at byte offset 16)"),
    ], ids=["no_classes", "no_features"])
    def test_header_without_classes_or_features(self, c, d, message, tmp_path, ini,
                                                data_dir, capsys):
        ds = read_dataset(data_dir / "train.bin")
        bad = _dataset_file(tmp_path / "bad.bin", ds.records, ds.num_classes, c, d)
        self._refused(["--config", ini, "train", "--data", bad], message, capsys)
        self._refused(["--config", ini, "ablate", "--data", bad,
                       "--test", str(data_dir / "test.bin")], message, capsys)


class TestFpsThatTimesNothing:
    """A test set whose header fps is not finite and >= 0 is a data error
    (exit 2) naming the field's offset, before any inference or scoring."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        TestDirectoryAsPath._no_work(monkeypatch, "localize_dataset", "evaluate", "ablate")

    @pytest.mark.parametrize("fps", [float("inf"), float("nan"), -25.0])
    def test_localize_eval_and_ablate(self, fps, tmp_path, ini, data_dir, capsys):
        test = read_dataset(data_dir / "test.bin")
        bad = tmp_path / "bad.bin"
        write_dataset(bad, test.records, test.num_classes, frames_per_snippet=16, fps=25.0)
        blob = bytearray(bad.read_bytes())
        blob[32:40] = struct.pack("<d", fps)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
        bad.write_bytes(bytes(blob))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 8, 8, 3))
        props = tmp_path / "props.txt"
        props.write_text("")
        message = f"header field fps is {fps}, must be finite and >= 0 (at byte offset 32)"
        for argv in (["localize", "--checkpoint", str(ckpt), "--data", str(bad),
                      "--out", str(tmp_path / "out.txt")],
                     ["eval", "--proposals", str(props), "--data", str(bad)],
                     ["ablate", "--data", str(data_dir / "train.bin"), "--test", str(bad)]):
            capsys.readouterr()
            assert main(["--config", ini] + argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert message in err
        assert not (tmp_path / "out.txt").exists()


class TestBadProposals:
    """`eval` refuses a proposal file that cannot describe the test set: a
    data error (exit 2) naming the line or the video, with no report."""

    @pytest.mark.parametrize("case", ["unknown_video", "class_c", "class_minus_1",
                                      "end_past_t", "q_nan", "q_inf"])
    def test_is_exit_2(self, case, tmp_path, ini, data_dir, capsys):
        test = data_dir / "test.bin"
        rec = read_dataset(test).records[0]
        vid, t = rec.video_id, rec.x_rgb.shape[0]
        video = f"video {vid!r}: proposals need a class in [0, 3) and an end <= T = {t}"
        line = "line 3: need class >= 0, finite q and 0 <= start < end, got "
        line, message = {
            "unknown_video": ("ghost 0 0.5 1 3", "proposals reference unknown video 'ghost'"),
            "class_c": (f"{vid} 3 0.5 1 3", video),
            "class_minus_1": (f"{vid} -1 0.5 1 3", line + "-1 0.5 1 3"),
            "end_past_t": (f"{vid} 0 0.5 1 {t + 1}", video),
            "q_nan": (f"{vid} 0 nan 1 3", line + "0 nan 1 3"),
            "q_inf": (f"{vid} 0 inf 1 3", line + "0 inf 1 3"),
        }[case]
        props = tmp_path / "p.txt"
        props.write_text(f"# video_id class q start end\n{vid} 0 0.9 0 {t}\n{line}\n")
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["--config", ini, "eval", "--proposals", str(props),
                     "--data", str(test), "--out", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"data error: {message}" in err
        assert not report.exists()


class TestUndecodableInput:
    """Bytes that are not UTF-8 where text belongs, and integers past int64,
    fail closed: a data error (exit 2) or a config error (exit 1) in one
    stderr line, with no output."""

    @pytest.mark.parametrize("line, message", [
        (b"{vid} 99999999999999999999 0.5 1 5",
         "line 2: class, start and end must be below 2^63, got 99999999999999999999 0.5 1 5"),
        (b"{vid} 0 0.5 1 3 \xff", "line 2: not UTF-8 (invalid start byte)"),
    ], ids=["class_past_int64", "not_utf8"])
    def test_proposal_line(self, line, message, tmp_path, ini, data_dir, capsys):
        test = data_dir / "test.bin"
        vid = read_dataset(test).records[0].video_id
        props = tmp_path / "p.txt"
        props.write_bytes(b"# video_id class q start end\n" + line.replace(b"{vid}", vid.encode())
                          + b"\n")
        report = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["--config", ini, "eval", "--proposals", str(props),
                     "--data", str(test), "--out", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"data error: {message}") and err.count("\n") == 1
        assert not report.exists()

    def test_dataset_video_id(self, tmp_path, ini, data_dir, capsys):
        # the second test video's id gets a byte that is not UTF-8, CRC
        # recomputed so that only the id's decoding can catch it
        path = data_dir / "test.bin"
        first, second = read_dataset(path).records[:2]
        blob = bytearray(path.read_bytes())
        at = blob.index(second.video_id.encode())
        blob[at] = 0xFF
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
        path.write_bytes(bytes(blob))
        props = tmp_path / "p.txt"
        props.write_text(f"{first.video_id} 0 0.9 0 1\n")
        capsys.readouterr()
        assert main(["--config", ini, "eval", "--proposals", str(props),
                     "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("data error: video id is not UTF-8 (invalid start byte at its byte 0) "
                       f"(at byte offset {at})\n")

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_bytes(TINY_INI.encode() + b"# caf\xe9\n")
        out = tmp_path / "data"
        assert main(["--config", str(config), "gen", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {str(config)!r} is not UTF-8: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestShapeMismatch:
    """A checkpoint or test set whose (D, C) differs from the data it meets
    is a data error at load, before any work."""

    @pytest.fixture()
    def narrow_dir(self, tmp_path):
        ini = tmp_path / "narrow.ini"
        ini.write_text(TINY_INI.replace("feature_dim = 8", "feature_dim = 6"))
        out = tmp_path / "narrow"
        assert main(["--config", str(ini), "gen", "--out", str(out)]) == 0
        return out

    def test_localize_with_other_feature_dim_is_exit_2(self, tmp_path, ini,
                                                       data_dir, capsys):
        ckpt = tmp_path / "d6.ckpt"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 6, 8, 3))
        props = tmp_path / "p.txt"
        capsys.readouterr()
        rc = main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                   "--data", str(data_dir / "test.bin"), "--out", str(props)])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"data error: {ckpt} has (D, C) = (6, 3) but "
                f"{data_dir / 'test.bin'} has (D, C) = (8, 3)") in err
        assert not props.exists()

    def test_ablate_with_other_test_feature_dim_is_exit_2(self, tmp_path, ini,
                                                          data_dir, narrow_dir,
                                                          monkeypatch, capsys):
        from wtalkit import cli

        monkeypatch.setattr(cli, "ablate", None)  # no row may train
        out_csv = tmp_path / "grid.csv"
        capsys.readouterr()
        rc = main(["--config", ini, "ablate", "--data", str(data_dir / "train.bin"),
                   "--test", str(narrow_dir / "test.bin"), "--out", str(out_csv)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"data error: {data_dir / 'train.bin'} has (D, C) = (8, 3) but "
                f"{narrow_dir / 'test.bin'} has (D, C) = (6, 3)") in err
        assert not out_csv.exists()


class TestEmptyTestSet:
    """A test file with no videos (`gen` writes one for num_test = 0) holds
    D = 0 in its header. It has no D to disagree with, so only its C is
    compared: localize, eval and ablate run on it."""

    @pytest.fixture()
    def empty_dir(self, tmp_path):
        ini = tmp_path / "empty.ini"
        ini.write_text(TINY_INI.replace("num_test = 4", "num_test = 0"))
        out = tmp_path / "empty"
        assert main(["--config", str(ini), "gen", "--out", str(out)]) == 0
        assert read_dataset(out / "test.bin").feature_dim == 0
        return out

    def test_localize_eval_and_ablate_run(self, tmp_path, ini, empty_dir, capsys):
        test = str(empty_dir / "test.bin")
        ckpt, props = tmp_path / "m.ckpt", tmp_path / "p.txt"
        report, grid = tmp_path / "report.csv", tmp_path / "grid.csv"
        assert main(["--config", ini, "train", "--data", str(empty_dir / "train.bin"),
                     "--out", str(ckpt), "--iterations", "2"]) == 0
        capsys.readouterr()
        assert main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                     "--data", test, "--out", str(props)]) == 0
        assert capsys.readouterr().out == f"wrote {props}: 0 proposals over 0 videos\n"
        assert props.read_text() == "# video_id class q start end\n"
        assert main(["--config", ini, "eval", "--proposals", str(props),
                     "--data", test, "--out", str(report)]) == 0
        assert "skipped (no ground truth): 0 1 2" in capsys.readouterr().out
        assert report.exists()
        assert main(["--config", ini, "ablate", "--data", str(empty_dir / "train.bin"),
                     "--test", test, "--iterations", "2", "--out", str(grid)]) == 0
        assert len(grid.read_text().splitlines()) == 1 + len(COMPONENT_GRID)

    def test_other_class_count_is_still_refused(self, tmp_path, ini, data_dir, capsys):
        empty = _dataset_file(tmp_path / "empty.bin", [], 4)
        ckpt, props = tmp_path / "m.ckpt", tmp_path / "p.txt"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 8, 8, 3))
        capsys.readouterr()
        assert main(["--config", ini, "localize", "--checkpoint", str(ckpt),
                     "--data", empty, "--out", str(props)]) == 2
        assert (f"data error: {ckpt} has (D, C) = (8, 3) but {empty} has (D, C) = (0, 4)"
                in capsys.readouterr().err)
        assert main(["--config", ini, "ablate", "--data", str(data_dir / "train.bin"),
                     "--test", empty]) == 2
        assert (f"data error: {data_dir / 'train.bin'} has (D, C) = (8, 3) but {empty} "
                "has (D, C) = (0, 4)") in capsys.readouterr().err
        assert not props.exists()


class TestAblate:
    def test_lambda_grid_with_csv(self, tmp_path, ini, data_dir, capsys):
        out_csv = tmp_path / "grid.csv"
        rc = main(["--config", ini, "ablate", "--data",
                   str(data_dir / "train.bin"), "--test",
                   str(data_dir / "test.bin"), "--grid", "lambda",
                   "--values", "0.1,0.5", "--iterations", "2", "--seed", "0",
                   "--out", str(out_csv)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "lambda=0.1" in table and "lambda=0.5" in table
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "label,map_at_05,avg_01_05,avg_03_07,avg_01_07"
        assert len(lines) == 3

    def test_k_grid(self, ini, data_dir, capsys):
        rc = main(["--config", ini, "ablate", "--data",
                   str(data_dir / "train.bin"), "--test",
                   str(data_dir / "test.bin"), "--grid", "k",
                   "--values", "1,4", "--iterations", "2", "--seed", "0"])
        assert rc == 0
        table = capsys.readouterr().out
        assert "k=1" in table and "k=4" in table

    def test_values_required_for_k_grid(self, ini, data_dir):
        rc = main(["--config", ini, "ablate", "--data",
                   str(data_dir / "train.bin"), "--test",
                   str(data_dir / "test.bin"), "--grid", "k"])
        assert rc == 1

    def test_component_grid_runs_every_row(self, tmp_path, ini, data_dir,
                                           capsys):
        out_csv = tmp_path / "grid.csv"
        rc = main(["--config", ini, "ablate", "--data",
                   str(data_dir / "train.bin"), "--test",
                   str(data_dir / "test.bin"), "--grid", "components",
                   "--iterations", "1", "--out", str(out_csv)])
        assert rc == 0
        table = capsys.readouterr().out.splitlines()
        labels = [label for label, _, _ in COMPONENT_GRID]
        assert [line.split()[0] for line in table[1:9]] == labels
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 9
        assert [line.split(",")[0] for line in lines[1:]] == labels

    def test_values_rejected_for_component_grid(self, tmp_path, ini, data_dir,
                                                capsys):
        out_csv = tmp_path / "grid.csv"
        rc = main(["--config", ini, "ablate", "--data",
                   str(data_dir / "train.bin"), "--test",
                   str(data_dir / "test.bin"), "--grid", "components",
                   "--values", "1,2", "--out", str(out_csv)])
        assert rc == 1
        assert "--values does not apply to --grid components" in \
            capsys.readouterr().err
        assert not out_csv.exists()


    def test_iterations_below_one_is_exit_1_and_writes_nothing(
            self, tmp_path, ini, data_dir, capsys):
        csv = tmp_path / "grid.csv"
        rc = main(["--config", ini, "ablate", "--data", str(data_dir / "train.bin"),
                   "--test", str(data_dir / "test.bin"), "--grid", "lambda",
                   "--values", "0.1", "--iterations", "0", "--out", str(csv)])
        assert rc == 1
        assert "iterations must be >= 1, got 0" in capsys.readouterr().err
        assert not csv.exists()


class TestUsage:
    def test_no_command_is_exit_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_exit_1(self, capsys):
        assert main(["gen", "--out", "x", "--bogus"]) == 1
        capsys.readouterr()

    def test_bad_config_path_is_exit_1(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.ini"), "gen", "--out",
                   str(tmp_path / "d")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_help_lists_defaults(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["gradcheck", "--help"])
        text = capsys.readouterr().out
        assert "--instances" in text and "default: 20" in text
        assert "--tolerance" in text and "1e-05" in text

    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("gen", "train", "gradcheck", "localize", "eval", "ablate"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "--help"])
            assert "--help" in capsys.readouterr().out


def test_allocator_setup_tolerates_a_missing_c_library(monkeypatch):
    import ctypes

    from wtalkit import cli

    def missing(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    cli._keep_heap()
