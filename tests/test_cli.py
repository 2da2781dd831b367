"""End-to-end command-line behaviour, run in process via main(argv)."""

import struct
import zlib

import numpy as np
import pytest

from wtalkit.cli import ENV_CONFIG, build_parser, main
from wtalkit.model import load_checkpoint, save_checkpoint
from wtalkit.synth import VideoRecord, read_dataset, write_dataset
from wtalkit.trainer import COMPONENT_GRID

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


class TestGradcheck:
    def test_passes_quickly(self, capsys):
        rc = main(["gradcheck", "--instances", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_injected_bug_fails_with_exit_3(self, capsys):
        rc = main(["gradcheck", "--instances", "2", "--inject-bug",
                   "rgb.w_att"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out

    def test_mode_subset(self, capsys):
        rc = main(["gradcheck", "--instances", "1", "--modes", "standard"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "standard" in out and "bges" not in out


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
