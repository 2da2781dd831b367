"""Training loop behaviour: schedule, logging, checkpoints, ablation grids."""

import ast
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import wtalkit.losses as losses_mod
import wtalkit.trainer as trainer_mod
from wtalkit.errors import NumericError
from wtalkit.localize import localize_video
from wtalkit.losses import GradMode, _chunks
from wtalkit.model import Hyperparams, ModelParams, init_params, load_checkpoint
from wtalkit.synth import VideoRecord, training_view
from wtalkit.trainer import (
    COMPONENT_GRID,
    RunConfig,
    ablate,
    component_rows,
    format_ablation,
    localize_dataset,
    train,
    write_ablation_csv,
    write_log_csv,
)

LOG_HEADER = "step,loss_fg,loss_bg,loss_att,loss_kl,loss_bvl,loss_all,learning_rate"


def _videos(tiny_dataset):
    _, train_recs, _ = tiny_dataset
    return training_view(train_recs)


def _cfg(**kw):
    kw.setdefault("hp", Hyperparams(embed_dim=8))
    kw.setdefault("iterations", 4)
    return RunConfig(**kw)


class TestTrain:
    def test_log_length_and_steps(self, tiny_dataset):
        result = train(_videos(tiny_dataset), _cfg(iterations=5))
        assert [row.step for row in result.log] == [0, 1, 2, 3, 4]
        assert np.all(np.isfinite(result.params.to_vector()))

    def test_learning_rate_halves_at_midpoint(self, tiny_dataset):
        result = train(_videos(tiny_dataset), _cfg(iterations=6))
        lrs = [row.learning_rate for row in result.log]
        assert lrs == [1e-3, 1e-3, 1e-3, 1e-4, 1e-4, 1e-4]
        assert lrs == [_cfg(iterations=6).learning_rate_at(s) for s in range(6)]
        # the only step of a one-step run is already past the midpoint
        assert train(_videos(tiny_dataset), _cfg(iterations=1)).log[0].learning_rate == 1e-4

    @pytest.mark.parametrize("iterations", [1, 2, 3, 7, 6000])
    def test_learning_rate_at_is_the_midpoint_drop(self, iterations):
        cfg = _cfg(iterations=iterations, learning_rate=3e-3, decay_fraction=0.3)
        half = iterations // 2
        for step in range(iterations):
            want = (cfg.learning_rate * cfg.decay_fraction if step >= half
                    else cfg.learning_rate)
            assert cfg.learning_rate_at(step) == want
        if iterations == 1:
            assert cfg.learning_rate_at(0) == 3e-3 * 0.3

    def test_run_config_holds_no_output_paths(self):
        names = {f.name for f in fields(RunConfig)}
        assert not {"checkpoint_path", "log_path"} & names

    def test_bitwise_deterministic(self, tiny_dataset):
        vids = _videos(tiny_dataset)
        a = train(vids, _cfg(seed=4))
        b = train(vids, _cfg(seed=4))
        np.testing.assert_array_equal(a.params.to_vector(), b.params.to_vector())
        assert [r.losses.total for r in a.log] == [r.losses.total for r in b.log]

    def test_seed_changes_run(self, tiny_dataset):
        vids = _videos(tiny_dataset)
        a = train(vids, _cfg(seed=1))
        b = train(vids, _cfg(seed=2))
        assert not np.array_equal(a.params.to_vector(), b.params.to_vector())

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train([], _cfg())

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_decay_fraction_outside_unit_interval_rejected(self, tiny_dataset,
                                                           fraction, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a step ran before validation")

        monkeypatch.setattr(trainer_mod, "backward", never)
        with pytest.raises(ValueError, match=r"decay_fraction must lie in \[0, 1\]"):
            train(_videos(tiny_dataset), _cfg(decay_fraction=fraction))

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_iterations_below_one_rejected(self, tiny_dataset, iterations,
                                           monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("a step ran before validation")

        monkeypatch.setattr(trainer_mod, "backward", never)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match=f"iterations must be >= 1, got {iterations}"):
            train(_videos(tiny_dataset), _cfg(iterations=iterations),
                  checkpoint_path=str(path))
        assert not path.exists()

    def test_params_are_views_of_one_trained_buffer(self, tiny_dataset, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train copied the parameter vector")

        monkeypatch.setattr(ModelParams, "to_vector", never)
        monkeypatch.setattr(ModelParams, "from_vector", never)
        params = train(_videos(tiny_dataset), _cfg(iterations=2)).params
        assert params.vector.shape == (params.size,)
        assert all(block.base is params.vector for _, block in params.blocks())

    def test_ten_branch_losses_appear_only_when_enabled(self, tiny_dataset):
        vids = _videos(tiny_dataset)
        off = train(vids, _cfg(use_ten=False, iterations=2))
        on = train(vids, _cfg(use_ten=True, iterations=2))
        assert all(r.losses.att == 0.0 and r.losses.kl == 0.0 for r in off.log)
        assert any(r.losses.att > 0.0 for r in on.log)
        assert any(r.losses.kl > 0.0 for r in on.log)

    def test_numeric_failure_names_step_and_batch(self, tiny_dataset,
                                                  monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("boom")

        monkeypatch.setattr(trainer_mod, "backward", explode)
        with pytest.raises(NumericError, match=r"step 0 on batch \['"):
            train(_videos(tiny_dataset), _cfg())


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_forward_names_step_and_batch(self, tiny_dataset):
        vids = _videos(tiny_dataset)
        for v in vids:
            v.x_rgb = v.x_rgb.copy()
            v.x_rgb[0, 0] = np.nan
        with pytest.raises(NumericError, match=r"step 0 on batch \['train_\d+'.*"
                                               r"forward produced non-finite"):
            train(vids, _cfg(use_ten=True))
        # one poisoned video among clean ones: the message names it and its
        # first place in the batch, with or without the continuity branch
        clean = _videos(tiny_dataset)
        poisoned = replace(clean[5], x_flow=clean[5].x_flow.copy())
        poisoned.x_flow[3, 2] = np.inf
        for use_ten in (False, True):
            with pytest.raises(NumericError) as caught:
                train(clean[:5] + [poisoned] + clean[6:], _cfg(use_ten=use_ten, iterations=50))
            found = re.fullmatch(r"step \d+ on batch (\[.*\]): forward produced non-finite "
                                 r"outputs at batch position (\d+) \((\S+)\)",
                                 str(caught.value))
            assert found, str(caught.value)
            batch, position, named = found.groups()
            assert named == poisoned.video_id
            assert ast.literal_eval(batch).index(named) == int(position)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_localization_names_the_video(self, tiny_dataset, monkeypatch):
        _, _, test_recs = tiny_dataset
        records = list(test_recs)
        records[4] = replace(records[4], x_rgb=records[4].x_rgb * np.inf)
        monkeypatch.setattr(losses_mod, "CHUNK_CELLS", 1)  # one chunk per video
        params = train(_videos(tiny_dataset), _cfg(iterations=1)).params
        with pytest.raises(NumericError, match=r"at batch position 4 \(" + records[4].video_id):
            localize_dataset(records, params, Hyperparams(embed_dim=8))


class TestCheckpoints:
    def test_final_checkpoint_written_and_loads(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.ckpt"
        result = train(_videos(tiny_dataset), _cfg(), checkpoint_path=str(path))
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.to_vector(),
                                      result.params.to_vector())

    def test_cadence_does_not_change_result(self, tiny_dataset, tmp_path):
        vids = _videos(tiny_dataset)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train(vids, _cfg(checkpoint_every=0), checkpoint_path=str(p1))
        train(vids, _cfg(checkpoint_every=2), checkpoint_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def _write_steps(monkeypatch, vids, cfg, path):
        """The Adam step count at each checkpoint write of a run."""
        steps, writes = [], []
        real_step, real_save = trainer_mod.adam_step, trainer_mod.save_checkpoint

        def step_spy(params, grads, state, *rates):
            real_step(params, grads, state, *rates)
            steps.append(state.step)

        def save_spy(path, params):
            writes.append(steps[-1])
            real_save(path, params)

        with monkeypatch.context() as m:
            m.setattr(trainer_mod, "adam_step", step_spy)
            m.setattr(trainer_mod, "save_checkpoint", save_spy)
            train(vids, cfg, checkpoint_path=str(path))
        return writes

    def test_intermediate_checkpoints_happen(self, tiny_dataset, tmp_path,
                                              monkeypatch):
        path = tmp_path / "c.ckpt"
        writes = self._write_steps(monkeypatch, _videos(tiny_dataset),
                                   _cfg(iterations=4, checkpoint_every=2), path)
        # the write after step 4 is the final checkpoint, not a second one
        assert writes == [2, 4]

    @pytest.mark.parametrize("iterations, every, after", [
        (4, 3, [3, 4]), (4, 0, [4]), (3, 1, [1, 2, 3]), (1, 5, [1])])
    def test_one_write_after_each_cadence_multiple_and_the_last_step(
            self, tiny_dataset, tmp_path, monkeypatch, iterations, every, after):
        vids = _videos(tiny_dataset)
        path, plain = tmp_path / "c.ckpt", tmp_path / "plain.ckpt"
        cfg = _cfg(iterations=iterations, checkpoint_every=every)
        assert self._write_steps(monkeypatch, vids, cfg, path) == after
        train(vids, _cfg(iterations=iterations), checkpoint_path=str(plain))
        assert path.read_bytes() == plain.read_bytes()


class TestLogCsv:
    def test_exact_header_and_rows(self, tiny_dataset, tmp_path):
        path = tmp_path / "log.csv"
        result = train(_videos(tiny_dataset), _cfg(iterations=3), log_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(result.log[0].losses.fg,
                                                abs=1e-8)
        assert float(first[7]) == 1e-3

    def test_write_log_csv_round_numbers(self, tmp_path, tiny_dataset):
        result = train(_videos(tiny_dataset), _cfg(iterations=2))
        path = tmp_path / "log.csv"
        write_log_csv(path, result.log)
        rows = path.read_text().splitlines()[1:]
        assert all(len(r.split(",")) == 8 for r in rows)


class TestLocalizeDataset:
    def test_keys_are_video_ids(self, tiny_dataset):
        _, _, test_recs = tiny_dataset
        result = train(_videos(tiny_dataset), _cfg(iterations=2))
        props = localize_dataset(test_recs, result.params, Hyperparams(embed_dim=8))
        assert set(props) == {r.video_id for r in test_recs}


def _record(vid, t, d, rng):
    return VideoRecord(video_id=vid, x_rgb=rng.normal(size=(t, d)),
                       x_flow=rng.normal(size=(t, d)), video_label=np.ones(3),
                       ground_truth=[])


class TestBatchedLocalization:
    def test_chunks_give_the_per_video_proposals(self):
        # at D = 64, K = 3 the 1,400-snippet video holds 268,800 window cells,
        # more than CHUNK_CELLS, so it runs alone between two packed chunks
        rng = np.random.default_rng(4)
        lengths = [1, 2, 30, 57, 3, 1400, 64, 5, 41]
        records = [_record(f"v{i}", t, 64, rng) for i, t in enumerate(lengths)]
        params = init_params(rng, 64, 16, 3)
        for block in params.rgb.w_att, params.flow.w_att:
            block *= 6.0  # sharper attention: more runs, more overlap to suppress
        hp = Hyperparams(embed_dim=16)
        assert list(_chunks(records, 3)) == [(0, 5), (5, 6), (6, 9)]
        got = localize_dataset(records, params, hp)
        assert list(got) == [r.video_id for r in records]
        for r in records:
            want = localize_video(r.x_rgb, r.x_flow, params, hp)
            for field in ("cls", "start", "end"):
                np.testing.assert_array_equal(getattr(got[r.video_id], field),
                                              getattr(want, field), strict=True)
            assert got[r.video_id].q.dtype == np.float64
            assert np.all(np.abs(got[r.video_id].q - want.q) <= 1e-12)
        assert sum(v.cls.size for v in got.values()) > 100

    def test_no_records_give_no_proposals(self):
        params = init_params(np.random.default_rng(0), 4, 4, 2)
        assert localize_dataset([], params, Hyperparams(embed_dim=4)) == {}


class TestAblate:
    def test_rows_follow_grid(self, tiny_dataset):
        _, train_recs, test_recs = tiny_dataset
        rows = ablate(training_view(train_recs), test_recs,
                      component_rows(_cfg(iterations=2))[:2], iou_thresholds=(0.5,))
        assert [r.label for r in rows] == ["BL", "BL+BGES"]
        for row in rows:
            assert 0.0 <= row.report.map_by_threshold[0.5] <= 1.0

    def test_component_rows_vary_only_mode_and_branch(self):
        base = _cfg(seed=7, hp=Hyperparams(embed_dim=8, lam=0.3))
        rows = component_rows(base)
        assert [(label, cfg.mode, cfg.use_ten) for label, cfg in rows] == \
            list(COMPONENT_GRID)
        for _, cfg in rows:
            assert cfg.seed == 7 and cfg.hp == base.hp and cfg.iterations == 4

    def test_component_grid_covers_modes(self):
        labels = [label for label, _, _ in COMPONENT_GRID]
        assert labels[:4] == ["BL", "BL+BGES", "TEN", "TEN+BGES"]
        modes = {mode for _, mode, _ in COMPONENT_GRID}
        assert GradMode.GRL in modes and GradMode.BVL in modes

    def test_format_ablation_layout(self, tiny_dataset):
        _, train_recs, test_recs = tiny_dataset
        rows = ablate(training_view(train_recs), test_recs,
                      component_rows(_cfg(iterations=2))[:1])
        text = format_ablation(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["run", "mAP@0.5", "avg[0.1:0.5]",
                                    "avg[0.3:0.7]", "avg[0.1:0.7]"]
        assert lines[1].startswith("BL ")

    def test_csv_carries_the_table_cells(self, tiny_dataset, tmp_path):
        _, train_recs, test_recs = tiny_dataset
        rows = ablate(training_view(train_recs), test_recs,
                      component_rows(_cfg(iterations=2))[:2])
        path = tmp_path / "grid.csv"
        write_ablation_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,map_at_05,avg_01_05,avg_03_07,avg_01_07"
        table = format_ablation(rows).splitlines()[1:]
        for line, shown in zip(lines[1:], table, strict=True):
            label, *cells = line.split(",")
            label_shown, *cells_shown = shown.split()
            assert label == label_shown
            # the table rounds to 4 decimals, the CSV to 6
            assert [float(c) for c in cells] == pytest.approx(
                [float(c) for c in cells_shown], abs=5.1e-5)
