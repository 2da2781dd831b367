"""Generator world invariants and the dataset container format."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import label_bytes_oracle
from wtalkit.errors import ConfigError, DataFormatError
from wtalkit.synth import (
    DATASET_MAGIC,
    SynthConfig,
    VideoRecord,
    _label_bytes,
    _label_from_bytes,
    draw_prototypes,
    generate,
    read_dataset,
    training_view,
    write_dataset,
)

SMALL = dict(num_classes=3, feature_dim=6, t_min=20, t_max=32, instances_min=1,
             instances_max=2, instance_len_min=4, instance_len_max=7, num_train=6,
             num_test=3)


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()  # construction runs every check

    def test_infeasible_layout(self):
        with pytest.raises(ConfigError, match="instances cannot fit"):
            SynthConfig(t_min=8, t_max=12, instances_min=3, instances_max=3,
                        instance_len_min=4, instance_len_max=6)

    def test_bad_confound(self):
        with pytest.raises(ConfigError):
            SynthConfig(confound_strength=1.5)

    def test_negative_noise(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise_sigma=-0.1)

    def test_empty_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(t_min=40, t_max=30)


class TestGenerate:
    def test_counts_and_disjoint_ids(self):
        cfg = SynthConfig(seed=3, **SMALL)
        train, test = generate(cfg)
        assert len(train) == cfg.num_train and len(test) == cfg.num_test
        ids = [r.video_id for r in train + test]
        assert len(set(ids)) == len(ids)

    def test_label_is_union_of_instances(self):
        train, test = generate(SynthConfig(seed=5, **SMALL))
        for rec in train + test:
            want = np.zeros(3)
            for cls, _, _ in rec.ground_truth:
                want[cls] = 1.0
            np.testing.assert_array_equal(rec.video_label, want)
            assert rec.video_label.sum() >= 1

    def test_background_around_every_instance(self):
        train, test = generate(SynthConfig(seed=9, **SMALL))
        for rec in train + test:
            spans = sorted(rec.ground_truth, key=lambda s: s[1])
            assert spans[0][1] >= 1
            assert spans[-1][2] <= rec.num_snippets - 1
            for (_, _, e0), (_, s1, _) in zip(spans, spans[1:]):
                assert s1 - e0 >= 1

    def test_deterministic(self):
        a_train, a_test = generate(SynthConfig(seed=13, **SMALL))
        b_train, b_test = generate(SynthConfig(seed=13, **SMALL))
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.video_id == b.video_id
            np.testing.assert_array_equal(a.x_rgb, b.x_rgb)
            np.testing.assert_array_equal(a.x_flow, b.x_flow)
            np.testing.assert_array_equal(a.video_label, b.video_label)
            assert a.ground_truth == b.ground_truth

    def test_seed_changes_data(self):
        a, _ = generate(SynthConfig(seed=1, **SMALL))
        b, _ = generate(SynthConfig(seed=2, **SMALL))
        assert not np.array_equal(a[0].x_rgb, b[0].x_rgb)

    def test_noiseless_snippets_equal_prototypes(self):
        cfg = SynthConfig(seed=21, noise_sigma=0.0, confound_strength=0.0, **SMALL)
        proto = draw_prototypes(cfg, np.random.default_rng(cfg.seed))
        train, test = generate(cfg)
        for rec in train + test:
            action = np.zeros(rec.num_snippets, dtype=bool)
            for cls, s, e in rec.ground_truth:
                np.testing.assert_array_equal(rec.x_rgb[s:e],
                                              np.tile(proto.static[cls], (e - s, 1)))
                np.testing.assert_array_equal(rec.x_flow[s:e],
                                              np.tile(proto.motion[cls], (e - s, 1)))
                action[s:e] = True
            bg = ~action
            np.testing.assert_array_equal(rec.x_rgb[bg],
                                          np.tile(proto.static_bg, (bg.sum(), 1)))
            np.testing.assert_array_equal(rec.x_flow[bg],
                                          np.zeros((bg.sum(), 6)))

    def test_full_confound_background_matches_action_rgb(self):
        cfg = SynthConfig(seed=22, noise_sigma=0.0, confound_strength=1.0, **SMALL)
        proto = draw_prototypes(cfg, np.random.default_rng(cfg.seed))
        train, _ = generate(cfg)
        for rec in train:
            conf_cls = rec.ground_truth[0][0]
            action = np.zeros(rec.num_snippets, dtype=bool)
            for _, s, e in rec.ground_truth:
                action[s:e] = True
            bg = ~action
            np.testing.assert_array_equal(
                rec.x_rgb[bg], np.tile(proto.static[conf_cls], (bg.sum(), 1)))
            assert np.all(rec.x_flow[bg] == 0.0)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_spans_sorted_disjoint_in_bounds(self, seed):
        train, _ = generate(SynthConfig(seed=seed, **SMALL))
        for rec in train:
            prev_end = 0
            for cls, s, e in rec.ground_truth:
                assert 0 <= cls < 3
                assert prev_end < s < e <= rec.num_snippets
                prev_end = e


class TestTrainingView:
    def test_hides_ground_truth(self):
        train, _ = generate(SynthConfig(seed=2, **SMALL))
        view = training_view(train)
        assert len(view) == len(train)
        assert not hasattr(view[0], "ground_truth")
        np.testing.assert_array_equal(view[0].x_rgb, train[0].x_rgb)
        np.testing.assert_array_equal(view[0].video_label, train[0].video_label)


def _tiny_records():
    rng = np.random.default_rng(0)
    recs = []
    for i, t in enumerate((3, 5)):
        recs.append(VideoRecord(
            video_id=f"v{i}", x_rgb=rng.normal(size=(t, 2)),
            x_flow=rng.normal(size=(t, 2)),
            video_label=np.array([1.0, 0.0, 1.0]),
            ground_truth=[(0, 0, 1), (2, 2, t)]))
    return recs


class TestRoundTrip:
    def test_label_bitmask_matches_bitwise_oracle(self):
        rng = np.random.default_rng(0)
        labels = [np.zeros(c) for c in range(1, 65)] + [np.ones(c) for c in range(1, 65)]
        labels += [(rng.random(c) < 0.4).astype(float) for c in range(1, 65) for _ in range(8)]
        for label in labels:
            num_classes = len(label)
            mask = _label_bytes(label)
            assert mask == label_bytes_oracle(label)
            back = _label_from_bytes(mask, num_classes)
            assert back.dtype == np.float64
            np.testing.assert_array_equal(back, label)

    def test_bitwise(self, tmp_path):
        path = tmp_path / "d.bin"
        recs = _tiny_records()
        write_dataset(path, recs, frames_per_snippet=16, fps=25.0)
        ds = read_dataset(path)
        assert ds.num_classes == 3 and ds.feature_dim == 2
        assert ds.frames_per_snippet == 16 and ds.fps == 25.0
        assert len(ds.records) == 2
        for a, b in zip(recs, ds.records):
            assert a.video_id == b.video_id
            np.testing.assert_array_equal(a.x_rgb, b.x_rgb)
            np.testing.assert_array_equal(a.x_flow, b.x_flow)
            np.testing.assert_array_equal(a.video_label, b.video_label)
            assert [tuple(g) for g in a.ground_truth] == b.ground_truth

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(p1, _tiny_records())
        ds = read_dataset(p1)
        write_dataset(p2, ds.records)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "e.bin"
        write_dataset(path, [], num_classes=4)
        ds = read_dataset(path)
        assert ds.records == [] and ds.num_classes == 4

    def test_empty_needs_num_classes(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "e.bin", [])

    def test_writer_refuses_what_cannot_be_trained_on(self, tmp_path):
        path = tmp_path / "e.bin"
        with pytest.raises(ValueError, match="num_classes must be >= 1, got 0"):
            write_dataset(path, [], num_classes=0)
        featureless = [VideoRecord("v0", np.zeros((3, 0)), np.zeros((3, 0)),
                                   np.ones(2), [])]
        with pytest.raises(ValueError, match="v0: feature dim must be >= 1, got 0"):
            write_dataset(path, featureless)
        assert not path.exists()

    def test_generated_dataset_round_trips(self, tmp_path):
        train, _ = generate(SynthConfig(seed=4, **SMALL))
        path = tmp_path / "g.bin"
        write_dataset(path, train, num_classes=3)
        ds = read_dataset(path)
        for a, b in zip(train, ds.records):
            np.testing.assert_array_equal(a.x_rgb, b.x_rgb)
            np.testing.assert_array_equal(a.x_flow, b.x_flow)


class TestFormatErrors:
    def _blob(self, tmp_path):
        path = tmp_path / "d.bin"
        write_dataset(path, _tiny_records())
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path, blob = self._blob(tmp_path)
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError) as ei:
            read_dataset(path)
        assert ei.value.offset == 0

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path, blob = self._blob(tmp_path)
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            read_dataset(path)

    def test_truncation(self, tmp_path):
        path, blob = self._blob(tmp_path)
        path.write_bytes(bytes(blob[: len(DATASET_MAGIC) + 2]))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_truncated_mid_payload_reports_offset(self, tmp_path):
        # keep a valid checksum over a shortened payload so the cursor is
        # what trips, then check the offset points inside the file
        import struct
        import zlib
        path, blob = self._blob(tmp_path)
        payload = bytes(blob[len(DATASET_MAGIC):-4])
        cut = payload[:40]
        path.write_bytes(DATASET_MAGIC + cut + struct.pack("<I", zlib.crc32(cut)))
        with pytest.raises(DataFormatError) as ei:
            read_dataset(path)
        assert 0 < ei.value.offset <= len(DATASET_MAGIC) + 40

    @pytest.mark.parametrize("records, c, d, message, offset", [
        (True, 0, 2, r"num_classes \(C\) is 0", 12),
        (False, 0, 0, r"num_classes \(C\) is 0", 12),
        (True, 3, 0, r"feature_dim \(D\) is 0 for 2 videos", 16),
    ], ids=["no_classes", "no_classes_no_videos", "no_features"])
    def test_header_that_cannot_be_trained_on(self, tmp_path, records, c, d,
                                              message, offset):
        import struct
        import zlib
        path = tmp_path / "d.bin"
        write_dataset(path, _tiny_records() if records else [], num_classes=3)
        payload = bytearray(path.read_bytes()[len(DATASET_MAGIC):-4])
        payload[4:12] = struct.pack("<II", c, d)  # after the version field
        path.write_bytes(DATASET_MAGIC + bytes(payload)
                         + struct.pack("<I", zlib.crc32(bytes(payload))))
        with pytest.raises(DataFormatError, match=rf"header field {message}") as ei:
            read_dataset(path)
        assert ei.value.offset == offset

    @staticmethod
    def _with_fps(tmp_path, fps):
        # write a timed file, then put `fps` into its header under a valid checksum
        import struct
        import zlib
        path = tmp_path / "d.bin"
        write_dataset(path, _tiny_records(), frames_per_snippet=16, fps=25.0)
        payload = bytearray(path.read_bytes()[len(DATASET_MAGIC):-4])
        payload[24:32] = struct.pack("<d", fps)  # fps sits at byte 32 of the file
        path.write_bytes(DATASET_MAGIC + bytes(payload)
                         + struct.pack("<I", zlib.crc32(bytes(payload))))
        return path

    @pytest.mark.parametrize("fps", [float("inf"), float("nan"), -25.0])
    def test_fps_that_times_nothing_is_refused(self, tmp_path, fps):
        with pytest.raises(DataFormatError,
                           match=rf"header field fps is {fps}, must be finite and >= 0") as ei:
            read_dataset(self._with_fps(tmp_path, fps))
        assert ei.value.offset == 32

    @pytest.mark.parametrize("fps", [0.0, 25.0])
    def test_untimed_and_timed_fps_read(self, tmp_path, fps):
        assert read_dataset(self._with_fps(tmp_path, fps)).fps == fps

    def test_featureless_header_without_videos_reads(self, tmp_path):
        path = tmp_path / "e.bin"
        write_dataset(path, [], num_classes=2)
        ds = read_dataset(path)
        assert ds.records == [] and ds.feature_dim == 0

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        path, blob = self._blob(tmp_path)
        payload = bytearray(blob[len(DATASET_MAGIC):-4])
        payload[0:4] = struct.pack("<I", 99)
        path.write_bytes(DATASET_MAGIC + bytes(payload)
                         + struct.pack("<I", zlib.crc32(bytes(payload))))
        with pytest.raises(DataFormatError, match="version"):
            read_dataset(path)

    def test_duplicate_video_id_names_it_and_its_offset(self, tmp_path):
        import struct
        import zlib
        path, blob = self._blob(tmp_path)
        at = blob.index(struct.pack("<I", 2) + b"v1") + 4
        blob[at:at + 2] = b"v0"
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[len(DATASET_MAGIC):-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="duplicate video id 'v0'") as ei:
            read_dataset(path)
        assert ei.value.offset == at

    def test_not_a_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "missing.bin")

    @pytest.mark.parametrize("vid", ["", "a b", "a\tb", "#x"])
    def test_video_id_a_proposal_line_cannot_carry(self, tmp_path, monkeypatch, vid):
        recs = _tiny_records()
        recs[1].video_id = vid
        path = tmp_path / "d.bin"
        with monkeypatch.context() as m:  # the writer refuses such an id
            m.setattr(VideoRecord, "validate", lambda self: None)
            write_dataset(path, recs)
        with pytest.raises(DataFormatError, match=re.escape(f"video id {vid!r} must be")):
            read_dataset(path)

    def test_bad_video_id_is_reported_at_its_own_offset(self, tmp_path, monkeypatch):
        # the second id starts at byte 167, its features end at byte 350
        recs = _tiny_records()
        recs[1].video_id = "#x"
        path = tmp_path / "d.bin"
        with monkeypatch.context() as m:
            m.setattr(VideoRecord, "validate", lambda self: None)
            write_dataset(path, recs)
        with pytest.raises(DataFormatError, match="video id '#x' must be") as ei:
            read_dataset(path)
        assert ei.value.offset == path.read_bytes().index(b"#x")


class TestWriteValidation:
    @pytest.mark.parametrize("fps", [float("inf"), float("nan"), -25.0])
    def test_fps_that_times_nothing_rejected(self, tmp_path, fps):
        path = tmp_path / "d.bin"
        with pytest.raises(ValueError, match=rf"fps must be finite and >= 0, got {fps}"):
            write_dataset(path, _tiny_records(), frames_per_snippet=16, fps=fps)
        assert not path.exists()

    def test_label_length_mismatch(self, tmp_path):
        recs = _tiny_records()
        recs[1].video_label = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "bad.bin", recs)

    def test_bad_span_rejected(self, tmp_path):
        recs = _tiny_records()
        recs[0].ground_truth = [(0, 2, 2)]
        with pytest.raises(ValueError):
            write_dataset(tmp_path / "bad.bin", recs)

    def test_duplicate_video_id_rejected(self, tmp_path):
        recs = _tiny_records()
        recs[1].video_id = recs[0].video_id
        with pytest.raises(ValueError, match="duplicate video id 'v0'"):
            write_dataset(tmp_path / "bad.bin", recs)
        assert not (tmp_path / "bad.bin").exists()

    @pytest.mark.parametrize("vid", ["", "a b", "a\tb", "a\nb", "#x"])
    def test_video_id_a_proposal_line_cannot_carry_rejected(self, tmp_path, vid):
        # proposal files are whitespace-separated lines with `#` comments
        recs = _tiny_records()
        recs[1].video_id = vid
        message = f"video id {vid!r} must be non-empty, hold no whitespace and not start with '#'"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_dataset(tmp_path / "bad.bin", recs)
        assert not (tmp_path / "bad.bin").exists()

    def test_zero_snippet_video_rejected(self, tmp_path):
        recs = _tiny_records()
        recs[1].x_rgb = recs[1].x_rgb[:0]
        recs[1].x_flow = recs[1].x_flow[:0]
        recs[1].ground_truth = []
        with pytest.raises(ValueError, match=r"no snippets"):
            write_dataset(tmp_path / "bad.bin", recs)
        assert not (tmp_path / "bad.bin").exists()


class TestGoldenDataset:
    # locks the default-config world; regenerating with the same code and
    # numpy must reproduce these bytes exactly
    GOLDEN_SHA256 = "a396c4d060be8739273ee18b93e9e7a43985370bc4bc896b29d56f72080fa814"

    def test_seed7_checksum(self, tmp_path):
        train, test = generate(SynthConfig())
        path = tmp_path / "golden.bin"
        write_dataset(path, train + test, num_classes=5)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256


@pytest.mark.slow
class TestMonotoneDifficulty:
    def test_confound_hurts_baseline(self):
        # reduced-scale analogue: mean test mAP@0.5 of a short baseline run
        # is non-increasing in confound_strength
        from wtalkit.model import Hyperparams
        from wtalkit.trainer import RunConfig, localize_dataset, train
        from wtalkit.evaluate import evaluate

        means = []
        for conf in (0.0, 0.5, 1.0):
            scores = []
            for seed in range(10):
                cfg = SynthConfig(num_classes=3, feature_dim=12, t_min=30, t_max=50,
                                  instances_min=1, instances_max=2,
                                  instance_len_min=5, instance_len_max=9,
                                  noise_sigma=0.4, confound_strength=conf,
                                  num_train=24, num_test=12, seed=100 + seed)
                train_recs, test_recs = generate(cfg)
                hp = Hyperparams()
                result = train(training_view(train_recs),
                               RunConfig(hp=hp, seed=seed, use_ten=False,
                                         iterations=150))
                props = localize_dataset(test_recs, result.params, hp)
                rep = evaluate(props, test_recs, iou_thresholds=(0.5,),
                               num_classes=3)
                scores.append(rep.map_by_threshold[0.5])
            means.append(float(np.mean(scores)))
        assert means[0] >= means[1] >= means[2]
