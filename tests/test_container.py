"""The shared binary container: atomic writes and checked, streamed reads."""

import os
import struct
import zlib

import numpy as np
import pytest

from wtalkit import container
from wtalkit.container import read_container, write_container
from wtalkit.errors import DataFormatError
from wtalkit.model import init_params, load_checkpoint, save_checkpoint


def _fail(*args, **kwargs):
    raise OSError("disk full")


def _read_all(path, magic):
    with read_container(path, magic, "checkpoint") as payload:
        return payload.take(payload.end - payload.pos, "payload")


class TestWriteContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"old"])
        write_container(path, b"MAGIC", [b"payload"])
        with read_container(path, b"MAGIC", "test") as payload:
            assert payload.take(7, "payload") == b"payload"
        assert os.listdir(tmp_path) == ["c.bin"]

    def test_failure_partway_keeps_old_file_and_no_temporary(self, tmp_path,
                                                            monkeypatch):
        # the payload's CRC is taken after its first part reached the temporary file
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"old"])
        before = path.read_bytes()
        monkeypatch.setattr(container.zlib, "crc32", _fail)
        with pytest.raises(OSError, match="disk full"):
            write_container(path, b"MAGIC", [b"new payload"])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.bin"]

    def test_failed_replace_keeps_old_file_and_no_temporary(self, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"old"])
        before = path.read_bytes()
        monkeypatch.setattr(container.os, "replace", _fail)
        with pytest.raises(OSError):
            write_container(path, b"MAGIC", [b"new"])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.bin"]

    def test_failed_checkpoint_save_keeps_last_good_checkpoint(self, tmp_path,
                                                               monkeypatch):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, init_params(np.random.default_rng(0), 8, 8, 3))
        before = ckpt.read_bytes()
        monkeypatch.setattr(container.zlib, "crc32", _fail)
        with pytest.raises(OSError):
            save_checkpoint(ckpt, init_params(np.random.default_rng(1), 8, 8, 3))
        monkeypatch.undo()
        assert ckpt.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]
        load_checkpoint(ckpt)

    def test_dataset_write_failing_among_its_features_keeps_old_dataset(
            self, tmp_path, monkeypatch):
        from wtalkit.synth import VideoRecord, read_dataset, write_dataset

        def records(seed):
            rng = np.random.default_rng(seed)
            return [VideoRecord(video_id=f"v{i}", x_rgb=rng.normal(size=(4, 3)),
                                x_flow=rng.normal(size=(4, 3)),
                                video_label=np.array([1.0, 0.0]),
                                ground_truth=[(0, 1, 3)]) for i in range(3)]

        path = tmp_path / "d.bin"
        write_dataset(path, records(0))
        before = path.read_bytes()
        crc32, calls = container.zlib.crc32, []

        def fail_late(*args):
            calls.append(1)
            if len(calls) == 12:  # the first video, features included, is on disk
                raise OSError("disk full")
            return crc32(*args)

        monkeypatch.setattr(container.zlib, "crc32", fail_late)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(path, records(1))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["d.bin"]
        np.testing.assert_array_equal(read_dataset(path).records[0].x_rgb,
                                      records(0)[0].x_rgb)


    def test_parts_are_streamed_in_order(self, tmp_path):
        path = tmp_path / "c.bin"
        values = np.array([[1.5, -2.0], [3.0, 4.25]])
        write_container(path, b"MAGIC", [b"ab", values, b"c"])
        payload = b"ab" + values.astype("<f8").tobytes() + b"c"
        assert path.read_bytes() == (b"MAGIC" + payload
                                     + struct.pack("<I", zlib.crc32(payload)))


class TestReadContainer:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"payload"])
        with pytest.raises(DataFormatError, match="not a checkpoint file"):
            _read_all(path, b"OTHER")

    def test_crc_mismatch_names_trailer_offset(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"payload"])
        blob = bytearray(path.read_bytes())
        blob[6] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=f"offset {len(blob) - 4}"):
            _read_all(path, b"MAGIC")

    def test_too_short_for_trailer(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"MAGIC\x00")
        with pytest.raises(DataFormatError, match="too short"):
            _read_all(path, b"MAGIC")

    def test_unread_payload_is_still_checksummed(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"payload"])
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            with read_container(path, b"MAGIC", "test") as payload:
                payload.take(2, "head")

    def test_parse_error_on_corrupt_payload_reports_the_checksum(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [b"\xff\xfe"])
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="checksum"):
            with read_container(path, b"MAGIC", "test") as payload:
                str(payload.take(2, "id"), "utf-8")

    def test_floats_read_into_place_and_claim_before_allocating(self, tmp_path):
        path = tmp_path / "c.bin"
        values = np.arange(6, dtype="<f8")
        write_container(path, b"MAGIC", [values])
        with read_container(path, b"MAGIC", "test") as payload:
            got = payload.floats((2, 3), "x", str)
        np.testing.assert_array_equal(got, values.reshape(2, 3))
        with pytest.raises(DataFormatError, match="truncated while reading x"):
            with read_container(path, b"MAGIC", "test") as payload:
                payload.floats((1 << 40,), "x", str)

    def test_non_finite_float_is_located_by_its_index(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, b"MAGIC", [np.array([1.0, 2.0, np.nan, np.inf])])
        with pytest.raises(DataFormatError, match=r"in x at 2 \(at byte offset 21\)"):
            with read_container(path, b"MAGIC", "test") as payload:
                payload.floats((4,), "x", lambda i: f" at {i}")
