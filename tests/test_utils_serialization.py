"""Serialization tests: JSON round-trips and numpy coercion."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.utils import serialization as ser


class TestToJsonable:
    def test_numpy_scalars(self):
        assert ser.to_jsonable(np.float64(1.5)) == 1.5
        assert ser.to_jsonable(np.int32(3)) == 3
        assert ser.to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert ser.to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nested_structures(self):
        payload = {"a": (np.float32(1.0), [np.int64(2)]), "b": None}
        assert ser.to_jsonable(payload) == {"a": [1.0, [2]], "b": None}

    def test_unserialisable_rejected(self):
        with pytest.raises(ExperimentError):
            ser.to_jsonable(object())

    def test_path_becomes_string(self, tmp_path):
        assert ser.to_jsonable(tmp_path) == str(tmp_path)


class TestJsonIo:
    def test_round_trip(self, tmp_path):
        payload = {"series": [1.0, 2.0, 3.0], "meta": {"n": 2}}
        target = ser.save_json(tmp_path / "out.json", payload)
        assert ser.load_json(target) == payload

    def test_creates_parents(self, tmp_path):
        target = ser.save_json(tmp_path / "deep" / "dir" / "x.json", [1])
        assert target.exists()

    def test_numpy_payload(self, tmp_path):
        target = ser.save_json(tmp_path / "np.json", {"v": np.arange(3)})
        assert ser.load_json(target) == {"v": [0, 1, 2]}


class TestWriteJsonDurably:
    def test_writes_compact_json_and_returns_it(self, tmp_path):
        payload = {"series": [1.0, 0.1 + 0.2], "meta": {"n": 2}}
        target = tmp_path / "deep" / "x.json"
        text = ser.write_json_durably(target, payload)
        assert text == '{"series":[1.0,0.30000000000000004],"meta":{"n":2}}\n'
        assert target.read_text() == text
        assert ser.load_json(target) == payload
        assert [path.name for path in target.parent.iterdir()] == ["x.json"]

    def test_failed_write_leaves_target_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "x.json"
        ser.write_json_durably(target, {"v": 1})

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(ser.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            ser.write_json_durably(target, {"v": 2})
        assert ser.load_json(target) == {"v": 1}
        assert [path.name for path in tmp_path.iterdir()] == ["x.json"]
