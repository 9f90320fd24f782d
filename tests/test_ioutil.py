"""Tests for the crash-safe writers and the tolerant JSONL reader
(`repro.ioutil`)."""

import json

import pytest

from repro.ioutil import (
    append_jsonl_line,
    atomic_write_json,
    atomic_write_text,
    read_jsonl,
)


class TestAtomicWrites:
    def test_atomic_json_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"a": 1, "b": [2, 3]})
        assert json.loads(path.read_text()) == {"a": 1, "b": [2, 3]}

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "x.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            atomic_write_json(tmp_path / "bad.json", {"x": float("nan")})


class TestJsonlReader:
    def test_missing_file_is_empty(self, tmp_path):
        result = read_jsonl(tmp_path / "nope.jsonl")
        assert result.records == []
        assert not result.damaged

    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("a") as handle:
            append_jsonl_line(handle, {"n": 1}, fsync=False)
            append_jsonl_line(handle, {"n": 2}, fsync=False)
        result = read_jsonl(path)
        assert [r["n"] for r in result.records] == [1, 2]
        assert not result.damaged

    def test_torn_tail_detected_and_tolerated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}\n{"n": 3')
        result = read_jsonl(path)
        assert [r["n"] for r in result.records] == [1, 2]
        assert result.torn_tail
        assert result.damaged

    def test_missing_trailing_newline_counts_as_torn(self, tmp_path):
        # A decoded record whose newline never hit disk is kept (the
        # content survived) but the tail is still flagged as torn.
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}')
        result = read_jsonl(path)
        assert [r["n"] for r in result.records] == [1, 2]
        assert result.torn_tail

    def test_mid_file_garbage_counted_not_fatal(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\nGARBAGE\n{"n": 3}\n')
        result = read_jsonl(path)
        assert [r["n"] for r in result.records] == [1, 3]
        assert result.bad_lines == 1
        assert result.bad_line_numbers == [2]
        assert not result.torn_tail
