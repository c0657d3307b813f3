"""Atomic replace writes and append-only JSONL."""

import json
import threading

import pytest

from repro.store import (
    JsonlAppender,
    atomic_write_bytes,
    atomic_write_json,
)


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        target = tmp_path / "deep" / "file.bin"
        atomic_write_bytes(target, b"\x00payload")
        assert target.read_bytes() == b"\x00payload"

    def test_replace_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]

    def test_json_is_sorted_and_deterministic(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"b": 1, "a": 2})
        assert target.read_text() == '{"a": 2, "b": 1}'

    def test_failure_keeps_old_content_and_cleans_temp(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestJsonlAppender:
    def test_appends_sorted_lines(self, tmp_path):
        target = tmp_path / "events.jsonl"
        with JsonlAppender(target) as appender:
            appender.append({"b": 1, "a": 0})
            appender.append({"n": 2})
        lines = target.read_text().splitlines()
        assert lines == ['{"a": 0, "b": 1}', '{"n": 2}']

    def test_creates_parent_directories_lazily(self, tmp_path):
        target = tmp_path / "traces" / "spans.jsonl"
        appender = JsonlAppender(target)
        assert not target.parent.exists()
        appender.append({"k": 1})
        appender.close()
        assert target.exists()

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        target = tmp_path / "events.jsonl"
        appender = JsonlAppender(target)

        def hammer(worker: int) -> None:
            for index in range(50):
                appender.append({"worker": worker, "index": index})

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        appender.close()
        lines = target.read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            document = json.loads(line)  # every line is complete JSON
            assert set(document) == {"worker", "index"}
