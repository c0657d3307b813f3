"""Solve-cache behaviour: LRU order, persistence, invalidation."""

import pickle
from dataclasses import dataclass

import pytest

from repro.engine import SolveCache
from repro.engine.cache import CACHE_FORMAT_VERSION


@dataclass(frozen=True)
class Sized:
    """A stand-in block solve: only its ``n_states`` matters here."""

    n_states: int


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = SolveCache()
        value, layer = cache.get_block("k1")
        assert value is None and layer == "miss"
        cache.put_block("k1", {"x": 1})
        value, layer = cache.get_block("k1")
        assert value == {"x": 1} and layer == "memory"

    def test_lru_evicts_least_recently_used(self):
        cache = SolveCache(max_block_states=2)
        cache.put_block("a", 1)
        cache.put_block("b", 2)
        assert cache.get_block("a")[0] == 1  # refresh "a"
        cache.put_block("c", 3)  # evicts "b"
        assert cache.get_block("b") == (None, "miss")
        assert cache.get_block("a")[0] == 1
        assert cache.get_block("c")[0] == 3
        assert cache.block_entries == 2

    def test_eviction_is_by_chain_states(self):
        cache = SolveCache(max_block_states=300)
        cache.put_block("a", Sized(208))
        cache.put_block("b", Sized(208))
        assert cache.get_block("a") == (None, "miss")
        assert cache.get_block("b")[0] == Sized(208)
        assert cache.block_entries == 1
        assert cache.block_states == 208

    def test_light_entries_fill_the_budget(self):
        cache = SolveCache(max_block_states=300)
        cache.put_block("big", Sized(208))
        for i in range(92):
            cache.put_block(f"small{i}", Sized(i % 2))  # 0 weighs 1, too
        assert cache.block_states == 300
        assert cache.get_block("big")[0] == Sized(208)
        cache.put_block("one-more", 1)  # no n_states: weighs 1
        assert cache.get_block("small0") == (None, "miss")
        assert cache.block_states == 300

    def test_entry_heavier_than_the_budget_is_kept(self):
        cache = SolveCache(max_block_states=100)
        cache.put_block("small", Sized(50))
        cache.put_block("huge", Sized(208))
        assert cache.get_block("huge")[0] == Sized(208)
        assert cache.get_block("small") == (None, "miss")
        assert cache.block_states == 208

    def test_evicted_entry_is_served_from_disk(self, tmp_path):
        cache = SolveCache(max_block_states=300, cache_dir=tmp_path)
        cache.put_block("a", Sized(208))
        cache.put_block("b", Sized(208))
        assert cache.get_block("a") == (Sized(208), "disk")

    def test_weight_total_stays_exact(self):
        cache = SolveCache(max_block_states=1000)
        cache.put_block("a", Sized(208))
        cache.put_block("a", Sized(100))  # re-put replaces the weight
        assert cache.block_states == 100
        cache.put_block("b", Sized(30))
        cache.invalidate("a")
        assert cache.block_states == 30
        cache.invalidate("missing")
        assert cache.block_states == 30
        cache.invalidate("b")
        assert cache.block_states == 0 and cache.block_entries == 0
        cache.put_block("c", Sized(7))
        cache.clear()
        assert cache.block_states == 0 and cache.block_entries == 0
        cache.put_block("d", Sized(5))
        assert cache.block_states == 5

    def test_system_namespace_is_separate(self):
        cache = SolveCache()
        cache.put_block("k", "block value")
        assert cache.get_system("k") is None
        cache.put_system("k", "system value")
        assert cache.get_system("k") == "system value"
        assert cache.get_block("k")[0] == "block value"


class TestDiskLayer:
    def test_round_trip_and_promotion(self, tmp_path):
        writer = SolveCache(cache_dir=tmp_path)
        writer.put_block("deadbeef", {"pi": [0.5, 0.5]})
        # A brand-new cache (cold memory) must hit the disk layer...
        reader = SolveCache(cache_dir=tmp_path)
        value, layer = reader.get_block("deadbeef")
        assert value == {"pi": [0.5, 0.5]} and layer == "disk"
        # ...and promote the entry, so the next lookup is in memory.
        value, layer = reader.get_block("deadbeef")
        assert layer == "memory"

    def test_disk_usage_counts_entries(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        assert cache.disk_usage() == (0, 0)
        cache.put_block("k1", 1)
        cache.put_block("k2", 2)
        entries, size = cache.disk_usage()
        assert entries == 2 and size > 0

    @pytest.mark.parametrize(
        "garbage",
        # Unpickling corrupt bytes raises wildly different exception
        # types depending on which opcode the bytes happen to spell.
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05", b"I99\n"],
        ids=["text", "int-opcode", "empty", "truncated", "no-stop"],
    )
    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path, garbage):
        cache = SolveCache(cache_dir=tmp_path)
        target = tmp_path / "blocks" / "bad.pkl"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(garbage)
        assert cache.get_block("bad") == (None, "miss")
        assert not target.exists()

    def test_missing_entry_is_a_miss_without_unlink(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("present", 1)
        corrupt = tmp_path / "blocks" / "bad.pkl"
        corrupt.write_bytes(b"not a pickle")
        unlinked = []
        real_unlink = Path.unlink

        def recording_unlink(path, *args, **kwargs):
            unlinked.append(path.name)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", recording_unlink)
        fresh = SolveCache(cache_dir=tmp_path)
        assert fresh.get_block("absent") == (None, "miss")
        assert unlinked == []
        assert fresh.get_block("present") == (1, "disk")
        assert unlinked == []
        # A damaged entry is still discarded.
        assert fresh.get_block("bad") == (None, "miss")
        assert unlinked == ["bad.pkl"] and not corrupt.exists()

    @pytest.mark.parametrize(
        "error",
        [PermissionError(13, "denied"), OSError(24, "too many open files"),
         IsADirectoryError(21, "is a directory")],
        ids=["permission", "emfile", "directory"],
    )
    def test_an_entry_that_cannot_be_opened_is_a_kept_miss(
        self, tmp_path, monkeypatch, error
    ):
        from pathlib import Path

        SolveCache(cache_dir=tmp_path).put_block("shared", 1)
        entry = tmp_path / "blocks" / "shared.pkl"
        real_open = Path.open

        def failing_open(path, *args, **kwargs):
            if path == entry:
                raise error
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", failing_open)
        reader = SolveCache(cache_dir=tmp_path)
        assert reader.get_block("shared") == (None, "miss")
        assert entry.exists()  # readable again once the cause is gone
        monkeypatch.setattr(Path, "open", real_open)
        assert reader.get_block("shared") == (1, "disk")

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        target = tmp_path / "blocks" / "old.pkl"
        target.parent.mkdir(parents=True)
        target.write_bytes(
            pickle.dumps(
                {"version": CACHE_FORMAT_VERSION + 1, "value": 42}
            )
        )
        assert cache.get_block("old") == (None, "miss")
        assert not target.exists()

    def test_memory_only_cache_never_touches_disk(self, tmp_path):
        cache = SolveCache()
        cache.put_block("k", 1)
        assert cache.cache_dir is None
        assert cache.disk_usage() == (0, 0)


class TestInvalidation:
    def test_invalidate_drops_every_layer(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", 1)
        cache.put_system("k", 2)
        cache.invalidate("k")
        assert cache.get_block("k") == (None, "miss")
        assert cache.get_system("k") is None
        assert cache.disk_usage() == (0, 0)

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", 1)
        cache.clear()
        assert cache.block_entries == 0
        value, layer = cache.get_block("k")
        assert value == 1 and layer == "disk"

    def test_clear_disk_too(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", 1)
        cache.clear(disk=True)
        assert cache.get_block("k") == (None, "miss")
        assert cache.disk_usage() == (0, 0)
