"""Solve-cache behaviour: LRU order, persistence, invalidation, records."""

import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.engine import SolveCache
from repro.engine.cache import CACHE_FORMAT_VERSION, BlockRecord


@dataclass(frozen=True)
class Sized:
    """A stand-in block solve: only its ``n_states`` matters here."""

    n_states: int


def encode_sized(value: Sized) -> bytes:
    return b"sized %d" % value.n_states


def decode_sized(data: bytes) -> Optional[Sized]:
    kind, _, count = data.partition(b" ")
    if kind != b"sized" or not count.isdigit():
        return None
    return Sized(int(count))


def record(n_states=3, **changes):
    fields = dict(
        model_type=2,
        availability=0.999_876_543_210_123_4,
        failure_frequency=1.25e-5,
        backend="dense-direct",
        representation="dense",
        nnz=7,
        pi=np.linspace(0.1, 0.9, n_states),
    )
    fields.update(changes)
    return BlockRecord(**fields)


def same_record(a: BlockRecord, b: BlockRecord) -> bool:
    return a._replace(pi=None) == b._replace(pi=None) and (
        a.pi.tobytes() == b.pi.tobytes()
    )


# Byte values are their own records (``bytes`` both encodes and
# decodes them); a bytes object has no ``n_states``, so each weighs 1.
class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = SolveCache()
        value, layer = cache.get_block("k1", bytes)
        assert value is None and layer == "miss"
        cache.put_block("k1", b"x=1", bytes)
        value, layer = cache.get_block("k1", bytes)
        assert value == b"x=1" and layer == "memory"

    def test_lru_evicts_least_recently_used(self):
        cache = SolveCache(max_block_states=2)
        cache.put_block("a", b"1", bytes)
        cache.put_block("b", b"2", bytes)
        assert cache.get_block("a", bytes)[0] == b"1"  # refresh "a"
        cache.put_block("c", b"3", bytes)  # evicts "b"
        assert cache.get_block("b", bytes) == (None, "miss")
        assert cache.get_block("a", bytes)[0] == b"1"
        assert cache.get_block("c", bytes)[0] == b"3"
        assert cache.block_entries == 2

    def test_eviction_is_by_chain_states(self):
        cache = SolveCache(max_block_states=300)
        cache.put_block("a", Sized(208), encode_sized)
        cache.put_block("b", Sized(208), encode_sized)
        assert cache.get_block("a", decode_sized) == (None, "miss")
        assert cache.get_block("b", decode_sized)[0] == Sized(208)
        assert cache.block_entries == 1
        assert cache.block_states == 208

    def test_light_entries_fill_the_budget(self):
        cache = SolveCache(max_block_states=300)
        cache.put_block("big", Sized(208), encode_sized)
        for i in range(92):
            # 0 weighs 1, too
            cache.put_block(f"small{i}", Sized(i % 2), encode_sized)
        assert cache.block_states == 300
        assert cache.get_block("big", decode_sized)[0] == Sized(208)
        cache.put_block("one-more", b"1", bytes)  # no n_states: weighs 1
        assert cache.get_block("small0", decode_sized) == (None, "miss")
        assert cache.block_states == 300

    def test_entry_heavier_than_the_budget_is_kept(self):
        cache = SolveCache(max_block_states=100)
        cache.put_block("small", Sized(50), encode_sized)
        cache.put_block("huge", Sized(208), encode_sized)
        assert cache.get_block("huge", decode_sized)[0] == Sized(208)
        assert cache.get_block("small", decode_sized) == (None, "miss")
        assert cache.block_states == 208

    def test_evicted_entry_is_served_from_disk(self, tmp_path):
        cache = SolveCache(max_block_states=300, cache_dir=tmp_path)
        cache.put_block("a", Sized(208), encode_sized)
        cache.put_block("b", Sized(208), encode_sized)
        assert cache.get_block("a", decode_sized) == (Sized(208), "disk")

    def test_weight_total_stays_exact(self):
        cache = SolveCache(max_block_states=1000)
        cache.put_block("a", Sized(208), encode_sized)
        # re-put replaces the weight
        cache.put_block("a", Sized(100), encode_sized)
        assert cache.block_states == 100
        cache.put_block("b", Sized(30), encode_sized)
        cache.invalidate("a")
        assert cache.block_states == 30
        cache.invalidate("missing")
        assert cache.block_states == 30
        cache.invalidate("b")
        assert cache.block_states == 0 and cache.block_entries == 0
        cache.put_block("c", Sized(7), encode_sized)
        cache.clear()
        assert cache.block_states == 0 and cache.block_entries == 0
        cache.put_block("d", Sized(5), encode_sized)
        assert cache.block_states == 5

    def test_system_namespace_is_separate(self):
        cache = SolveCache()
        cache.put_block("k", b"block value", bytes)
        assert cache.get_system("k") is None
        cache.put_system("k", "system value")
        assert cache.get_system("k") == "system value"
        assert cache.get_block("k", bytes)[0] == b"block value"

    def test_memory_only_cache_never_encodes(self):
        def refuse(value):
            raise AssertionError("a memory-only cache encoded a value")

        cache = SolveCache()
        cache.put_block("k", b"1", refuse)
        assert cache.get_block("k", bytes) == (b"1", "memory")


class TestBlockRecord:
    def test_round_trip_is_exact(self):
        original = record(
            n_states=208, pi=np.random.default_rng(7).random(208)
        )
        restored = BlockRecord.from_bytes(original.to_bytes())
        assert same_record(restored, original)
        assert restored.n_states == 208

    def test_a_208_state_record_fits_in_2_kib(self):
        data = record(n_states=208).to_bytes()
        assert len(data) <= 2048
        # The vector is the bulk: 8 bytes a state plus a small header.
        assert len(data) - 208 * 8 < 64

    def test_a_raw_chain_record_keeps_its_negative_type(self):
        original = record(model_type=-1, nnz=0)
        assert same_record(
            BlockRecord.from_bytes(original.to_bytes()), original
        )

    @pytest.mark.parametrize("cut", [1, 8, 40, 100])
    def test_a_truncated_record_does_not_decode(self, cut):
        data = record(n_states=10).to_bytes()
        assert BlockRecord.from_bytes(data[:-cut]) is None

    def test_trailing_bytes_do_not_decode(self):
        data = record(n_states=10).to_bytes()
        assert BlockRecord.from_bytes(data + b"\0" * 8) is None

    @pytest.mark.parametrize(
        "version", [CACHE_FORMAT_VERSION - 1, CACHE_FORMAT_VERSION + 1]
    )
    def test_another_format_version_does_not_decode(self, version):
        data = bytearray(record().to_bytes())
        struct.pack_into("<H", data, 4, version)
        assert BlockRecord.from_bytes(bytes(data)) is None

    def test_a_format_2_pickle_does_not_decode(self):
        data = pickle.dumps({"version": 2, "value": {"pi": [0.5, 0.5]}})
        assert BlockRecord.from_bytes(data) is None

    def test_a_non_ascii_name_does_not_decode(self):
        data = bytearray(record().to_bytes())
        start = data.index(b"dense-direct")
        data[start] = 0xFF
        assert BlockRecord.from_bytes(bytes(data)) is None


class TestDiskLayer:
    def test_round_trip_and_promotion(self, tmp_path):
        writer = SolveCache(cache_dir=tmp_path)
        original = record()
        writer.put_block("deadbeef", original, BlockRecord.to_bytes)
        # A brand-new cache (cold memory) must hit the disk layer...
        reader = SolveCache(cache_dir=tmp_path)
        value, layer = reader.get_block("deadbeef", BlockRecord.from_bytes)
        assert same_record(value, original) and layer == "disk"
        # ...and promote the entry, so the next lookup is in memory.
        value, layer = reader.get_block("deadbeef", BlockRecord.from_bytes)
        assert layer == "memory"

    def test_disk_usage_counts_entries(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        assert cache.disk_usage() == (0, 0)
        cache.put_block("k1", b"1", bytes)
        cache.put_block("k2", b"22", bytes)
        assert cache.disk_usage() == (2, 3)
        # A leftover temp file and a subdirectory are not entries.
        (tmp_path / "blocks" / ".atomic-x.tmp").write_bytes(b"4444")
        (tmp_path / "blocks" / "nested.pkl").mkdir()
        (tmp_path / "blocks" / "nested.pkl" / "k3.pkl").write_bytes(b"5")
        assert cache.disk_usage() == (2, 3)

    def test_disk_usage_skips_an_entry_removed_mid_walk(
        self, tmp_path, monkeypatch
    ):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k1", b"1", bytes)
        cache.put_block("k2", b"22", bytes)
        walk = cache._disk_entries

        def racing_walk():
            for entry in walk():
                if entry.name == "k1.pkl":
                    os.unlink(entry.path)
                yield entry

        monkeypatch.setattr(cache, "_disk_entries", racing_walk)
        assert cache.disk_usage() == (1, 2)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a record",
            b"",
            record().to_bytes()[:-1],
            pickle.dumps({"version": 2, "value": 42}),
        ],
        ids=["text", "empty", "truncated", "format-2-pickle"],
    )
    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path, garbage):
        cache = SolveCache(cache_dir=tmp_path)
        target = tmp_path / "blocks" / "bad.pkl"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(garbage)
        assert cache.get_block("bad", BlockRecord.from_bytes) == (None, "miss")
        assert not target.exists()

    def test_missing_entry_is_a_miss_without_unlink(self, tmp_path, monkeypatch):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("present", b"1", bytes)
        corrupt = tmp_path / "blocks" / "bad.pkl"
        corrupt.write_bytes(b"not a record")
        unlinked = []
        real_unlink = Path.unlink

        def recording_unlink(path, *args, **kwargs):
            unlinked.append(path.name)
            return real_unlink(path, *args, **kwargs)

        def decode(data):
            return data if data == b"1" else None

        monkeypatch.setattr(Path, "unlink", recording_unlink)
        fresh = SolveCache(cache_dir=tmp_path)
        assert fresh.get_block("absent", decode) == (None, "miss")
        assert unlinked == []
        assert fresh.get_block("present", decode) == (b"1", "disk")
        assert unlinked == []
        # A damaged entry is still discarded.
        assert fresh.get_block("bad", decode) == (None, "miss")
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
        SolveCache(cache_dir=tmp_path).put_block("shared", b"1", bytes)
        entry = tmp_path / "blocks" / "shared.pkl"
        real_open = Path.open

        def failing_open(path, *args, **kwargs):
            if path == entry:
                raise error
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", failing_open)
        reader = SolveCache(cache_dir=tmp_path)
        assert reader.get_block("shared", bytes) == (None, "miss")
        assert entry.exists()  # readable again once the cause is gone
        monkeypatch.setattr(Path, "open", real_open)
        assert reader.get_block("shared", bytes) == (b"1", "disk")

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        target = tmp_path / "blocks" / "old.pkl"
        target.parent.mkdir(parents=True)
        data = bytearray(record().to_bytes())
        struct.pack_into("<H", data, 4, CACHE_FORMAT_VERSION + 1)
        target.write_bytes(bytes(data))
        assert cache.get_block("old", BlockRecord.from_bytes) == (None, "miss")
        assert not target.exists()

    def test_memory_only_cache_never_touches_disk(self, tmp_path):
        cache = SolveCache()
        cache.put_block("k", b"1", bytes)
        assert cache.cache_dir is None
        assert cache.disk_usage() == (0, 0)


class TestInvalidation:
    def test_invalidate_drops_every_layer(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", b"1", bytes)
        cache.put_system("k", 2)
        cache.invalidate("k")
        assert cache.get_block("k", bytes) == (None, "miss")
        assert cache.get_system("k") is None
        assert cache.disk_usage() == (0, 0)

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", b"1", bytes)
        cache.clear()
        assert cache.block_entries == 0
        value, layer = cache.get_block("k", bytes)
        assert value == b"1" and layer == "disk"

    def test_clear_disk_too(self, tmp_path):
        cache = SolveCache(cache_dir=tmp_path)
        cache.put_block("k", b"1", bytes)
        cache.clear(disk=True)
        assert cache.get_block("k", bytes) == (None, "miss")
        assert cache.disk_usage() == (0, 0)
