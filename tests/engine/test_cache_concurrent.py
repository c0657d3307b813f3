"""Concurrent access to one persistent cache directory.

The serving layer and CLI runs share ``--cache-dir``; these tests pin
the contract that makes that safe: atomic writes mean simultaneous
writers never corrupt an entry, and any double-solve stays within the
expected race window (both compute, last write wins, values agree).
"""

from concurrent.futures import ThreadPoolExecutor

from repro.core import translate
from repro.engine import Engine, SolveCache
from repro.engine.cache import BlockRecord
from repro.library import workgroup_model
from repro.spec import model_to_spec, parse_spec


def _variants(count):
    """Structurally distinct models that still share most blocks."""
    models = []
    for index in range(count):
        spec = model_to_spec(workgroup_model())
        spec["diagram"]["blocks"][0]["mtbf_hours"] = 80_000.0 + index
        models.append(parse_spec(spec))
    return models


class TestConcurrentEngines:
    def test_two_engines_one_cache_dir_no_corruption(self, tmp_path):
        cache_dir = tmp_path / "shared"
        first = Engine(cache_dir=cache_dir)
        second = Engine(cache_dir=cache_dir)
        models = _variants(6)

        with ThreadPoolExecutor(max_workers=4) as pool:
            # Both engines solve every model at once: every block
            # digest gets written concurrently from two caches.
            futures = [
                pool.submit(engine.solve, model)
                for model in models
                for engine in (first, second)
            ]
            results = [future.result() for future in futures]

        # Same model, same availability, regardless of which engine
        # (and which interleaving) produced it.
        for position, model in enumerate(models):
            expected = translate(model).availability
            assert results[2 * position].availability == expected
            assert results[2 * position + 1].availability == expected

        # Every persisted entry must load back cleanly in a third,
        # cold cache: a torn write would read as a miss or garbage.
        reader = SolveCache(cache_dir=cache_dir)
        entries, size = reader.disk_usage()
        assert entries > 0
        assert size > 0
        loaded = 0
        for entry in reader._disk_entries():
            key = entry.name[: -len(".pkl")]
            value = BlockRecord.from_bytes(reader._disk_read(key))
            assert value is not None, f"unreadable cache entry {entry.path}"
            loaded += 1
        assert loaded == entries

    def test_simultaneous_writes_of_one_key_last_wins(self, tmp_path):
        cache_dir = tmp_path / "samekey"
        writers = [SolveCache(cache_dir=cache_dir) for _ in range(4)]
        payload = b"answer=42.0" * 100

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(cache.put_block, "deadbeef", payload, bytes)
                for cache in writers
                for _ in range(25)
            ]
            for future in futures:
                future.result()

        reader = SolveCache(cache_dir=cache_dir)
        value, layer = reader.get_block("deadbeef", bytes)
        assert layer == "disk"
        assert value == payload

    def test_warm_process_reads_the_other_engines_work(self, tmp_path):
        cache_dir = tmp_path / "handoff"
        writer = Engine(cache_dir=cache_dir)
        model = workgroup_model()
        expected = writer.solve(model).availability

        reader = Engine(cache_dir=cache_dir)
        solution = reader.solve(model)
        assert solution.availability == expected
        stats = reader.stats_snapshot()
        assert stats.disk_hits > 0  # served by the persistent layer
        assert stats.block_solves == 0  # no double-solve on a warm dir
