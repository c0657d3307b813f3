"""Instrumentation: counters, derived metrics, snapshot persistence."""

import json
import os

import pytest

from repro.engine import (
    EngineStats,
    load_stats,
    metrics_payload,
    save_stats,
)
from repro.engine.stats import STATS_FILENAME, StatsCollector


class TestCollector:
    def test_counters_accumulate(self):
        collector = StatsCollector()
        collector.increment("block_solves")
        collector.increment("block_solves", 2)
        collector.increment("block_cache_hits", 9)
        snapshot = collector.snapshot()
        assert snapshot.block_solves == 3
        assert snapshot.block_cache_hits == 9
        assert snapshot.block_lookups == 12
        assert snapshot.cache_hit_rate == 0.75

    def test_timer_attributes_wall_time(self):
        collector = StatsCollector()
        with collector.timer("sweep"):
            pass
        with collector.timer("sweep"):
            pass
        snapshot = collector.snapshot()
        assert snapshot.stage_seconds["sweep"] >= 0.0
        assert snapshot.wall_seconds == sum(
            snapshot.stage_seconds.values()
        )

    def test_reset_clears_everything(self):
        collector = StatsCollector()
        collector.increment("block_solves")
        collector.add_busy(1.0)
        collector.set_jobs(8)
        collector.reset()
        snapshot = collector.snapshot()
        assert snapshot.block_solves == 0
        assert snapshot.busy_seconds == 0.0
        assert snapshot.jobs == 1


class TestDerivedMetrics:
    def test_hit_rate_defaults_to_zero(self):
        assert EngineStats().cache_hit_rate == 0.0

    def test_worker_utilization_bounded(self):
        stats = EngineStats(
            jobs=2, busy_seconds=10.0, stage_seconds={"sweep": 1.0}
        )
        assert stats.worker_utilization == 1.0
        idle = EngineStats(jobs=2, busy_seconds=0.0)
        assert idle.worker_utilization == 0.0

    def test_format_mentions_the_headline_numbers(self):
        stats = EngineStats(
            block_solves=4, block_cache_hits=12, jobs=3,
            stage_seconds={"sweep": 0.5},
        )
        text = stats.format()
        assert "hit rate" in text
        assert "75.0%" in text
        assert "jobs=3" in text
        assert "stage sweep" in text


class TestPersistence:
    def test_round_trip(self, tmp_path):
        stats = EngineStats(
            block_solves=7, block_cache_hits=3, disk_hits=1,
            tasks_submitted=4, tasks_completed=4, jobs=2,
            busy_seconds=1.5, stage_seconds={"solve": 0.25},
        )
        target = save_stats(stats, tmp_path)
        assert target.name == STATS_FILENAME
        loaded = load_stats(tmp_path)
        assert loaded == stats

    def test_missing_file_is_none(self, tmp_path):
        assert load_stats(tmp_path) is None

    def test_corrupt_file_is_none(self, tmp_path):
        (tmp_path / STATS_FILENAME).write_text("{not json")
        assert load_stats(tmp_path) is None

    def test_unknown_keys_ignored(self, tmp_path):
        payload = EngineStats(block_solves=1).to_dict()
        payload["from_the_future"] = 99
        (tmp_path / STATS_FILENAME).write_text(json.dumps(payload))
        loaded = load_stats(tmp_path)
        assert loaded is not None
        assert loaded.block_solves == 1

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        save_stats(EngineStats(block_solves=1), tmp_path)
        save_stats(EngineStats(block_solves=2), tmp_path)
        leftovers = [
            name for name in os.listdir(tmp_path)
            if name != STATS_FILENAME
        ]
        assert leftovers == []
        assert load_stats(tmp_path).block_solves == 2

    def test_pre_service_snapshot_files_still_load(self, tmp_path):
        # A stats.json written before the service fields existed.
        payload = EngineStats(block_solves=3).to_dict()
        for legacy_missing in (
            "counters", "gauges", "route_counts", "latency",
        ):
            del payload[legacy_missing]
        (tmp_path / STATS_FILENAME).write_text(json.dumps(payload))
        loaded = load_stats(tmp_path)
        assert loaded is not None
        assert loaded.block_solves == 3
        assert loaded.route_counts == {}


class TestServiceTelemetry:
    def test_gauges_routes_and_latency_snapshot(self):
        collector = StatsCollector()
        collector.set_gauge("queue_depth", 3)
        collector.record_request("POST /v1/solve", 200)
        collector.record_request("POST /v1/solve", 200)
        collector.record_request("POST /v1/solve", 429)
        for sample in (0.010, 0.020, 0.030, 0.500):
            collector.record_latency("POST /v1/solve", sample)
        snapshot = collector.snapshot()
        assert snapshot.gauges["queue_depth"] == 3.0
        assert snapshot.route_counts["POST /v1/solve 200"] == 2
        assert snapshot.route_counts["POST /v1/solve 429"] == 1
        latency = snapshot.latency["POST /v1/solve"]
        assert latency["count"] == 4
        assert latency["sum"] == pytest.approx(0.560)
        # Histogram buckets are cumulative with Prometheus `le`
        # semantics: 0.010 and 0.020 land at or below le=0.025.
        assert latency["buckets"]["0.025"] == 2
        assert latency["buckets"]["0.05"] == 3
        assert latency["buckets"]["0.5"] == 4
        assert latency["buckets"]["+Inf"] == 4

    def test_generic_counters_survive_the_round_trip(self, tmp_path):
        collector = StatsCollector()
        collector.increment("service_dedup_hits", 63)
        collector.increment("block_solves", 2)
        snapshot = collector.snapshot()
        assert snapshot.counters == {"service_dedup_hits": 63}
        save_stats(snapshot, tmp_path)
        loaded = load_stats(tmp_path)
        assert loaded.counters["service_dedup_hits"] == 63

    def test_reset_clears_service_telemetry(self):
        collector = StatsCollector()
        collector.set_gauge("in_flight", 5)
        collector.record_request("GET /healthz", 200)
        collector.record_latency("GET /healthz", 0.001)
        collector.reset()
        snapshot = collector.snapshot()
        assert snapshot.gauges == {}
        assert snapshot.route_counts == {}
        assert snapshot.latency == {}


class TestMetricsPayload:
    def test_shared_serialization_shape(self):
        stats = EngineStats(
            block_solves=4, block_cache_hits=12,
            counters={"service_admitted": 2},
        )
        payload = metrics_payload(
            stats, disk_usage=(5, 1234), service={"in_flight": 1}
        )
        assert payload["engine"]["block_solves"] == 4
        assert payload["derived"]["cache_hit_rate"] == 0.75
        assert payload["cache"] == {
            "disk_entries": 5, "disk_bytes": 1234,
        }
        assert payload["service"] == {"in_flight": 1}
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_no_stats_yields_engine_null(self):
        payload = metrics_payload(None, disk_usage=(0, 0))
        assert payload["engine"] is None
        assert "derived" not in payload
