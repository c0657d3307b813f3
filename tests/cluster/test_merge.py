"""Positional merges and telemetry roll-ups."""

import pytest

from repro.cluster.config import ClusterError
from repro.cluster.merge import (
    merge_histograms,
    merge_points,
    merge_worker_metrics,
)
from repro.cluster.sharding import plan_shards
from repro.obs.histogram import Histogram

DIGEST = "wl-0123456789abcdef0123456789abcdef"


def shard_results(shards, values):
    return {
        shard.id: [float(v) for v in values[shard.lo:shard.hi]]
        for shard in shards
    }


class TestMergePoints:
    def test_concatenates_in_workload_order(self):
        values = list(range(25))
        shards = plan_shards(DIGEST, len(values), 10)
        results = shard_results(shards, values)
        merged = merge_points(reversed(shards), results)
        assert merged == [float(v) for v in values]

    def test_missing_shard_raises(self):
        shards = plan_shards(DIGEST, 20, 10)
        results = shard_results(shards, list(range(20)))
        del results[shards[1].id]
        with pytest.raises(ClusterError, match="has no result"):
            merge_points(shards, results)

    def test_length_mismatch_raises(self):
        shards = plan_shards(DIGEST, 20, 10)
        results = shard_results(shards, list(range(20)))
        results[shards[0].id] = results[shards[0].id][:-1]
        with pytest.raises(ClusterError, match="expected 10"):
            merge_points(shards, results)

    def test_non_tiling_plan_raises(self):
        shards = plan_shards(DIGEST, 20, 10)
        results = shard_results(shards, list(range(20)))
        with pytest.raises(ClusterError, match="does not tile"):
            merge_points(shards[1:], results)


class TestMergeHistograms:
    def test_empty_is_none(self):
        assert merge_histograms([]) is None

    def test_counts_and_sums_add(self):
        a, b = Histogram(), Histogram()
        for value in (0.001, 0.2):
            a.observe(value)
        b.observe(4.0)
        merged = merge_histograms([a.to_dict(), b.to_dict()])
        assert merged.count == 3
        assert merged.sum == pytest.approx(4.201)

    def test_mismatched_ladders_raise(self):
        a = Histogram((0.1, 1.0))
        b = Histogram((0.5, 5.0))
        with pytest.raises(ValueError):
            merge_histograms([a.to_dict(), b.to_dict()])


class TestMergeWorkerMetrics:
    def metrics_doc(self, solves, latency_values):
        histogram = Histogram()
        for value in latency_values:
            histogram.observe(value)
        return {
            "engine": {
                "system_solves": solves,
                "counters": {"service_requests": solves * 2},
                "latency": {"/v1/solve": histogram.to_dict()},
            },
        }

    def test_counters_add_and_latency_merges(self):
        fleet = {
            "a:1": self.metrics_doc(3, [0.01, 0.02]),
            "b:1": self.metrics_doc(5, [0.5]),
        }
        rolled = merge_worker_metrics(fleet)
        assert rolled["workers"] == 2
        assert rolled["counters"]["system_solves"] == 8
        assert rolled["counters"]["service_requests"] == 16
        assert rolled["latency"]["/v1/solve"]["count"] == 3

    def test_workers_without_engine_sections_are_skipped(self):
        rolled = merge_worker_metrics({"a:1": {}, "b:1": {"engine": 7}})
        assert rolled["workers"] == 2
        assert rolled["counters"] == {}
