"""Dispatch scheduling against scripted workers: retries, steals, resume.

These tests drive the real :class:`Coordinator` machinery — shard
planning, the per-worker dispatch threads, the durable
:class:`ShardStore` — but replace the HTTP client with scripted fakes,
so failure interleavings that would be timing lotteries over real
sockets become deterministic event choreography.
"""

import hashlib
import json
import threading
import time

import pytest

from repro.cluster.client import WorkerCallError
from repro.cluster.config import (
    ClusterConfig,
    ClusterError,
    NoWorkersError,
    ShardFailedError,
)
from repro.cluster.coordinator import Coordinator, ShardStore, _JobState
from repro.cluster.membership import Membership, worker_id_for
from repro.cluster.sharding import plan_shards


class FakeWorkload:
    """An engine-free plan: each point's value is its own index."""

    def __init__(self, total=12, tag="t"):
        self.values = [float(i) for i in range(total)]
        self.digest = "wl-" + hashlib.sha256(
            f"{tag}:{total}".encode()
        ).hexdigest()[:32]

    @property
    def total(self):
        return len(self.values)

    def fleet_range(self, call, lo, hi):
        return call("/fake", {"lo": lo, "hi": hi})["values"]


class ScriptedClient:
    """A worker client whose behaviour is a per-worker callable."""

    def __init__(self, url, behaviors, calls):
        self.url = url
        self.worker_id = worker_id_for(url)
        self._behaviors = behaviors
        self._calls = calls

    def call(self, path, payload, trace_header=None):
        lo, hi = payload["lo"], payload["hi"]
        behavior = self._behaviors.get(self.worker_id)
        if behavior is not None:
            behavior(lo, hi)
        self._calls.append((self.worker_id, lo, hi))
        return {"values": [float(i) for i in range(lo, hi)]}


def make_coordinator(
    workers, behaviors=None, store=None, **config_overrides
):
    config_overrides.setdefault("shard_size", 4)
    config_overrides.setdefault("heartbeat_interval", 0.01)
    config = ClusterConfig(workers=tuple(workers), **config_overrides)
    calls = []
    coordinator = Coordinator(
        Membership(lease_timeout=config.lease_timeout),
        store=store,
        config=config,
        client_factory=lambda url, timeout=None: ScriptedClient(
            url, behaviors or {}, calls
        ),
    )
    return coordinator, calls


class TestHappyPath:
    def test_two_workers_cover_the_whole_range_in_order(self):
        coordinator, calls = make_coordinator(
            ["http://a:1", "http://b:1"]
        )
        workload = FakeWorkload(total=22)
        points = coordinator.run_workload(workload, timeout=30)
        assert points == workload.values
        assert coordinator.jobs_completed == 1
        assert coordinator.shards_completed == 6
        # Every executed range landed exactly once in the result.
        done = sum(
            coordinator.membership.get(w).shards_done
            for w in ("a:1", "b:1")
        )
        assert done == 6

    def test_rerun_of_a_completed_workload_is_all_cache(self):
        store = ShardStore()
        coordinator, calls = make_coordinator(
            ["http://a:1"], store=store
        )
        workload = FakeWorkload(total=8)
        first = coordinator.run_workload(workload, timeout=30)
        executed = len(calls)
        second = coordinator.run_workload(workload, timeout=30)
        assert second == first
        assert len(calls) == executed  # nothing re-executed


class TestFailures:
    def test_retryable_failure_requeues_on_the_survivor(self):
        bad_failed = threading.Event()

        def bad(lo, hi):
            bad_failed.set()
            raise WorkerCallError("connection refused", retryable=True)

        def good(lo, hi):
            assert bad_failed.wait(10)

        coordinator, calls = make_coordinator(
            ["http://bad:1", "http://good:1"],
            behaviors={"bad:1": bad, "good:1": good},
        )
        workload = FakeWorkload(total=12)
        points = coordinator.run_workload(workload, timeout=30)
        assert points == workload.values
        assert {worker for worker, _, _ in calls} == {"good:1"}
        assert coordinator.membership.get("bad:1").state == "dead"
        assert coordinator.shards_retried >= 1
        assert coordinator.membership.get("bad:1").shards_failed >= 1

    def test_permanent_failure_fails_the_workload(self):
        def bad(lo, hi):
            raise WorkerCallError(
                "spec rejected", retryable=False, status=400
            )

        coordinator, _ = make_coordinator(
            ["http://a:1"], behaviors={"a:1": bad}
        )
        workload = FakeWorkload(total=8)
        with pytest.raises(WorkerCallError, match="spec rejected"):
            coordinator.run_workload(workload, timeout=30)
        # The failed shard went back on the market, not into limbo.
        states = {
            row["state"]
            for row in coordinator.store.rows(workload.digest)
        }
        assert states == {"pending"}

    def test_every_worker_dead_raises_no_workers(self):
        def bad(lo, hi):
            raise WorkerCallError("boom", retryable=True)

        coordinator, _ = make_coordinator(
            ["http://a:1", "http://b:1"],
            behaviors={"a:1": bad, "b:1": bad},
        )
        with pytest.raises(NoWorkersError):
            coordinator.run_workload(FakeWorkload(total=8), timeout=30)

    def test_empty_fleet_raises_no_workers(self):
        coordinator, _ = make_coordinator([])
        with pytest.raises(NoWorkersError):
            coordinator.run_workload(FakeWorkload(total=8), timeout=30)

    def test_deadline_raises_cluster_error(self):
        release = threading.Event()

        def stuck(lo, hi):
            release.wait(10)

        coordinator, _ = make_coordinator(
            ["http://a:1"], behaviors={"a:1": stuck}, steal_after=60.0
        )
        try:
            with pytest.raises(ClusterError, match="deadline"):
                coordinator.run_workload(FakeWorkload(total=8),
                                         timeout=0.3)
        finally:
            release.set()

    def test_exhausted_attempts_raise_shard_failed(self):
        coordinator, _ = make_coordinator(["http://a:1"])
        workload = FakeWorkload(total=4)
        shards = plan_shards(workload.digest, workload.total, 4)
        state = _JobState(workload.digest, shards)
        state.attempts[shards[0].id] = (
            coordinator.config.max_shard_attempts
        )
        with state.condition:
            assert coordinator._claim("a:1", state) is None
        assert isinstance(state.error, ShardFailedError)


class TestStealing:
    def test_slow_shard_is_stolen_and_first_write_wins(self):
        slow_claimed = threading.Event()
        release_slow = threading.Event()

        def slow(lo, hi):
            slow_claimed.set()
            release_slow.wait(10)

        def fast(lo, hi):
            assert slow_claimed.wait(10)

        coordinator, calls = make_coordinator(
            ["http://fast:1", "http://slow:1"],
            behaviors={"slow:1": slow, "fast:1": fast},
            steal_after=0.05,
        )
        workload = FakeWorkload(total=8)
        try:
            points = coordinator.run_workload(workload, timeout=30)
        finally:
            release_slow.set()
        assert points == workload.values
        assert coordinator.shards_stolen >= 1
        assert coordinator.membership.get("fast:1").shards_stolen >= 1
        # Let the stuck worker finish; its late completion must lose.
        time.sleep(0.1)
        results = coordinator.store.results(workload.digest)
        assert sorted(
            value for points in results.values() for value in points
        ) == workload.values

    def test_identical_workloads_in_flight_at_once_both_finish(self):
        """A retried request runs the same workload again while the
        first run is still going: the shards one run commits are done
        for the other, and both merge the same points."""
        active = []

        def slow(lo, hi):
            active.append(len(coordinator.status()["active"]))
            time.sleep(0.03)

        coordinator, _ = make_coordinator(
            ["http://a:1", "http://b:1"],
            behaviors={"a:1": slow, "b:1": slow},
            shard_size=2,
        )
        results, errors = [], []

        def run():
            try:
                results.append(coordinator.run_workload(
                    FakeWorkload(total=16, tag="same"), timeout=30
                ))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        assert len(results) == 2
        assert json.dumps(results[0]) == json.dumps(results[1])
        assert results[0] == FakeWorkload(total=16).values
        # Each run had its own status entry while both were in flight.
        assert max(active) == 2
        assert coordinator.status()["active"] == []


class TestResume:
    def test_completed_shards_are_not_reexecuted(self):
        workload = FakeWorkload(total=12)
        shards = plan_shards(workload.digest, workload.total, 4)
        store = ShardStore()
        store.plan(workload.digest, shards)
        store.lease(shards[0].id, "previous:1")
        store.complete(
            shards[0].id, workload.values[shards[0].lo:shards[0].hi]
        )

        coordinator, calls = make_coordinator(
            ["http://a:1"], store=store
        )
        points = coordinator.run_workload(workload, timeout=30)
        assert points == workload.values
        executed = {(lo, hi) for _, lo, hi in calls}
        assert (shards[0].lo, shards[0].hi) not in executed
        assert len(executed) == 2

    def test_a_row_in_the_point_document_format_never_merges(self):
        """Ledgers once stored a document per point; such a row is
        re-executed, not merged into the result."""
        workload = FakeWorkload(total=8)
        shards = plan_shards(workload.digest, workload.total, 4)
        store = ShardStore()
        store.plan(workload.digest, shards)
        store.lease(shards[0].id, "previous:1")
        store.complete(shards[0].id, [
            {"value": value, "availability": 0.5}
            for value in workload.values[shards[0].lo:shards[0].hi]
        ])

        coordinator, calls = make_coordinator(
            ["http://a:1"], store=store
        )
        points = coordinator.run_workload(workload, timeout=30)
        assert points == workload.values
        assert (shards[0].lo, shards[0].hi) in {
            (lo, hi) for _, lo, hi in calls
        }


class TestStatus:
    def test_totals_and_workers_reported(self):
        coordinator, _ = make_coordinator(["http://a:1"])
        coordinator.run_workload(FakeWorkload(total=8), timeout=30)
        status = coordinator.status()
        assert status["totals"]["jobs_completed"] == 1
        assert status["totals"]["shards_completed"] == 2
        assert [w["id"] for w in status["workers"]] == ["a:1"]
        assert status["active"] == []
        assert status["config"]["shard_size"] == 4
