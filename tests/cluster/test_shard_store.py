"""Durable shard lifecycle: leases, first-write-wins, resume."""

import pytest

from repro.cluster.coordinator import ShardStore
from repro.cluster.sharding import plan_shards

DIGEST = "wl-0123456789abcdef0123456789abcdef"


@pytest.fixture
def store():
    shard_store = ShardStore()
    yield shard_store
    shard_store.close()


def planned(store, total=40, size=10):
    shards = plan_shards(DIGEST, total, size)
    store.plan(DIGEST, shards)
    return shards


class TestPlanning:
    def test_plan_creates_pending_rows(self, store):
        shards = planned(store)
        assert store.counts(DIGEST) == {"pending": len(shards)}
        rows = store.rows(DIGEST)
        assert [row["idx"] for row in rows] == [0, 1, 2, 3]
        assert all(row["attempts"] == 0 for row in rows)

    def test_replanning_preserves_done_rows(self, store):
        shards = planned(store)
        store.lease(shards[0].id, "node-1:8100")
        store.complete(shards[0].id, [1.0])
        store.plan(DIGEST, shards)
        counts = store.counts(DIGEST)
        assert counts == {"done": 1, "pending": len(shards) - 1}
        assert shards[0].id in store.results(DIGEST)

    def test_replanning_releases_orphaned_running_rows(self, store):
        # A coordinator restart: whoever held these leases is gone.
        shards = planned(store)
        store.lease(shards[1].id, "node-1:8100")
        store.plan(DIGEST, shards)
        rows = {row["id"]: row for row in store.rows(DIGEST)}
        assert rows[shards[1].id]["state"] == "pending"
        assert rows[shards[1].id]["worker"] is None
        # The attempt it burned stays counted.
        assert rows[shards[1].id]["attempts"] == 1


class TestLifecycle:
    def test_lease_counts_attempts(self, store):
        shards = planned(store)
        assert store.lease(shards[0].id, "a:1") == 1
        assert store.release(shards[0].id)
        assert store.lease(shards[0].id, "b:1") == 2

    def test_complete_is_first_write_wins(self, store):
        shards = planned(store)
        store.lease(shards[0].id, "a:1")
        assert store.complete(shards[0].id, [1.0]) is True
        assert store.complete(shards[0].id, [9.0]) is False
        assert store.results(DIGEST)[shards[0].id] == [1.0]

    def test_lease_of_a_done_shard_returns_zero(self, store):
        shards = planned(store)
        store.lease(shards[0].id, "a:1")
        store.complete(shards[0].id, [])
        assert store.lease(shards[0].id, "b:1") == 0

    def test_lease_from_running_is_a_steal(self, store):
        shards = planned(store)
        assert store.lease(shards[0].id, "slow:1") == 1
        assert store.lease(shards[0].id, "thief:1") == 2
        rows = {row["id"]: row for row in store.rows(DIGEST)}
        assert rows[shards[0].id]["worker"] == "thief:1"

    def test_conditional_release_respects_the_current_holder(self, store):
        shards = planned(store)
        store.lease(shards[0].id, "slow:1")
        store.lease(shards[0].id, "thief:1")
        # The slow worker's late failure must not release the thief's
        # lease.
        assert store.release(shards[0].id, worker="slow:1") is False
        assert store.release(shards[0].id, worker="thief:1") is True

    def test_unconditional_release_only_touches_running(self, store):
        shards = planned(store)
        assert store.release(shards[0].id) is False
        store.lease(shards[0].id, "a:1")
        store.complete(shards[0].id, [])
        assert store.release(shards[0].id) is False


class TestResume:
    def test_results_survive_a_new_connection(self, tmp_path):
        path = str(tmp_path / "cluster.sqlite3")
        first = ShardStore(path)
        shards = plan_shards(DIGEST, 20, 10)
        first.plan(DIGEST, shards)
        first.lease(shards[0].id, "a:1")
        first.complete(shards[0].id, [1.0, 2.0])
        first.lease(shards[1].id, "a:1")  # in flight at the crash
        first.close()

        second = ShardStore(path)
        second.plan(DIGEST, plan_shards(DIGEST, 20, 10))
        counts = second.counts(DIGEST)
        assert counts == {"done": 1, "pending": 1}
        assert second.results(DIGEST)[shards[0].id] == [1.0, 2.0]
        second.close()

    def test_jobs_are_isolated_by_digest(self, store):
        shards_a = planned(store)
        other = "wl-ffffffffffffffffffffffffffffffff"
        store.plan(other, plan_shards(other, 10, 10))
        assert len(store.rows(DIGEST)) == len(shards_a)
        assert len(store.rows(other)) == 1
        assert store.counts(other) == {"pending": 1}
