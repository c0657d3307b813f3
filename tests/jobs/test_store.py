"""The SQLite job store: dedup, leasing, recovery, and cancellation."""

import pytest

from repro.errors import RascadError
from repro.jobs import Checkpoint, JobNotFoundError, JobSpec, JobStore
from repro.library import e10000_model, workgroup_model
from repro.spec import model_to_spec


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


def sweep_spec(model=None, **overrides):
    params = overrides.pop("params", {"field": "mtbf_hours",
                                      "values": [1e5, 2e5]})
    return JobSpec(
        kind="sweep",
        spec=model_to_spec(model or e10000_model()),
        params=params,
        **overrides,
    )


class TestSubmit:
    def test_submit_creates_queued_job(self, store):
        record, created = store.submit(sweep_spec())
        assert created
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.id.startswith("job-")

    def test_resubmission_dedups_to_existing_id(self, store):
        first, created_first = store.submit(sweep_spec())
        second, created_second = store.submit(sweep_spec())
        assert created_first and not created_second
        assert first.id == second.id
        assert len(store.list_jobs()) == 1

    def test_spec_survives_round_trip(self, store):
        submitted = sweep_spec(priority=2, max_attempts=5)
        record, _ = store.submit(submitted)
        assert store.get(record.id).spec == submitted

    def test_get_unknown_id_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.get("job-missing")


class TestLease:
    def test_lease_claims_and_spends_an_attempt(self, store):
        record, _ = store.submit(sweep_spec())
        leased = store.lease("w1")
        assert leased is not None
        assert leased.id == record.id
        assert leased.state == "running"
        assert leased.attempts == 1
        assert leased.worker == "w1"

    def test_empty_queue_leases_nothing(self, store):
        assert store.lease("w1") is None

    def test_higher_priority_leases_first(self, store):
        low, _ = store.submit(sweep_spec(priority=0))
        high, _ = store.submit(
            sweep_spec(model=workgroup_model(), priority=9)
        )
        assert store.lease("w1").id == high.id
        assert store.lease("w1").id == low.id

    def test_backoff_gates_requeued_jobs(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1", now=100.0)
        store.fail(record.id, "flaky", retryable=True, backoff=30.0,
                   now=100.0)
        assert store.lease("w1", now=110.0) is None
        assert store.lease("w1", now=131.0) is not None

    def test_stale_heartbeat_is_reclaimed(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1", now=100.0)
        # Heartbeat stops (SIGKILL).  A later lease within the timeout
        # sees nothing; past the timeout the job is requeued and
        # claimable again.
        assert store.lease("w2", lease_timeout=60.0, now=120.0) is None
        reclaimed = store.lease("w2", lease_timeout=60.0, now=161.0)
        assert reclaimed is not None
        assert reclaimed.id == record.id
        assert reclaimed.attempts == 2

    def test_stale_job_with_no_budget_fails(self, store):
        record, _ = store.submit(sweep_spec(max_attempts=1))
        store.lease("w1", now=100.0)
        assert store.lease("w2", lease_timeout=60.0, now=161.0) is None
        failed = store.get(record.id)
        assert failed.state == "failed"
        assert "lease expired" in failed.error


class TestFail:
    def test_transient_failure_requeues(self, store):
        record, _ = store.submit(sweep_spec(max_attempts=3))
        store.lease("w1")
        state = store.fail(record.id, "timeout", retryable=True)
        assert state == "queued"
        assert store.get(record.id).error == "timeout"

    def test_permanent_failure_is_terminal(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        state = store.fail(record.id, "bad spec", retryable=False)
        assert state == "failed"
        assert store.get(record.id).finished_at is not None

    def test_exhausted_budget_is_terminal(self, store):
        record, _ = store.submit(sweep_spec(max_attempts=1))
        store.lease("w1")
        assert store.fail(record.id, "boom", retryable=True) == "failed"


class TestRelease:
    def test_release_refunds_the_attempt(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        store.release(record.id)
        requeued = store.get(record.id)
        assert requeued.state == "queued"
        assert requeued.attempts == 0

    def test_released_job_is_leasable_again(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        store.release(record.id)
        assert store.lease("w2").id == record.id


class TestCheckpoint:
    def test_save_load_round_trip(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        saved = Checkpoint(record.id, "sweep", 4, [0.9, 0.99])
        assert store.save_checkpoint(saved) is False
        assert store.load_checkpoint(record.id) == saved

    def test_missing_checkpoint_is_none(self, store):
        record, _ = store.submit(sweep_spec())
        assert store.load_checkpoint(record.id) is None
        assert store.load_checkpoint("job-missing") is None

    def test_save_heartbeats_the_job(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1", now=100.0)
        store.save_checkpoint(Checkpoint(record.id, "sweep", 2, [1.0]),
                              now=150.0)
        beaten = store.get(record.id)
        assert beaten.heartbeat_at == beaten.updated_at == 150.0
        # The fresh heartbeat keeps the lease alive past the old one.
        assert store.lease("w2", lease_timeout=60.0, now=161.0) is None

    def test_save_reports_a_cancel_request(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        store.cancel(record.id)
        checkpoint = Checkpoint(record.id, "sweep", 2, [1.0])
        assert store.save_checkpoint(checkpoint) is True
        assert store.load_checkpoint(record.id) == checkpoint

    def test_save_ignores_a_job_that_is_not_running(self, store):
        record, _ = store.submit(sweep_spec())
        assert store.save_checkpoint(
            Checkpoint(record.id, "sweep", 2, [1.0])
        ) is False
        assert store.load_checkpoint(record.id) is None

    def test_retry_and_release_keep_it_success_clears_it(self, store):
        record, _ = store.submit(sweep_spec())
        checkpoint = Checkpoint(record.id, "sweep", 2, [1.0])
        store.lease("w1")
        store.save_checkpoint(checkpoint)
        assert store.fail(record.id, "flaky", retryable=True) == "queued"
        assert store.load_checkpoint(record.id) == checkpoint
        store.lease("w1")
        store.release(record.id)
        assert store.load_checkpoint(record.id) == checkpoint
        store.lease("w1")
        store.succeed(record.id, {"ok": True})
        assert store.load_checkpoint(record.id) is None

    def test_record_reads_never_decode_it(self, store):
        record, _ = store.submit(sweep_spec())
        leased = store.lease("w1")
        with store.db.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET checkpoint = '{not json' WHERE id = ?",
                (record.id,),
            )
        assert store.get(record.id) == leased
        assert store.list_jobs() == [leased]
        assert store.counts()["running"] == 1


class TestCancel:
    def test_queued_job_cancels_immediately(self, store):
        record, _ = store.submit(sweep_spec())
        cancelled = store.cancel(record.id)
        assert cancelled.state == "cancelled"
        assert store.lease("w1") is None

    def test_running_job_gets_the_flag(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        flagged = store.cancel(record.id)
        assert flagged.state == "running"
        assert flagged.cancel_requested
        store.mark_cancelled(record.id)
        assert store.get(record.id).state == "cancelled"

    def test_terminal_job_unchanged(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        store.succeed(record.id, {"ok": True})
        assert store.cancel(record.id).state == "succeeded"


class TestInspection:
    def test_counts_by_state(self, store):
        store.submit(sweep_spec())
        record, _ = store.submit(sweep_spec(model=workgroup_model()))
        store.lease("w1")  # claims one of the two
        counts = store.counts()
        assert counts["queued"] == 1
        assert counts["running"] == 1
        assert counts["succeeded"] == 0

    def test_list_filters_by_state(self, store):
        store.submit(sweep_spec())
        store.submit(sweep_spec(model=workgroup_model()))
        store.lease("w1")
        assert len(store.list_jobs(state="running")) == 1
        assert len(store.list_jobs(state="queued")) == 1
        assert len(store.list_jobs()) == 2

    def test_list_rejects_unknown_state(self, store):
        with pytest.raises(RascadError, match="unknown job state"):
            store.list_jobs(state="zombie")

    def test_succeed_stores_result_payload(self, store):
        record, _ = store.submit(sweep_spec())
        store.lease("w1")
        store.succeed(record.id, {"points": [1.0], "result_digest": "x"})
        done = store.get(record.id)
        assert done.state == "succeeded"
        assert done.result["result_digest"] == "x"
