"""No checkpoint outlives its job, and a v1 jobs file upgrades in place.

A job's durable state must end with the job: once a job is terminal
(succeeded, failed, cancelled) nothing may remain in its jobs
directory but the ``jobs.sqlite3`` database and its WAL side files.
"""

import json
import sqlite3
import time

import pytest

from repro.engine import Engine
from repro.jobs import (
    JobSpec,
    JobStore,
    Worker,
    WorkerConfig,
    execute_job,
    job_digest,
    open_store,
)
from repro.library import e10000_model
from repro.spec import model_to_spec

BLOCK = "E10000 Server/Operating System"


class Crash(BaseException):
    """A worker dying mid-job, between two chunks."""


def sweep_spec(values, **overrides):
    return JobSpec(
        kind="sweep",
        spec=model_to_spec(e10000_model()),
        params={"field": "mtbf_hours", "block": BLOCK, "values": values},
        **overrides,
    )


def good_values(count=6):
    return [1e5 + 1e5 * i for i in range(count)]


@pytest.fixture
def jobs_dir(tmp_path):
    return tmp_path / "jobs"


@pytest.fixture
def harness(jobs_dir, tmp_path):
    store = open_store(cache_dir=jobs_dir)
    engine = Engine(jobs=1, cache_dir=tmp_path / "cache")
    return store, engine


def leftovers(jobs_dir):
    """Every path under the jobs directory but the database files."""
    return sorted(
        str(path.relative_to(jobs_dir))
        for path in jobs_dir.rglob("*")
        if not path.name.startswith("jobs.sqlite3")
    )


def assert_no_checkpoint(store, job_id, jobs_dir):
    assert store.load_checkpoint(job_id) is None
    assert leftovers(jobs_dir) == []


def test_permanent_failure_after_one_chunk(harness, jobs_dir):
    store, engine = harness
    values = good_values(3) + [-1.0] + good_values(2)
    record, _ = store.submit(sweep_spec(values))
    worker = Worker(
        store, engine, WorkerConfig(once=True, checkpoint_every=3)
    )
    assert worker.run() == 1
    failed = store.get(record.id)
    assert failed.state == "failed"
    assert "permanent" in failed.error
    assert engine.stats.snapshot().counters["jobs_points_completed"] == 3
    assert_no_checkpoint(store, record.id, jobs_dir)


def test_released_then_cancelled_while_queued(harness, jobs_dir):
    store, engine = harness
    record, _ = store.submit(sweep_spec(good_values()))
    chunks = []
    outcome = execute_job(
        store.lease("w1"), store, engine,
        checkpoint_every=2,
        should_stop=lambda: len(chunks) >= 1 or chunks.append(None),
    )
    assert outcome == "released"
    assert store.get(record.id).state == "queued"
    assert len(store.load_checkpoint(record.id).values) == 2
    assert store.cancel(record.id).state == "cancelled"
    assert_no_checkpoint(store, record.id, jobs_dir)


def test_lease_expiry_with_no_attempts_left(harness, jobs_dir):
    store, engine = harness
    record, _ = store.submit(sweep_spec(good_values(), max_attempts=1))
    chunks = []

    def crash_after_one_chunk():
        if chunks:
            raise Crash()
        chunks.append(None)
        return False

    with pytest.raises(Crash):
        execute_job(
            store.lease("w1"), store, engine,
            checkpoint_every=2, should_stop=crash_after_one_chunk,
        )
    assert store.get(record.id).state == "running"
    assert len(store.load_checkpoint(record.id).values) == 2
    assert store.lease("w2", lease_timeout=1.0, now=time.time() + 60) is None
    expired = store.get(record.id)
    assert expired.state == "failed"
    assert "lease expired" in expired.error
    assert_no_checkpoint(store, record.id, jobs_dir)


def test_success(harness, jobs_dir):
    store, engine = harness
    record, _ = store.submit(sweep_spec(good_values()))
    assert execute_job(
        store.lease("w1"), store, engine, checkpoint_every=2
    ) == "succeeded"
    assert store.get(record.id).state == "succeeded"
    assert_no_checkpoint(store, record.id, jobs_dir)


def test_cancel_mid_run(harness, jobs_dir, monkeypatch):
    store, engine = harness
    record, _ = store.submit(sweep_spec(good_values()))
    solve = engine.sweep_availabilities

    def cancel_while_solving(*args, **kwargs):
        store.cancel(record.id)
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine, "sweep_availabilities", cancel_while_solving)
    assert execute_job(
        store.lease("w1"), store, engine, checkpoint_every=2
    ) == "cancelled"
    cancelled = store.get(record.id)
    assert cancelled.state == "cancelled"
    assert engine.stats.snapshot().counters["jobs_points_completed"] == 2
    assert_no_checkpoint(store, record.id, jobs_dir)


#: The version-1 jobs schema, as files written before the checkpoint
#: column existed hold it.
V1_DDL = """
CREATE TABLE jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    state            TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    submitted_at     REAL NOT NULL,
    updated_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    heartbeat_at     REAL,
    not_before       REAL NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    error            TEXT,
    spec             TEXT NOT NULL,
    result           TEXT
);
CREATE INDEX idx_jobs_claim ON jobs (state, priority DESC, submitted_at);
"""


def test_v1_database_upgrades_and_runs_from_point_zero(tmp_path):
    spec = sweep_spec(good_values(5))
    reference_store = JobStore(tmp_path / "ref" / "jobs.sqlite3")
    reference_store.submit(spec)
    assert execute_job(
        reference_store.lease("ref"), reference_store,
        Engine(jobs=1, cache=False), checkpoint_every=2,
    ) == "succeeded"
    reference = reference_store.list_jobs()[0].result

    # A v1 file holding the queued job, plus a checkpoint file the old
    # layout left beside it: the upgrade neither reads nor removes it.
    jobs_dir = tmp_path / "jobs"
    jobs_dir.mkdir()
    job_id = job_digest(spec)
    conn = sqlite3.connect(jobs_dir / "jobs.sqlite3")
    conn.executescript(V1_DDL)
    conn.execute(
        "INSERT INTO jobs (id, kind, state, priority, max_attempts, "
        "submitted_at, updated_at, spec) VALUES (?, ?, 'queued', ?, ?, "
        "?, ?, ?)",
        (job_id, spec.kind, spec.priority, spec.max_attempts, 1.0, 1.0,
         spec.to_json()),
    )
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()
    old = jobs_dir / "checkpoints" / f"{job_id}.ckpt.json"
    old.parent.mkdir()
    old.write_text(json.dumps({
        "job_id": job_id, "kind": "sweep", "total": 5,
        "values": [0.5, 0.5],
    }, sort_keys=True))
    old_bytes = old.read_bytes()

    store = open_store(cache_dir=jobs_dir)
    assert store.db.user_version() == 2
    [record] = store.list_jobs()
    assert (record.id, record.state, record.submitted_at) == (
        job_id, "queued", 1.0
    )
    engine = Engine(jobs=1, cache=False)
    assert execute_job(
        store.lease("w1"), store, engine, checkpoint_every=2
    ) == "succeeded"
    assert "jobs_points_resumed" not in engine.stats.snapshot().counters
    assert engine.stats.snapshot().system_solves == 5
    assert store.get(job_id).result == reference
    assert old.read_bytes() == old_bytes
