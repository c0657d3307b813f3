r"""The durable job store: one SQLite file shared by submitters and workers.

Every mutation is a single transaction on the store's one
connection, so the store is safe to share between the CLI, the HTTP
service, and any number of worker processes — each process holds its
own connection, and SQLite's file locking is the coordination
mechanism, exactly what a stdlib-only deployment has available.

State machine (enforced here, not in callers)::

    queued --lease--> running --succeed--> succeeded
                         |  \--fail(permanent or budget spent)--> failed
                         |  \--fail(transient)/lease expiry--> queued
                         \--release (graceful preemption)--> queued
    queued/running --cancel--> cancelled (running jobs observe the
                               flag at their next checkpoint)

Leases double as crash detection: a worker checkpoints (and so
heartbeats) while executing, and :meth:`JobStore.lease` requeues any
running job whose heartbeat is older than the lease timeout — the
recovery path behind the SIGKILL-and-resume guarantee.

A job's checkpoint lives in its own row, so every statement that makes
a job terminal clears it: no checkpoint outlives its job.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..database import PartsDatabase
from ..errors import RascadError
from ..store import Migration, Schema, SqliteStore
from .types import (
    CANCELLED,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    Checkpoint,
    JobRecord,
    JobSpec,
    job_digest,
)

#: Default file name inside a cache directory.
JOBS_DB_FILENAME = "jobs.sqlite3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
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
CREATE INDEX IF NOT EXISTS idx_jobs_claim
    ON jobs (state, priority DESC, submitted_at);
"""

#: The jobs database schema, versioned via ``PRAGMA user_version``.
JOBS_SCHEMA = Schema(
    "jobs",
    [
        Migration(1, "jobs table and claim index", _SCHEMA),
        Migration(2, "checkpoint column",
                  "ALTER TABLE jobs ADD COLUMN checkpoint TEXT"),
    ],
)

#: Every column but ``checkpoint``: record reads never fetch it.
_RECORD = (
    "SELECT id, kind, state, priority, attempts, max_attempts, "
    "submitted_at, updated_at, started_at, finished_at, heartbeat_at, "
    "not_before, cancel_requested, worker, error, spec, result FROM jobs"
)


class JobNotFoundError(RascadError):
    """No job with the given id exists in the store."""


class JobStore:
    """SQLite-backed durable job queue.

    Args:
        path: The database file; parent directories are created.
        database: Parts database used to validate submitted specs when
            computing content-digest ids.
    """

    def __init__(
        self,
        path: Union[str, Path],
        database: Optional[PartsDatabase] = None,
    ) -> None:
        self.db = SqliteStore(path, JOBS_SCHEMA)
        self.path = self.db.path
        self.database = database

    def close(self) -> None:
        self.db.close()

    # ------------------------------------------------------------------
    # submission and inspection
    # ------------------------------------------------------------------
    def submit(
        self, spec: JobSpec, now: Optional[float] = None
    ) -> "tuple[JobRecord, bool]":
        """Enqueue a job; returns ``(record, created)``.

        The id is the submission's content digest, so resubmitting an
        identical spec returns the existing record with
        ``created=False`` — no duplicate work is enqueued, whatever
        state the original is in.
        """
        job_id = job_digest(spec, database=self.database)
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            cursor = conn.execute(
                """
                INSERT OR IGNORE INTO jobs
                    (id, kind, state, priority, max_attempts,
                     submitted_at, updated_at, spec)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    job_id, spec.kind, QUEUED, spec.priority,
                    spec.max_attempts, now, now, spec.to_json(),
                ),
            )
            created = cursor.rowcount == 1
            row = conn.execute(
                f"{_RECORD} WHERE id = ?", (job_id,)
            ).fetchone()
        return _record(row), created

    def get(self, job_id: str) -> JobRecord:
        with self.db.connection() as conn:
            row = conn.execute(
                f"{_RECORD} WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobNotFoundError(f"no job with id {job_id!r}")
        return _record(row)

    def list_jobs(
        self,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: int = 100,
    ) -> List[JobRecord]:
        """Recent jobs, newest first, optionally filtered."""
        if state is not None and state not in JOB_STATES:
            raise RascadError(
                f"unknown job state {state!r}; known: {list(JOB_STATES)}"
            )
        clauses, args = [], []  # type: ignore[var-annotated]
        if state is not None:
            clauses.append("state = ?")
            args.append(state)
        if kind is not None:
            clauses.append("kind = ?")
            args.append(kind)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self.db.connection() as conn:
            rows = conn.execute(
                f"{_RECORD} {where} "
                "ORDER BY submitted_at DESC LIMIT ?",
                (*args, int(limit)),
            ).fetchall()
        return [_record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per state — the ``/metrics`` job gauges."""
        totals = {state: 0 for state in JOB_STATES}
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        for row in rows:
            totals[row["state"]] = row["n"]
        return totals

    # ------------------------------------------------------------------
    # worker-side transitions
    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str,
        lease_timeout: float = 60.0,
        now: Optional[float] = None,
    ) -> Optional[JobRecord]:
        """Atomically claim the best queued job, or ``None``.

        Before claiming, running jobs whose heartbeat is older than
        ``lease_timeout`` are recovered: requeued while they still have
        attempts left, failed otherwise — the path a SIGKILLed worker's
        jobs come back through.
        """
        now = time.time() if now is None else now
        stale = now - lease_timeout
        with self.db.transaction(immediate=True) as conn:
            conn.execute(
                """
                UPDATE jobs SET state = ?, worker = NULL, updated_at = ?
                WHERE state = ? AND heartbeat_at < ? AND
                      attempts < max_attempts
                """,
                (QUEUED, now, RUNNING, stale),
            )
            conn.execute(
                """
                UPDATE jobs SET state = ?, worker = NULL, updated_at = ?,
                       finished_at = ?, checkpoint = NULL,
                       error = 'lease expired with no attempts left'
                WHERE state = ? AND heartbeat_at < ?
                """,
                (FAILED, now, now, RUNNING, stale),
            )
            row = conn.execute(
                """
                SELECT id FROM jobs
                WHERE state = ? AND not_before <= ?
                ORDER BY priority DESC, submitted_at
                LIMIT 1
                """,
                (QUEUED, now),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                """
                UPDATE jobs SET state = ?, worker = ?, attempts = attempts + 1,
                       started_at = COALESCE(started_at, ?),
                       heartbeat_at = ?, updated_at = ?
                WHERE id = ?
                """,
                (RUNNING, worker, now, now, now, row["id"]),
            )
            claimed = conn.execute(
                f"{_RECORD} WHERE id = ?", (row["id"],)
            ).fetchone()
        return _record(claimed)

    def save_checkpoint(
        self, checkpoint: Checkpoint, now: Optional[float] = None
    ) -> bool:
        """Record a running job's checkpoint and heartbeat it.

        One transaction writes both and reads back whether a cancel
        was requested, so the runner needs nothing else per chunk.
        A job that is no longer running is left alone (``False``).
        """
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            row = conn.execute(
                """
                UPDATE jobs SET checkpoint = ?, heartbeat_at = ?,
                       updated_at = ?
                WHERE id = ? AND state = ?
                RETURNING cancel_requested
                """,
                (checkpoint.to_json(), now, now, checkpoint.job_id, RUNNING),
            ).fetchone()
        return bool(row and row["cancel_requested"])

    def load_checkpoint(self, job_id: str) -> Optional[Checkpoint]:
        """The job's last checkpoint, or ``None``."""
        with self.db.connection() as conn:
            row = conn.execute(
                "SELECT checkpoint FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None or row["checkpoint"] is None:
            return None
        return Checkpoint.from_json(row["checkpoint"])

    def succeed(
        self,
        job_id: str,
        result: Dict[str, object],
        now: Optional[float] = None,
    ) -> None:
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            conn.execute(
                """
                UPDATE jobs SET state = ?, result = ?, finished_at = ?,
                       updated_at = ?, error = NULL, worker = NULL,
                       checkpoint = NULL
                WHERE id = ? AND state = ?
                """,
                (
                    SUCCEEDED, json.dumps(result, sort_keys=True),
                    now, now, job_id, RUNNING,
                ),
            )

    def fail(
        self,
        job_id: str,
        error: str,
        retryable: bool,
        backoff: float = 0.0,
        now: Optional[float] = None,
    ) -> str:
        """Record a failed attempt; returns the resulting state.

        A retryable failure with budget left requeues the job gated by
        ``not_before = now + backoff`` and keeps its checkpoint;
        anything else is terminal and clears it.
        """
        now = time.time() if now is None else now
        with self.db.transaction(immediate=True) as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE id = ? AND state = ?",
                (job_id, RUNNING),
            ).fetchone()
            if row is None:
                return self.get(job_id).state
            retry = retryable and row["attempts"] < row["max_attempts"]
            state = QUEUED if retry else FAILED
            conn.execute(
                """
                UPDATE jobs SET state = ?, error = ?, updated_at = ?,
                       worker = NULL, not_before = ?, finished_at = ?,
                       checkpoint = CASE WHEN ? THEN checkpoint END
                WHERE id = ?
                """,
                (
                    state, error, now,
                    now + backoff if retry else 0.0,
                    None if retry else now,
                    retry,
                    job_id,
                ),
            )
        return state

    def release(self, job_id: str, now: Optional[float] = None) -> None:
        """Return a running job to the queue without spending an attempt.

        The graceful-preemption path (SIGTERM): the worker stops at a
        chunk boundary, whose checkpoint is already in the row, releases,
        and exits; a later lease resumes from that checkpoint.
        """
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            conn.execute(
                """
                UPDATE jobs SET state = ?, worker = NULL, updated_at = ?,
                       attempts = MAX(attempts - 1, 0)
                WHERE id = ? AND state = ?
                """,
                (QUEUED, now, job_id, RUNNING),
            )

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str, now: Optional[float] = None) -> JobRecord:
        """Cancel a job.

        Queued jobs cancel immediately; running jobs get
        ``cancel_requested`` set and transition when their worker next
        checks (at a checkpoint boundary).  Terminal jobs are returned
        unchanged.
        """
        now = time.time() if now is None else now
        with self.db.transaction(immediate=True) as conn:
            conn.execute(
                """
                UPDATE jobs SET state = ?, finished_at = ?, updated_at = ?,
                       cancel_requested = 1, worker = NULL, checkpoint = NULL
                WHERE id = ? AND state = ?
                """,
                (CANCELLED, now, now, job_id, QUEUED),
            )
            conn.execute(
                "UPDATE jobs SET cancel_requested = 1, updated_at = ? "
                "WHERE id = ? AND state = ?",
                (now, job_id, RUNNING),
            )
        return self.get(job_id)

    def mark_cancelled(
        self, job_id: str, now: Optional[float] = None
    ) -> None:
        """A worker acknowledging a cancel request mid-run."""
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            conn.execute(
                """
                UPDATE jobs SET state = ?, finished_at = ?, updated_at = ?,
                       worker = NULL, checkpoint = NULL
                WHERE id = ? AND state = ?
                """,
                (CANCELLED, now, now, job_id, RUNNING),
            )


def _record(row: sqlite3.Row) -> JobRecord:
    result = row["result"]
    return JobRecord(
        id=row["id"],
        kind=row["kind"],
        state=row["state"],
        priority=row["priority"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        submitted_at=row["submitted_at"],
        updated_at=row["updated_at"],
        started_at=row["started_at"],
        finished_at=row["finished_at"],
        heartbeat_at=row["heartbeat_at"],
        not_before=row["not_before"],
        cancel_requested=bool(row["cancel_requested"]),
        worker=row["worker"],
        error=row["error"],
        spec_json=row["spec"],
        result=json.loads(result) if result else None,
    )
