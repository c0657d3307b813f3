"""The coordinator: durable shard table plus the dispatch scheduler.

:class:`ShardStore` persists every shard's lifecycle row in SQLite
(its own ``cluster.sqlite3`` beside the jobs database), so a
coordinator killed mid-job
replans the identical shard set on restart — shard ids are content
digests — and finds the completed rows already in place: only the
unfinished remainder re-executes.

:class:`Coordinator` knows no job kinds.  It takes a
:class:`repro.jobs.Plan` — a ``(digest, total)`` plus the kind's fleet
executor — and runs one dispatch thread per live worker.  Each
thread claims shards by rendezvous preference (its own assignment
first, then stealing), runs the plan's worker calls for the shard's
range, and commits its points first-write-wins.  The merged points go
back to the caller, which aggregates them with the kind's one
aggregate.  Liveness is heartbeat leases for dynamic workers and
dispatch-observed failure for static ones; a shard held by a dead or
slow worker goes back on the market.  None of this can change the
answer: solves are deterministic, the merge is positional, and a
duplicate execution of a stolen shard produces the same bytes.
"""

from __future__ import annotations

import json
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import carrier_to_header, get_logger, get_tracer, monotonic
from ..store import Migration, Schema, SqliteStore
from .client import WorkerCallError, WorkerClient
from .config import (
    ClusterConfig,
    ClusterError,
    NoWorkersError,
    ShardFailedError,
)
from .membership import Membership
from .merge import merge_points
from .sharding import Shard, pick_shard, plan_shards

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cluster_shards (
    id         TEXT PRIMARY KEY,
    job        TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    lo         INTEGER NOT NULL,
    hi         INTEGER NOT NULL,
    state      TEXT NOT NULL DEFAULT 'pending',
    worker     TEXT,
    lease_at   REAL,
    attempts   INTEGER NOT NULL DEFAULT 0,
    updated_at REAL NOT NULL,
    result     TEXT
);
CREATE INDEX IF NOT EXISTS cluster_shards_job
    ON cluster_shards (job, state);
"""

#: Default file name inside a cache directory (its own database —
#: every store file carries exactly one ``user_version`` chain).
CLUSTER_DB_FILENAME = "cluster.sqlite3"

#: The shard-ledger schema, versioned via ``PRAGMA user_version``.
CLUSTER_SCHEMA = Schema(
    "cluster", [Migration(1, "shard lifecycle table", _SCHEMA)]
)


class ShardStore:
    """SQLite persistence for shard lifecycle and results.

    The same idea as the jobs checkpoint table, one level up: rows are
    keyed by content-digest shard id, ``complete`` is first-write-wins,
    and a fresh coordinator ``plan()`` against an existing table is a
    resume, not a restart.  A result is the shard's point values, a
    JSON list of numbers.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.db = SqliteStore(path, CLUSTER_SCHEMA)
        self.path = str(self.db.path)

    def close(self) -> None:
        self.db.close()

    # ------------------------------------------------------------------
    # planning and resume
    # ------------------------------------------------------------------
    def plan(self, job: str, shards: Sequence[Shard]) -> Dict[str, int]:
        """Upsert a job's shard rows; completed rows survive as-is.

        Also releases rows a previous coordinator left ``running`` —
        the process holding those leases is gone — and re-opens
        ``done`` rows whose result is not a list of numbers: older
        ledgers stored one point document per value, which must never
        merge into a payload.  Returns the state counts after planning,
        so the caller can log the resume.
        """
        now = time.time()
        with self.db.transaction(immediate=True) as conn:
            for shard in shards:
                conn.execute(
                    "INSERT OR IGNORE INTO cluster_shards "
                    "(id, job, idx, lo, hi, state, attempts, updated_at)"
                    " VALUES (?, ?, ?, ?, ?, 'pending', 0, ?)",
                    (shard.id, job, shard.index, shard.lo, shard.hi,
                     now),
                )
            stale = [
                (now, row["id"])
                for row in conn.execute(
                    "SELECT id, result FROM cluster_shards "
                    "WHERE job = ? AND state = 'done'",
                    (job,),
                )
                if not _is_points(json.loads(row["result"] or "null"))
            ]
            conn.executemany(
                "UPDATE cluster_shards SET state = 'pending', "
                "result = NULL, updated_at = ? WHERE id = ?",
                stale,
            )
            conn.execute(
                "UPDATE cluster_shards SET state = 'pending', "
                "worker = NULL, lease_at = NULL, updated_at = ? "
                "WHERE job = ? AND state = 'running'",
                (now, job),
            )
        return self.counts(job)

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def lease(self, shard_id: str, worker: str) -> int:
        """Move a shard to ``running`` under ``worker``.

        Allowed from ``pending`` *and* from ``running`` (that is a
        steal — the previous holder keeps executing, and whichever
        finishes first wins the ``complete``).  Returns the attempt
        number this lease starts, ``0`` if the shard is already done.
        """
        now = time.time()
        with self.db.transaction(immediate=True) as conn:
            cursor = conn.execute(
                "UPDATE cluster_shards SET state = 'running', "
                "worker = ?, lease_at = ?, attempts = attempts + 1, "
                "updated_at = ? WHERE id = ? AND state != 'done'",
                (worker, now, now, shard_id),
            )
            if cursor.rowcount == 0:
                return 0
            row = conn.execute(
                "SELECT attempts FROM cluster_shards WHERE id = ?",
                (shard_id,),
            ).fetchone()
            return int(row["attempts"]) if row else 0

    def complete(self, shard_id: str, result: object) -> bool:
        """Commit a shard result; ``False`` if another attempt won."""
        now = time.time()
        encoded = json.dumps(result, sort_keys=True)
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "UPDATE cluster_shards SET state = 'done', result = ?, "
                "updated_at = ? WHERE id = ? AND state != 'done'",
                (encoded, now, shard_id),
            )
            return cursor.rowcount > 0

    def release(self, shard_id: str, worker: Optional[str] = None) -> bool:
        """Put a running shard back on the market.

        With ``worker`` given, only releases if that worker still holds
        the lease — a slow worker's late failure must not release a
        lease a thief has since taken over.
        """
        now = time.time()
        query = (
            "UPDATE cluster_shards SET state = 'pending', worker = NULL, "
            "lease_at = NULL, updated_at = ? "
            "WHERE id = ? AND state = 'running'"
        )
        parameters: Tuple[object, ...] = (now, shard_id)
        if worker is not None:
            query += " AND worker = ?"
            parameters += (worker,)
        with self.db.transaction() as conn:
            cursor = conn.execute(query, parameters)
            return cursor.rowcount > 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counts(self, job: str) -> Dict[str, int]:
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT state, COUNT(*) AS n FROM cluster_shards "
                "WHERE job = ? GROUP BY state",
                (job,),
            ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    def results(self, job: str) -> Dict[str, List[Dict[str, object]]]:
        """Completed shard results: shard id -> its point list."""
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT id, result FROM cluster_shards "
                "WHERE job = ? AND state = 'done'",
                (job,),
            ).fetchall()
        return {
            row["id"]: json.loads(row["result"])
            for row in rows
            if row["result"] is not None
        }

    def rows(self, job: str) -> List[Dict[str, object]]:
        """Every shard row of a job, in workload order, for the API."""
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT id, idx, lo, hi, state, worker, attempts "
                "FROM cluster_shards WHERE job = ? ORDER BY idx",
                (job,),
            ).fetchall()
        return [dict(row) for row in rows]


def _is_points(result: object) -> bool:
    """Whether a stored result is a point-value list."""
    return isinstance(result, list) and all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in result
    )


class _JobState:
    """In-memory dispatch state of one running workload (store-backed)."""

    def __init__(self, digest: str, shards: Sequence[Shard]) -> None:
        self.digest = digest
        self.shards = {shard.id: shard for shard in shards}
        self.condition = threading.Condition()
        self.done: set = set()
        # shard id -> (worker id, monotonic lease time)
        self.running: Dict[str, Tuple[str, float]] = {}
        self.attempts: Dict[str, int] = {shard.id: 0 for shard in shards}
        self.error: Optional[BaseException] = None

    @property
    def finished(self) -> bool:
        return len(self.done) == len(self.shards) or self.error is not None


class Coordinator:
    """Runs plans' ranges over the fleet and merges their points."""

    def __init__(
        self,
        membership: Membership,
        store: Optional[ShardStore] = None,
        config: Optional[ClusterConfig] = None,
        stats=None,
        client_factory=WorkerClient,
    ) -> None:
        self.membership = membership
        self.store = store if store is not None else ShardStore()
        self.config = config if config is not None else ClusterConfig()
        self.stats = stats
        self._client_factory = client_factory
        self._clients: Dict[str, WorkerClient] = {}
        self._clients_lock = threading.Lock()
        self._log = get_logger("cluster")
        self.jobs_completed = 0
        self.shards_completed = 0
        self.shards_stolen = 0
        self.shards_retried = 0
        # One entry per run: identical workloads may be in flight at
        # once (a client retrying a timed-out request).
        self._active: List[_JobState] = []
        self._active_lock = threading.Lock()
        for url in self.config.workers:
            self.membership.register(url, static=True)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_workload(
        self, workload, timeout: Optional[float] = None
    ) -> List[float]:
        """Run a plan across the fleet; returns its merged points.

        ``workload`` is a :class:`repro.jobs.Plan` (anything with
        ``digest``, ``total`` and ``fleet_range``).  Blocks until
        every shard completes, raises on an exhausted shard
        (:class:`ShardFailedError`), a fleet with nobody alive
        (:class:`NoWorkersError`), or the deadline.
        """
        tracer = get_tracer()
        digest = workload.digest
        shards = plan_shards(digest, workload.total, self.config.shard_size)
        counts = self.store.plan(digest, shards)
        state = _JobState(digest, shards)
        for shard_id in self.store.results(digest):
            if shard_id in state.shards:
                state.done.add(shard_id)
        resumed = len(state.done)
        with self._active_lock:
            self._active.append(state)
        job_span = tracer.start_span(
            "cluster.job",
            workload=digest,
            shards=len(shards),
            resumed=resumed,
            points=workload.total,
        )
        if resumed:
            self._log.info(
                "resuming workload",
                extra={
                    "workload": digest,
                    "done": resumed,
                    "total": len(shards),
                    "stored": counts,
                },
            )
        error: Optional[BaseException] = None
        try:
            self._dispatch(workload, state, job_span, timeout)
            points = merge_points(shards, self.store.results(digest))
            self.jobs_completed += 1
            if self.stats is not None:
                self.stats.increment("cluster_jobs_completed")
            return points
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.finish(job_span, error=error)
            with self._active_lock:
                self._active.remove(state)

    def status(self) -> Dict[str, object]:
        """The coordinator's live view for ``GET /v1/cluster/status``."""
        with self._active_lock:
            active = [
                {
                    "workload": state.digest,
                    "shards": len(state.shards),
                    "done": len(state.done),
                    "running": len(state.running),
                }
                for state in sorted(
                    self._active, key=lambda state: state.digest
                )
            ]
        return {
            "workers": self.membership.snapshot(),
            "active": active,
            "totals": {
                "jobs_completed": self.jobs_completed,
                "shards_completed": self.shards_completed,
                "shards_stolen": self.shards_stolen,
                "shards_retried": self.shards_retried,
            },
            "config": {
                "shard_size": self.config.shard_size,
                "lease_timeout": self.config.lease_timeout,
                "steal_after": self.config.steal_after,
                "max_shard_attempts": self.config.max_shard_attempts,
                "fanout_threshold": self.config.fanout_threshold,
            },
        }

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def _client(self, worker_id: str, url: str) -> WorkerClient:
        with self._clients_lock:
            client = self._clients.get(worker_id)
            if client is None or client.url != url:
                client = self._client_factory(
                    url, timeout=self.config.call_timeout
                )
                self._clients[worker_id] = client
            return client

    def _dispatch(
        self,
        workload,
        state: _JobState,
        job_span,
        timeout: Optional[float],
    ) -> None:
        """Run worker threads until the job finishes or fails."""
        deadline = None if timeout is None else monotonic() + timeout
        threads: Dict[str, threading.Thread] = {}
        while True:
            with state.condition:
                if state.error is not None:
                    raise state.error
                if len(state.done) == len(state.shards):
                    return
            alive = self.membership.alive()
            if self.stats is not None:
                self.stats.set_gauge("cluster_workers_alive", len(alive))
            for info in alive:
                thread = threads.get(info.id)
                if thread is None or not thread.is_alive():
                    thread = threading.Thread(
                        target=self._worker_loop,
                        args=(info.id, info.url, workload, state),
                        name=f"rascad-dispatch-{info.id}",
                        daemon=True,
                    )
                    threads[info.id] = thread
                    thread.start()
            if not alive and not any(
                thread.is_alive() for thread in threads.values()
            ):
                raise NoWorkersError(
                    "no live workers: every worker is dead or none "
                    "ever registered"
                )
            if deadline is not None and monotonic() > deadline:
                raise ClusterError(
                    f"workload {state.digest} missed its "
                    f"{timeout:.1f}s deadline"
                )
            with state.condition:
                if not state.finished:
                    state.condition.wait(0.2)

    def _claim(
        self, worker_id: str, state: _JobState
    ) -> Optional[Tuple[Shard, Optional[str]]]:
        """Pick the next shard for ``worker_id`` (condition held).

        Returns ``(shard, previous_holder)`` — the holder is ``None``
        for a plain pending claim, a worker id for a steal.  Raises by
        setting ``state.error`` when a claimable shard is out of
        attempts.
        """
        now = monotonic()
        alive_ids = {info.id for info in self.membership.alive()}
        candidates: List[Shard] = []
        stealable: Dict[str, str] = {}
        for shard_id, shard in state.shards.items():
            if shard_id in state.done:
                continue
            holder = state.running.get(shard_id)
            if holder is None:
                candidates.append(shard)
                continue
            holder_id, since = holder
            if holder_id == worker_id:
                continue
            if (
                holder_id not in alive_ids
                or now - since >= self.config.steal_after
            ):
                candidates.append(shard)
                stealable[shard_id] = holder_id
        picked = pick_shard(worker_id, candidates)
        if picked is None:
            return None
        if state.attempts[picked.id] >= self.config.max_shard_attempts:
            state.error = ShardFailedError(
                f"shard {picked.id} [{picked.lo}, {picked.hi}) failed "
                f"{state.attempts[picked.id]} times across the fleet"
            )
            state.condition.notify_all()
            return None
        return picked, stealable.get(picked.id)

    def _worker_loop(
        self, worker_id: str, url: str, workload, state: _JobState
    ) -> None:
        """One worker's dispatch thread for one workload."""
        tracer = get_tracer()
        client = self._client(worker_id, url)
        while True:
            with state.condition:
                claim = None
                while claim is None:
                    if state.finished:
                        return
                    info = self.membership.get(worker_id)
                    if info is None or info.state != "alive":
                        return
                    claim = self._claim(worker_id, state)
                    if claim is None:
                        if state.finished:
                            return
                        state.condition.wait(
                            min(0.2, self.config.steal_after)
                        )
                shard, stolen_from = claim
                state.running[shard.id] = (worker_id, monotonic())
                state.attempts[shard.id] += 1
                attempt = state.attempts[shard.id]
            if not self.store.lease(shard.id, worker_id):
                # Another run of the same workload already committed
                # this shard: it is done in the store, so it is done.
                self._finish(state, shard, worker_id)
                continue
            if stolen_from is not None:
                self.shards_stolen += 1
                self.membership.record(worker_id, "shards_stolen")
                if self.stats is not None:
                    self.stats.increment("cluster_shards_stolen")
            self.membership.record(worker_id, "in_flight")
            span = tracer.start_span(
                "cluster.shard",
                shard=shard.id,
                lo=shard.lo,
                hi=shard.hi,
                worker=worker_id,
                attempt=attempt,
                stolen_from=stolen_from,
            )
            header = None
            if span is not None and getattr(span, "trace_id", None):
                header = carrier_to_header({
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "sampled": span.sampled,
                    "detail": tracer.detail,
                })
            try:
                points = workload.fleet_range(
                    partial(client.call, trace_header=header),
                    shard.lo,
                    shard.hi,
                )
            except WorkerCallError as error:
                tracer.finish(span, error=error)
                self.membership.record(worker_id, "in_flight", -1)
                self.membership.record(worker_id, "shards_failed")
                self.store.release(shard.id, worker=worker_id)
                with state.condition:
                    holder = state.running.get(shard.id)
                    if holder is not None and holder[0] == worker_id:
                        del state.running[shard.id]
                    if not error.retryable:
                        state.error = error
                    state.condition.notify_all()
                if error.retryable:
                    self.shards_retried += 1
                    if self.stats is not None:
                        self.stats.increment("cluster_shards_retried")
                    self.membership.mark_dead(worker_id, str(error))
                    self._log.warning(
                        "worker failed a shard; requeued",
                        extra={
                            "worker": worker_id,
                            "shard": shard.id,
                            "error": str(error),
                        },
                    )
                return
            except BaseException as error:  # pragma: no cover - defensive
                tracer.finish(span, error=error)
                self.membership.record(worker_id, "in_flight", -1)
                self.store.release(shard.id, worker=worker_id)
                with state.condition:
                    state.error = error
                    state.condition.notify_all()
                return
            tracer.finish(span)
            self.membership.record(worker_id, "in_flight", -1)
            # A lost commit (a thief, or another run of the same
            # workload, finished first) still leaves the shard done.
            if self.store.complete(shard.id, points):
                self.shards_completed += 1
                self.membership.record(worker_id, "shards_done")
                self.membership.heartbeat(worker_id)
                if self.stats is not None:
                    self.stats.increment("cluster_shards_completed")
            self._finish(state, shard, worker_id)

    @staticmethod
    def _finish(state: _JobState, shard: Shard, worker_id: str) -> None:
        """Mark ``shard`` done for this run and drop our hold on it."""
        with state.condition:
            state.done.add(shard.id)
            holder = state.running.get(shard.id)
            if holder is not None and holder[0] == worker_id:
                del state.running[shard.id]
            state.condition.notify_all()
