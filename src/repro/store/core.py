"""The shared SQLite core every durable store runs on.

One class owns the connection, the pragma configuration, and the
transaction discipline for all five stores (jobs, registry, cluster
shards, studies, telemetry):

* **One connection per store** — opened once at construction, for a
  file and ``":memory:"`` alike, shared across threads behind a lock
  and closed by :meth:`SqliteStore.close`.  In-process access is
  serialised by that lock; leaving the outermost
  :meth:`~SqliteStore.connection` block with a transaction still open
  rolls it back, so a stray uncommitted statement can never keep the
  write lock.
* **WAL + busy_timeout** are configured in one place, so readers in
  other processes never block writers on file stores and lock
  contention waits bounded rather than failing instantly.
* **Busy mapping** — when the database stays locked past the retry
  budget, the raw ``sqlite3.OperationalError`` is mapped to the typed
  :class:`repro.errors.StoreBusyError`, which the service layer turns
  into a structured HTTP 503 and the jobs runner treats as transient.

Health counters (transactions, busy retries, cumulative transaction
latency) feed the ``storage`` section of ``/metrics``.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..errors import StoreBusyError, StoreError
from .schema import Schema

#: Default SQLite lock wait, in seconds — both the driver-level
#: ``timeout`` and the ``busy_timeout`` pragma derive from it.
DEFAULT_TIMEOUT = 30.0

#: Bounded retry budget for acquiring a write transaction.
DEFAULT_BUSY_RETRIES = 5

#: Base sleep between busy retries, in seconds (linear backoff).
DEFAULT_BUSY_BACKOFF = 0.05


def is_busy_error(exc: BaseException) -> bool:
    """Whether an exception is SQLite saying *locked, try later*."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "database is locked" in message or (
        "database table is locked" in message
    )


class SqliteStore:
    """Managed SQLite database: connections, schema, transactions.

    Args:
        path: Database file (parents created), or ``":memory:"``.
        schema: Optional :class:`~repro.store.schema.Schema`; its
            pending migrations are applied on open.
        timeout: Lock wait bound in seconds.
        busy_retries: Attempts to begin a write transaction before
            raising :class:`StoreBusyError`.
        busy_backoff: Base sleep between those attempts (linear).
    """

    def __init__(
        self,
        path: Union[str, Path],
        schema: Optional[Schema] = None,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        busy_retries: int = DEFAULT_BUSY_RETRIES,
        busy_backoff: float = DEFAULT_BUSY_BACKOFF,
    ) -> None:
        self.memory = str(path) == ":memory:"
        self.path: Union[str, Path]
        if self.memory:
            self.path = ":memory:"
        else:
            self.path = Path(path).expanduser()
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.schema = schema
        self.timeout = float(timeout)
        self.busy_retries = int(busy_retries)
        self.busy_backoff = float(busy_backoff)
        self._stats_lock = threading.Lock()
        self._txns = 0
        self._busy_retries_total = 0
        self._txn_seconds_total = 0.0
        self._lock = threading.RLock()
        self._depth = 0
        self._conn: Optional[sqlite3.Connection] = self._open()
        if schema is not None:
            try:
                with self.connection() as conn:
                    schema.apply(conn)
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    # the connection
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=self.timeout, check_same_thread=False
        )
        conn.row_factory = sqlite3.Row
        conn.execute(
            f"PRAGMA busy_timeout = {int(self.timeout * 1000)}"
        )
        if not self.memory:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    @contextmanager
    def connection(self) -> Iterator[sqlite3.Connection]:
        """The store's one connection, held under its lock.

        Blocks nest on one thread (a transaction body may read through
        another store method).  Leaving the outermost block with a
        transaction still open rolls it back — the body raising, or a
        DML nobody committed, cannot hold the write lock.

        No transaction is opened; use :meth:`transaction` for writes.
        """
        with self._lock:
            conn = self._conn
            if conn is None:
                raise StoreError(f"store {self.path} is closed")
            self._depth += 1
            try:
                yield conn
            finally:
                self._depth -= 1
                if not self._depth and conn.in_transaction:
                    self._rollback(conn)

    @contextmanager
    def transaction(
        self, immediate: bool = False
    ) -> Iterator[sqlite3.Connection]:
        """One atomic transaction with bounded busy-retry.

        ``immediate=True`` takes the write lock up front (claim paths
        that read-then-update need it to avoid upgrade deadlocks).
        Acquiring the transaction retries up to ``busy_retries`` times
        with linear backoff; exhaustion — and any *locked* error out
        of the body or the commit — raises the typed
        :class:`StoreBusyError` instead of a raw
        ``sqlite3.OperationalError``.  Any exception rolls back.
        """
        started = time.perf_counter()
        with self.connection() as conn:
            self._begin(conn, immediate)
            try:
                yield conn
                conn.commit()
            except BaseException as exc:
                self._rollback(conn)
                if is_busy_error(exc):
                    raise StoreBusyError(
                        f"database {self.path} is busy: {exc}",
                        retry_after=self.busy_backoff * 2,
                    ) from exc
                raise
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._txns += 1
            self._txn_seconds_total += elapsed

    def _begin(self, conn: sqlite3.Connection, immediate: bool) -> None:
        statement = "BEGIN IMMEDIATE" if immediate else "BEGIN"
        last: Optional[BaseException] = None
        for attempt in range(self.busy_retries + 1):
            try:
                conn.execute(statement)
                return
            except sqlite3.OperationalError as exc:
                if not is_busy_error(exc):
                    raise
                last = exc
                with self._stats_lock:
                    self._busy_retries_total += 1
                if attempt < self.busy_retries:
                    time.sleep(self.busy_backoff * (attempt + 1))
        raise StoreBusyError(
            f"database {self.path} is busy after "
            f"{self.busy_retries} retries: {last}",
            retry_after=self.busy_backoff * (self.busy_retries + 1),
        ) from last

    @staticmethod
    def _rollback(conn: sqlite3.Connection) -> None:
        try:
            conn.rollback()
        except sqlite3.Error:
            pass

    def close(self) -> None:
        """Close the connection; later use raises ``StoreError``.

        Idempotent.  The last connection to a WAL file checkpoints it
        on close.
        """
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """On-disk footprint (db + WAL + SHM), or page math in memory."""
        if self.memory:
            with self.connection() as conn:
                pages = conn.execute("PRAGMA page_count").fetchone()[0]
                page_size = conn.execute("PRAGMA page_size").fetchone()[0]
            return int(pages) * int(page_size)
        total = 0
        base = Path(self.path)
        for candidate in (
            base,
            base.with_name(base.name + "-wal"),
            base.with_name(base.name + "-shm"),
        ):
            try:
                total += candidate.stat().st_size
            except OSError:
                pass
        return total

    def user_version(self) -> int:
        with self.connection() as conn:
            return int(
                conn.execute("PRAGMA user_version").fetchone()[0]
            )

    def health(self) -> Dict[str, object]:
        """The ``storage`` metrics payload for this database."""
        with self._stats_lock:
            txns = self._txns
            busy = self._busy_retries_total
            seconds = self._txn_seconds_total
        return {
            "path": str(self.path),
            "mode": "memory" if self.memory else "file",
            "schema": self.schema.name if self.schema else None,
            "user_version": self.user_version(),
            "size_bytes": self.size_bytes(),
            "transactions": txns,
            "busy_retries": busy,
            "txn_seconds_total": seconds,
        }
