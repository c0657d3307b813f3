"""The shared SQLite core: lifecycle, fd leaks, busy mapping, health."""

import gc
import os
import sqlite3
import sys
import threading

import pytest

from repro.errors import StoreBusyError, StoreError
from repro.jobs import JobSpec, JobStore
from repro.library import workgroup_model
from repro.spec import model_to_spec
from repro.store import Migration, Schema, SqliteStore, is_busy_error

SCHEMA = Schema("t", [Migration(
    1, "kv table",
    "CREATE TABLE IF NOT EXISTS t (k TEXT PRIMARY KEY, v TEXT)",
)])


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestFileMode:
    def test_rows_survive_across_connections(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.transaction() as conn:
            conn.execute("INSERT INTO t VALUES ('a', '1')")
        with store.connection() as conn:
            rows = conn.execute("SELECT * FROM t").fetchall()
        assert [(row["k"], row["v"]) for row in rows] == [("a", "1")]

    def test_wal_and_busy_timeout_configured(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.connection() as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            timeout = conn.execute("PRAGMA busy_timeout").fetchone()[0]
        assert mode == "wal"
        assert timeout == int(store.timeout * 1000)

    def test_transaction_rolls_back_on_exception(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with pytest.raises(RuntimeError):
            with store.transaction() as conn:
                conn.execute("INSERT INTO t VALUES ('a', '1')")
                raise RuntimeError("boom")
        with store.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0

    def test_no_fd_leak_across_failing_transactions(self, tmp_path):
        """The regression this package exists for: a body that raises
        mid-transaction must not leak the connection's descriptor."""
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.transaction() as conn:  # warm WAL/SHM sidecars
            conn.execute("INSERT INTO t VALUES ('seed', '0')")
        # An unclosed connection from an earlier test stays open until a
        # cyclic collection (its statement cache refers back to it); one
        # landing inside the loop would lower the count below baseline.
        gc.collect()
        baseline = open_fd_count()
        for index in range(25):
            with pytest.raises(RuntimeError):
                with store.transaction() as conn:
                    conn.execute(
                        "INSERT INTO t VALUES (?, ?)", (f"k{index}", "v")
                    )
                    raise RuntimeError("mid-transaction failure")
        assert open_fd_count() == baseline

    def test_closed_store_refuses_connections(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        store.close()
        with pytest.raises(StoreError):
            with store.connection():
                pass

    def test_non_busy_operational_error_propagates(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with pytest.raises(sqlite3.OperationalError):
            with store.transaction() as conn:
                conn.execute("SELECT * FROM no_such_table")


class TestOneConnection:
    """One long-lived connection per store must behave like the
    short-lived ones it replaced: no held locks, no stale reads."""

    def test_every_block_uses_the_one_connection(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.connection() as first:
            pass
        with store.transaction() as second:
            pass
        assert first is second

    def test_uncommitted_dml_leaves_no_row_and_no_write_lock(
        self, tmp_path
    ):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.connection() as conn:
            conn.execute("INSERT INTO t VALUES ('stray', '1')")
            assert conn.in_transaction
        other = sqlite3.connect(str(store.path), timeout=0)
        try:
            other.execute("BEGIN IMMEDIATE")  # raises if the lock is held
            other.rollback()
        finally:
            other.close()
        with store.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0

    def test_nested_block_keeps_the_outer_transaction(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.transaction() as conn:
            conn.execute("INSERT INTO t VALUES ('a', '1')")
            with store.connection() as inner:
                assert inner.execute(
                    "SELECT COUNT(*) FROM t"
                ).fetchone()[0] == 1
            assert conn.in_transaction
        with store.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 1

    def test_commit_from_another_connection_is_seen(self, tmp_path):
        jobs = JobStore(tmp_path / "jobs.sqlite3")
        record, _ = jobs.submit(JobSpec(
            kind="sweep",
            spec=model_to_spec(workgroup_model()),
            params={"field": "mtbf_hours", "values": [1e5]},
        ))
        assert jobs.get(record.id).state == "queued"
        assert jobs.counts()["queued"] == 1
        other = sqlite3.connect(str(jobs.path))
        try:
            other.execute(
                "UPDATE jobs SET state = 'succeeded' WHERE id = ?",
                (record.id,),
            )
            other.commit()
        finally:
            other.close()
        assert jobs.get(record.id).state == "succeeded"
        assert jobs.counts()["succeeded"] == 1
        jobs.close()

    def test_threads_share_a_file_store_without_lost_updates(
        self, tmp_path
    ):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.transaction() as conn:
            conn.execute("INSERT INTO t VALUES ('n', '0')")
        errors = []

        def bump() -> None:
            try:
                for _ in range(25):
                    with store.transaction(immediate=True) as conn:
                        value = conn.execute(
                            "SELECT v FROM t WHERE k = 'n'"
                        ).fetchone()[0]
                        conn.execute(
                            "UPDATE t SET v = ? WHERE k = 'n'",
                            (str(int(value) + 1),),
                        )
                    with store.connection() as conn:
                        conn.execute("SELECT COUNT(*) FROM t").fetchone()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        with store.connection() as conn:
            value = conn.execute(
                "SELECT v FROM t WHERE k = 'n'"
            ).fetchone()[0]
        assert int(value) == 8 * 25

    def test_failed_migration_closes_the_connection(self, tmp_path):
        bad = Schema("t", [Migration(1, "broken", "CREATE TABLE (")])
        baseline = open_fd_count()
        for _ in range(5):
            with pytest.raises(sqlite3.Error):
                SqliteStore(tmp_path / "t.sqlite3", bad)
        assert open_fd_count() == baseline


class TestBusy:
    def test_write_lock_contention_raises_store_busy(self, tmp_path):
        store = SqliteStore(
            tmp_path / "t.sqlite3", SCHEMA,
            timeout=0.05, busy_retries=2, busy_backoff=0.01,
        )
        blocker = sqlite3.connect(str(store.path), timeout=0.05)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            blocker.execute("INSERT INTO t VALUES ('held', '1')")
            with pytest.raises(StoreBusyError) as info:
                with store.transaction(immediate=True):
                    pass
            assert info.value.retry_after > 0
        finally:
            blocker.rollback()
            blocker.close()

    def test_busy_retry_count_reaches_health(self, tmp_path):
        store = SqliteStore(
            tmp_path / "t.sqlite3", SCHEMA,
            timeout=0.05, busy_retries=2, busy_backoff=0.01,
        )
        blocker = sqlite3.connect(str(store.path), timeout=0.05)
        try:
            blocker.execute("BEGIN IMMEDIATE")
            blocker.execute("INSERT INTO t VALUES ('held', '1')")
            with pytest.raises(StoreBusyError):
                with store.transaction(immediate=True):
                    pass
        finally:
            blocker.rollback()
            blocker.close()
        assert store.health()["busy_retries"] == 3  # initial + 2 retries

    def test_is_busy_error_classifier(self):
        assert is_busy_error(
            sqlite3.OperationalError("database is locked")
        )
        assert not is_busy_error(
            sqlite3.OperationalError("no such table: t")
        )
        assert not is_busy_error(ValueError("database is locked"))

    def test_store_busy_error_is_store_error(self):
        error = StoreBusyError("busy", retry_after=2.5)
        assert isinstance(error, StoreError)
        assert error.retry_after == 2.5


class TestMemoryMode:
    def test_rows_survive_across_connection_blocks(self):
        store = SqliteStore(":memory:", SCHEMA)
        with store.transaction() as conn:
            conn.execute("INSERT INTO t VALUES ('a', '1')")
        with store.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 1

    def test_shared_connection_is_usable_from_threads(self):
        store = SqliteStore(":memory:", SCHEMA)
        errors = []

        def write(index: int) -> None:
            try:
                with store.transaction() as conn:
                    conn.execute(
                        "INSERT INTO t VALUES (?, ?)",
                        (f"k{index}", "v"),
                    )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with store.connection() as conn:
            assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 8

    def test_close_is_idempotent(self):
        store = SqliteStore(":memory:", SCHEMA)
        store.close()
        store.close()


class TestHealth:
    def test_health_payload(self, tmp_path):
        store = SqliteStore(tmp_path / "t.sqlite3", SCHEMA)
        with store.transaction() as conn:
            conn.execute("INSERT INTO t VALUES ('a', '1')")
        health = store.health()
        assert health["mode"] == "file"
        assert health["schema"] == "t"
        assert health["user_version"] == 1
        assert health["size_bytes"] > 0
        assert health["transactions"] >= 1
        assert health["busy_retries"] == 0
        assert health["txn_seconds_total"] > 0

    def test_memory_size_uses_page_math(self):
        store = SqliteStore(":memory:", SCHEMA)
        assert store.size_bytes() > 0
        assert store.health()["mode"] == "memory"
