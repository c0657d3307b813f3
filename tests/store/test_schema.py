"""user_version migrations: ordering, idempotence, upgrades, crashes."""

import sqlite3

import pytest

from repro.errors import StoreError
from repro.store import Migration, Schema, SqliteStore

V1 = Migration(
    1, "base table",
    "CREATE TABLE IF NOT EXISTS items (id TEXT PRIMARY KEY)",
)
V2 = Migration(
    2, "value column",
    "ALTER TABLE items ADD COLUMN value TEXT",
)


def columns(conn: sqlite3.Connection, table: str) -> list:
    return [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]


class TestDeclaration:
    def test_empty_schema_is_rejected(self):
        with pytest.raises(StoreError):
            Schema("bad", [])

    def test_out_of_order_versions_are_rejected(self):
        with pytest.raises(StoreError):
            Schema("bad", [V1, Migration(3, "skips two", "SELECT 1")])

    def test_version_is_the_last_step(self):
        assert Schema("s", [V1, V2]).version == 2


class TestApply:
    def test_fresh_database_reaches_current_version(self, tmp_path):
        store = SqliteStore(tmp_path / "s.sqlite3", Schema("s", [V1, V2]))
        assert store.user_version() == 2
        with store.connection() as conn:
            assert columns(conn, "items") == ["id", "value"]

    def test_reopen_applies_nothing(self, tmp_path):
        schema = Schema("s", [V1, V2])
        SqliteStore(tmp_path / "s.sqlite3", schema)
        store = SqliteStore(tmp_path / "s.sqlite3", schema)
        with store.connection() as conn:
            assert schema.pending(conn) == []

    def test_old_file_gets_exactly_the_pending_suffix(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        old = SqliteStore(path, Schema("s", [V1]))
        with old.transaction() as conn:
            conn.execute("INSERT INTO items (id) VALUES ('kept')")
        new = SqliteStore(path, Schema("s", [V1, V2]))
        assert new.user_version() == 2
        with new.connection() as conn:
            assert columns(conn, "items") == ["id", "value"]
            row = conn.execute("SELECT * FROM items").fetchone()
        assert row["id"] == "kept" and row["value"] is None

    def test_callable_migration_gets_the_connection(self, tmp_path):
        seen = []
        schema = Schema("s", [V1, Migration(2, "python step", seen.append)])
        SqliteStore(tmp_path / "s.sqlite3", schema)
        assert len(seen) == 1
        assert isinstance(seen[0], sqlite3.Connection)

    def test_newer_database_is_refused(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        conn = sqlite3.connect(str(path))
        conn.execute("PRAGMA user_version = 9")
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            SqliteStore(path, Schema("s", [V1]))

    def test_failing_migration_leaves_previous_version_intact(
        self, tmp_path
    ):
        path = tmp_path / "s.sqlite3"
        SqliteStore(path, Schema("s", [V1]))

        def explode(conn: sqlite3.Connection) -> None:
            conn.execute("ALTER TABLE items ADD COLUMN value TEXT")
            raise RuntimeError("crash mid-migration")

        with pytest.raises(RuntimeError):
            SqliteStore(
                path, Schema("s", [V1, Migration(2, "bad", explode)])
            )
        reopened = SqliteStore(path, Schema("s", [V1]))
        assert reopened.user_version() == 1
        with reopened.connection() as conn:
            assert columns(conn, "items") == ["id"]

    def test_multi_statement_script_runs_every_statement(self, tmp_path):
        schema = Schema("s", [Migration(
            1, "two tables",
            "CREATE TABLE a (x TEXT); CREATE TABLE b (y TEXT);",
        )])
        store = SqliteStore(tmp_path / "s.sqlite3", schema)
        with store.connection() as conn:
            names = {
                row["name"]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        assert {"a", "b"} <= names


class TestOwnership:
    def test_two_stores_refuse_to_share_one_file(self, tmp_path):
        from repro.cluster import ShardStore
        from repro.jobs import JobStore

        path = tmp_path / "shared.sqlite3"
        JobStore(path).close()
        with pytest.raises(StoreError, match="'jobs'.*'cluster'"):
            ShardStore(str(path))
        # The first store's file is untouched and still opens.
        JobStore(path).close()

    def test_fresh_file_is_stamped_with_the_schema_id(self, tmp_path):
        schema = Schema("s", [V1])
        store = SqliteStore(tmp_path / "s.sqlite3", schema)
        with store.connection() as conn:
            stamped = conn.execute("PRAGMA application_id").fetchone()[0]
        assert stamped == schema.application_id != 0

    def test_unstamped_file_of_this_schema_is_adopted(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE items (id TEXT PRIMARY KEY)")
        conn.execute("INSERT INTO items (id) VALUES ('kept')")
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        schema = Schema("s", [V1, V2])
        store = SqliteStore(path, schema)
        assert store.user_version() == 2
        with store.connection() as conn:
            assert conn.execute(
                "PRAGMA application_id"
            ).fetchone()[0] == schema.application_id
            assert conn.execute("SELECT id FROM items").fetchone()[0] == (
                "kept"
            )

    def test_unstamped_file_of_another_schema_is_refused(self, tmp_path):
        path = tmp_path / "s.sqlite3"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE other (id TEXT)")
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="other"):
            SqliteStore(path, Schema("s", [V1]))
        conn = sqlite3.connect(str(path))
        assert conn.execute("PRAGMA application_id").fetchone()[0] == 0
        conn.close()
