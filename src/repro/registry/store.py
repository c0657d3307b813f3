"""SQLite persistence for the model registry.

Runs on :class:`repro.store.SqliteStore` — one locked connection per
store for a WAL file (safe to share between the CLI, the HTTP
service, and publish scripts, each process with its own) or for
``:memory:`` (embedded and test servers), transactions and busy
mapping all inherited from the substrate.

Schema (versioned via ``PRAGMA user_version``): ``registry_models``
(one row per name), ``registry_versions`` (immutable, keyed
``(name, digest)``; the spec document is stored verbatim so
resolution returns byte-identical inputs), ``registry_tags`` (the
mutable pointer layer), and ``registry_tag_history`` (append-only,
what ``rollback`` walks).
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..store import Migration, Schema, SqliteStore
from .types import (
    ModelNotFoundError,
    RefError,
    VersionNotFoundError,
)

#: Default file name inside a cache directory.
REGISTRY_DB_FILENAME = "registry.sqlite3"

_SCHEMA_V1 = """
CREATE TABLE IF NOT EXISTS registry_models (
    name        TEXT PRIMARY KEY,
    description TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS registry_versions (
    name          TEXT NOT NULL,
    digest        TEXT NOT NULL,
    spec          TEXT NOT NULL,
    parent_digest TEXT,
    diff          TEXT NOT NULL DEFAULT '[]',
    evaluation    TEXT,
    created_at    REAL NOT NULL,
    PRIMARY KEY (name, digest)
);
CREATE TABLE IF NOT EXISTS registry_tags (
    name       TEXT NOT NULL,
    tag        TEXT NOT NULL,
    digest     TEXT NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (name, tag)
);
CREATE TABLE IF NOT EXISTS registry_tag_history (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    name   TEXT NOT NULL,
    tag    TEXT NOT NULL,
    digest TEXT NOT NULL,
    set_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_registry_tag_history
    ON registry_tag_history (name, tag, id);
"""


def _add_source_column(conn: sqlite3.Connection) -> None:
    """v2: nullable JSON ``source`` on versions (e.g. the study that
    selected it).

    Files written before schema versioning existed may already carry
    the column (the old code probed ``table_info`` and added it ad
    hoc) while sitting at ``user_version`` 0, so this step checks
    before altering instead of assuming v1 state.
    """
    columns = {
        row[1]
        for row in conn.execute("PRAGMA table_info(registry_versions)")
    }
    if "source" not in columns:
        conn.execute(
            "ALTER TABLE registry_versions ADD COLUMN source TEXT"
        )


#: The registry schema, versioned via ``PRAGMA user_version``.
REGISTRY_SCHEMA = Schema(
    "registry",
    [
        Migration(1, "models, versions, tags, tag history", _SCHEMA_V1),
        Migration(2, "versions.source column", _add_source_column),
    ],
)


class RegistryStore:
    """SQLite-backed storage for models, versions, tags, and history."""

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.db = SqliteStore(path, REGISTRY_SCHEMA)
        self.path = str(self.db.path)

    def close(self) -> None:
        self.db.close()

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def upsert_model(
        self,
        name: str,
        description: str = "",
        now: Optional[float] = None,
    ) -> bool:
        """Create the model row if missing; returns ``created``."""
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO registry_models "
                "(name, description, created_at) VALUES (?, ?, ?)",
                (name, description, now),
            )
            created = cursor.rowcount == 1
            if not created and description:
                conn.execute(
                    "UPDATE registry_models SET description = ? "
                    "WHERE name = ? AND description = ''",
                    (description, name),
                )
            return created

    def model_row(self, name: str) -> Optional[Dict[str, object]]:
        with self.db.connection() as conn:
            row = conn.execute(
                "SELECT * FROM registry_models WHERE name = ?", (name,)
            ).fetchone()
        return dict(row) if row is not None else None

    def require_model(self, name: str) -> Dict[str, object]:
        row = self.model_row(name)
        if row is None:
            raise ModelNotFoundError(
                f"no model {name!r} in the registry; "
                f"known: {self.names()}"
            )
        return row

    def names(self) -> List[str]:
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT name FROM registry_models ORDER BY name"
            ).fetchall()
        return [row["name"] for row in rows]

    def list_models(self) -> List[Dict[str, object]]:
        """One summary row per model: description, counts, tags."""
        with self.db.connection() as conn:
            rows = conn.execute(
                """
                SELECT m.name, m.description, m.created_at,
                       (SELECT COUNT(*) FROM registry_versions v
                         WHERE v.name = m.name) AS versions,
                       (SELECT COUNT(*) FROM registry_tags t
                         WHERE t.name = m.name) AS tags
                FROM registry_models m ORDER BY m.name
                """
            ).fetchall()
            summaries = []
            for row in rows:
                tags = conn.execute(
                    "SELECT tag, digest FROM registry_tags "
                    "WHERE name = ? ORDER BY tag",
                    (row["name"],),
                ).fetchall()
                summaries.append({
                    "name": row["name"],
                    "description": row["description"],
                    "created_at": row["created_at"],
                    "versions": row["versions"],
                    "tags": {t["tag"]: t["digest"] for t in tags},
                })
        return summaries

    # ------------------------------------------------------------------
    # versions
    # ------------------------------------------------------------------
    def insert_version(
        self,
        name: str,
        digest: str,
        spec: Dict[str, object],
        parent_digest: Optional[str],
        diff: List[Dict[str, object]],
        evaluation: Optional[Dict[str, float]],
        now: Optional[float] = None,
        source: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Insert an immutable version row; returns ``created``.

        Re-publishing an existing ``(name, digest)`` is a no-op — the
        stored spec, lineage, and evaluation are never overwritten.
        """
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO registry_versions "
                "(name, digest, spec, parent_digest, diff, evaluation,"
                " created_at, source) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name, digest,
                    json.dumps(spec, sort_keys=True),
                    parent_digest,
                    json.dumps(diff),
                    None if evaluation is None
                    else json.dumps(evaluation, sort_keys=True),
                    now,
                    None if source is None
                    else json.dumps(source, sort_keys=True),
                ),
            )
            return cursor.rowcount == 1

    def version_row(
        self, name: str, digest: str
    ) -> Optional[Dict[str, object]]:
        """The decoded version row for an exact digest, or ``None``."""
        with self.db.connection() as conn:
            row = conn.execute(
                "SELECT * FROM registry_versions "
                "WHERE name = ? AND digest = ?",
                (name, digest),
            ).fetchone()
        return self._decode_version(row)

    def find_digest(self, name: str, prefix: str) -> str:
        """The unique full digest starting with ``prefix``.

        Raises :class:`VersionNotFoundError` when nothing matches and
        :class:`RefError` when the prefix is ambiguous (git-style).
        """
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT digest FROM registry_versions "
                "WHERE name = ? AND digest LIKE ? LIMIT 2",
                (name, prefix + "%"),
            ).fetchall()
        if not rows:
            raise VersionNotFoundError(
                f"model {name!r} has no version with digest "
                f"prefix {prefix!r}"
            )
        if len(rows) > 1:
            raise RefError(
                f"digest prefix {prefix!r} is ambiguous for model "
                f"{name!r}; give more characters"
            )
        return rows[0]["digest"]

    def list_versions(self, name: str) -> List[Dict[str, object]]:
        """Version summaries, newest first (no spec documents)."""
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT name, digest, parent_digest, evaluation, "
                "created_at FROM registry_versions WHERE name = ? "
                "ORDER BY created_at DESC, digest",
                (name,),
            ).fetchall()
        return [
            {
                "digest": row["digest"],
                "parent_digest": row["parent_digest"],
                "evaluation": (
                    None if row["evaluation"] is None
                    else json.loads(row["evaluation"])
                ),
                "created_at": row["created_at"],
            }
            for row in rows
        ]

    def set_evaluation(
        self, name: str, digest: str, evaluation: Dict[str, float]
    ) -> None:
        """Backfill a lazily computed evaluation, first write wins."""
        with self.db.transaction() as conn:
            conn.execute(
                "UPDATE registry_versions SET evaluation = ? "
                "WHERE name = ? AND digest = ? AND evaluation IS NULL",
                (json.dumps(evaluation, sort_keys=True), name, digest),
            )

    def _decode_version(
        self, row: Optional[sqlite3.Row]
    ) -> Optional[Dict[str, object]]:
        if row is None:
            return None
        return {
            "name": row["name"],
            "digest": row["digest"],
            "spec": json.loads(row["spec"]),
            "parent_digest": row["parent_digest"],
            "diff": json.loads(row["diff"]),
            "evaluation": (
                None if row["evaluation"] is None
                else json.loads(row["evaluation"])
            ),
            "created_at": row["created_at"],
            "source": (
                None if row["source"] is None
                else json.loads(row["source"])
            ),
        }

    # ------------------------------------------------------------------
    # tags
    # ------------------------------------------------------------------
    def tag_digest(self, name: str, tag: str) -> Optional[str]:
        with self.db.connection() as conn:
            row = conn.execute(
                "SELECT digest FROM registry_tags "
                "WHERE name = ? AND tag = ?",
                (name, tag),
            ).fetchone()
        return row["digest"] if row is not None else None

    def tags_for(self, name: str) -> Dict[str, str]:
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT tag, digest FROM registry_tags "
                "WHERE name = ? ORDER BY tag",
                (name,),
            ).fetchall()
        return {row["tag"]: row["digest"] for row in rows}

    def set_tag(
        self,
        name: str,
        tag: str,
        digest: str,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Point ``tag`` at ``digest``; returns the previous digest.

        A no-op (no history row) when the tag already points there, so
        idempotent re-publishes do not spam the rollback history.
        """
        now = time.time() if now is None else now
        with self.db.transaction() as conn:
            row = conn.execute(
                "SELECT digest FROM registry_tags "
                "WHERE name = ? AND tag = ?",
                (name, tag),
            ).fetchone()
            previous = row["digest"] if row is not None else None
            if previous == digest:
                return previous
            conn.execute(
                "INSERT INTO registry_tags (name, tag, digest,"
                " updated_at) VALUES (?, ?, ?, ?) "
                "ON CONFLICT (name, tag) DO UPDATE SET "
                "digest = excluded.digest, "
                "updated_at = excluded.updated_at",
                (name, tag, digest, now),
            )
            conn.execute(
                "INSERT INTO registry_tag_history "
                "(name, tag, digest, set_at) VALUES (?, ?, ?, ?)",
                (name, tag, digest, now),
            )
            return previous

    def tag_history(
        self, name: str, tag: str, limit: int = 20
    ) -> List[Dict[str, object]]:
        """Tag movements, newest first."""
        with self.db.connection() as conn:
            rows = conn.execute(
                "SELECT digest, set_at FROM registry_tag_history "
                "WHERE name = ? AND tag = ? ORDER BY id DESC LIMIT ?",
                (name, tag, limit),
            ).fetchall()
        return [
            {"digest": row["digest"], "set_at": row["set_at"]}
            for row in rows
        ]

    def previous_tag_digest(self, name: str, tag: str) -> Optional[str]:
        """The digest to roll back to: the most recent history entry
        that differs from the tag's current target."""
        current = self.tag_digest(name, tag)
        if current is None:
            return None
        for entry in self.tag_history(name, tag, limit=100):
            if entry["digest"] != current:
                return str(entry["digest"])
        return None

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Registry-wide gauges for ``/metrics``."""
        with self.db.connection() as conn:
            models = conn.execute(
                "SELECT COUNT(*) AS n FROM registry_models"
            ).fetchone()["n"]
            versions = conn.execute(
                "SELECT COUNT(*) AS n FROM registry_versions"
            ).fetchone()["n"]
            tags = conn.execute(
                "SELECT COUNT(*) AS n FROM registry_tags"
            ).fetchone()["n"]
        return {"models": models, "versions": versions, "tags": tags}
