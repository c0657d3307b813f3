"""``PRAGMA user_version``-based schema registry and migrations.

Each store declares a :class:`Schema`: an ordered list of
:class:`Migration` steps numbered ``1..N``.  The database header's
``user_version`` records how far a file has migrated; opening a store
applies exactly the pending suffix, each step in its own transaction
with the version bump committed atomically alongside the DDL — a
crash mid-migration leaves the previous version fully intact.

This replaces the ad-hoc ``PRAGMA table_info`` probing the registry
store used to detect a missing column: probing can only ever answer
*is this one column there*, while a version number answers *which
exact schema is this file*, works for data backfills as well as DDL,
and is what ``rascad db status`` reports.

A migration's ``apply`` is either a SQL script (split on ``;`` —
statements in this codebase never embed semicolons in literals) or a
callable taking the open connection, for steps that need Python logic
(conditional DDL against pre-versioning files, data backfills).

Every store's chain starts at version 1, so ``user_version`` alone
cannot tell one store's file from another's.  The header's
``PRAGMA application_id`` carries that: each schema stamps a stable id
derived from its name, and a store refuses a file another schema has
stamped.  Files written before the stamp existed are adopted only when
they already hold one of the schema's own tables.
"""

from __future__ import annotations

import sqlite3
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple, Union

from ..errors import StoreError

Apply = Union[str, Callable[[sqlite3.Connection], None]]

#: Schema name by application id, for naming a file's owner in errors.
_OWNERS: Dict[int, str] = {}


@dataclass(frozen=True)
class Migration:
    """One numbered schema step.

    Attributes:
        version: Target ``user_version`` after this step; must be the
            predecessor's version + 1.
        description: One line for ``rascad db status`` and docs.
        apply: SQL script or ``callable(conn)``.
    """

    version: int
    description: str
    apply: Apply


class Schema:
    """An ordered migration chain for one database."""

    def __init__(self, name: str, migrations: Sequence[Migration]):
        if not migrations:
            raise StoreError(f"schema {name!r} declares no migrations")
        for index, migration in enumerate(migrations, start=1):
            if migration.version != index:
                raise StoreError(
                    f"schema {name!r} migrations must be numbered "
                    f"1..N in order; step {index} has version "
                    f"{migration.version}"
                )
        self.name = name
        self.migrations: Tuple[Migration, ...] = tuple(migrations)
        #: The ``PRAGMA application_id`` this schema stamps on its files.
        self.application_id = zlib.crc32(name.encode("utf-8")) & 0x7FFFFFFF
        _OWNERS[self.application_id] = name

    @property
    def version(self) -> int:
        """The current (latest) schema version."""
        return self.migrations[-1].version

    def pending(self, conn: sqlite3.Connection) -> List[Migration]:
        current = int(
            conn.execute("PRAGMA user_version").fetchone()[0]
        )
        if current > self.version:
            raise StoreError(
                f"database is at schema version {current}, newer than "
                f"this build of {self.name!r} (knows {self.version}); "
                "refusing to open"
            )
        return [m for m in self.migrations if m.version > current]

    @cached_property
    def tables(self) -> FrozenSet[str]:
        """The tables the full chain creates (probed in memory)."""
        probe = sqlite3.connect(":memory:")
        try:
            self.apply(probe)
            return frozenset(_tables(probe))
        finally:
            probe.close()

    def claim(self, conn: sqlite3.Connection) -> None:
        """Stamp ``conn``'s file as this schema's, or refuse it.

        A file stamped by another schema raises :class:`StoreError`
        naming both.  An unstamped file that is already migrated
        predates the stamp: it is adopted when it holds one of this
        schema's tables, and refused otherwise.
        """
        if self._refuse_foreign(conn):
            return
        version = int(conn.execute("PRAGMA user_version").fetchone()[0])
        if version:
            found = _tables(conn)
            if not found & self.tables:
                raise StoreError(
                    f"database at schema version {version} holds "
                    f"another store's tables ({', '.join(sorted(found))}); "
                    f"refusing to open it as schema {self.name!r} "
                    "(each store needs its own file)"
                )
        conn.execute(f"PRAGMA application_id = {self.application_id}")

    def _refuse_foreign(self, conn: sqlite3.Connection) -> bool:
        """Raise if another schema stamped the file; ``True`` if this
        one did, ``False`` if it is unstamped."""
        owner = int(conn.execute("PRAGMA application_id").fetchone()[0])
        if owner and owner != self.application_id:
            other = _OWNERS.get(owner, f"application id {owner}")
            raise StoreError(
                f"database belongs to schema {other!r}; refusing to "
                f"open it as schema {self.name!r} (each store needs "
                "its own file)"
            )
        return bool(owner)

    def apply(self, conn: sqlite3.Connection) -> int:
        """Bring ``conn``'s database to the current version.

        Returns the number of migrations applied.  Each step runs in
        its own immediate transaction; the ``user_version`` bump
        commits atomically with the step's statements, and the file
        is :meth:`claim`-ed before and within every step.  A file
        another schema stamped is refused as such before its version
        is read, so a newer foreign file is not mistaken for a newer
        build's own.
        """
        self._refuse_foreign(conn)
        steps = self.pending(conn)
        self.claim(conn)
        for migration in steps:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Re-claimed under the write lock: another schema may
                # have stamped a fresh file since the check above.
                self.claim(conn)
                if callable(migration.apply):
                    migration.apply(conn)
                else:
                    for statement in _statements(migration.apply):
                        conn.execute(statement)
                conn.execute(
                    f"PRAGMA user_version = {int(migration.version)}"
                )
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
        return len(steps)


def _tables(conn: sqlite3.Connection) -> FrozenSet[str]:
    return frozenset(
        row[0]
        for row in conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        )
    )


def _statements(script: str) -> List[str]:
    return [part.strip() for part in script.split(";") if part.strip()]
