"""repro.store — one durable-state substrate for every store.

Before this package each durable store (jobs queue, model registry,
cluster shard ledger, studies, telemetry hub) carried its own SQLite
plumbing: its own connect-configure-close idiom, its own WAL pragmas,
its own schema probing, and two different crash-safe file-write
disciplines.  This package is the single substrate they all run on:

* :class:`SqliteStore` — one connection per store, for a file and
  ``:memory:`` alike, shared across threads behind a lock; WAL +
  ``busy_timeout`` configured in one place, and a typed
  :meth:`~SqliteStore.transaction` helper with bounded busy-retry
  that raises :class:`StoreBusyError`.
* :class:`Schema` / :class:`Migration` — ``PRAGMA user_version``
  ordered migrations, each step atomic with its version bump.
* :mod:`~repro.store.atomic` — atomic-replace JSON/bytes writes and
  O_APPEND JSONL, the two crash-safe file disciplines.
* :mod:`~repro.store.admin` — online ``status`` / ``check`` /
  ``backup`` verbs behind the ``rascad db`` CLI.

The package deliberately imports nothing above :mod:`repro.errors`,
so every subsystem can depend on it without cycles.
"""

from ..errors import StoreBusyError, StoreError
from .admin import (
    db_backup,
    db_check,
    db_status,
    default_backup_destination,
    discover_databases,
)
from .atomic import (
    JsonlAppender,
    atomic_write_bytes,
    atomic_write_json,
)
from .core import SqliteStore, is_busy_error
from .schema import Migration, Schema

__all__ = [
    "JsonlAppender",
    "Migration",
    "Schema",
    "SqliteStore",
    "StoreBusyError",
    "StoreError",
    "atomic_write_bytes",
    "atomic_write_json",
    "db_backup",
    "db_check",
    "db_status",
    "default_backup_destination",
    "discover_databases",
    "is_busy_error",
]
