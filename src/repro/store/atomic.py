"""Crash-safe file writes: atomic replace and append-only JSONL.

Two disciplines, each defined once.  The engine's disk cache and
stats file replace atomically; the span exporter appends:

* :func:`atomic_write_bytes` / ``_json`` — write to a temp file in the
  *same directory* (so the rename cannot cross filesystems), then
  ``os.replace``.  A reader — or a process killed mid-write —
  observes either the old content or the new, never a truncated
  file.  The temp file is unlinked on any failure, including
  KeyboardInterrupt.
* :class:`JsonlAppender` — a single ``os.write`` on an ``O_APPEND``
  descriptor per record.  POSIX guarantees the append offset is
  atomic, so concurrent writers interleave whole lines; a kill
  mid-write can truncate at most the final line, which readers skip.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Union


def atomic_write_bytes(
    path: Union[str, Path],
    data: bytes,
    *,
    prefix: str = ".atomic-",
) -> Path:
    """Atomically replace ``path`` with ``data`` (temp + rename)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


def atomic_write_json(
    path: Union[str, Path],
    document: object,
    *,
    indent: Optional[int] = None,
    prefix: str = ".atomic-",
) -> Path:
    """Atomically write ``document`` as sorted-key JSON."""
    return atomic_write_bytes(
        path,
        json.dumps(document, indent=indent, sort_keys=True).encode("utf-8"),
        prefix=prefix,
    )


class JsonlAppender:
    """Append-only JSONL sink on one ``O_APPEND`` descriptor.

    The descriptor opens lazily on first append and is shared across
    threads behind a lock; each record is one ``os.write`` of one
    ``\\n``-terminated line.
    """

    def __init__(self, path: Union[str, Path], mode: int = 0o644):
        self.path = Path(path)
        self.mode = mode
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def append(self, document: Dict[str, object]) -> None:
        line = (
            json.dumps(document, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        self.append_line(line)

    def append_line(self, line: bytes) -> None:
        """Append one pre-encoded, newline-terminated line."""
        with self._lock:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    str(self.path),
                    os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                    self.mode,
                )
            os.write(self._fd, line)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
