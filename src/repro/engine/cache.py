"""The solve cache: an in-memory LRU with an optional persistent layer.

Three namespaces share one cache object:

* **block** entries hold :class:`repro.core.ChainSolve` results — the
  expensive, context-free per-block solves.  These are what make sweep
  points cheap: every sweep variant shares all unchanged blocks.
* **system** entries hold whole-model :class:`SystemSolution` objects,
  so a repeated ``solve`` of a byte-identical spec is free.
* **measures** entries hold the :class:`repro.core.SystemMeasures` of
  a system entry at one mission time and grid, so a repeated
  ``/v1/solve`` does not re-run the transient integrals.  They are
  keyed ``(system key, repr(mission), grid_points)`` and dropped with
  the system key they derive from.

Block entries can additionally persist to disk (``~/.cache/rascad`` or
an explicit ``cache_dir``) as pickle files named by their content
digest, giving cold *processes* warm starts.  Entries are written
atomically and validated on load; anything unreadable or from another
cache format version is treated as a miss and deleted.  Cached objects
are shared between callers and must be treated as immutable.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional, Tuple, Union

from ..lru import LRU
from ..store import atomic_write_bytes

#: Bumped whenever the pickled payload layout changes; mismatched disk
#: entries are silently discarded.
CACHE_FORMAT_VERSION = 2

#: Capacity of the in-memory measures namespace, in entries.  A
#: measure set is eleven floats, so this bounds the namespace to a
#: few hundred KiB.
MAX_MEASURES_ENTRIES = 1024

#: A measures-namespace key: ``(system key, repr(mission), grid)``.
MeasuresKey = Tuple[str, str, int]

#: Default persistent-cache location (override per-engine or with the
#: ``RASCAD_CACHE_DIR`` environment variable).
def default_cache_dir() -> Path:
    """The persistent cache location (``RASCAD_CACHE_DIR`` overrides)."""
    override = os.environ.get("RASCAD_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "rascad"


def _state_weight(value: object) -> int:
    """A block entry's weight: its chain's state count (at least 1)."""
    return max(1, getattr(value, "n_states", 1))


class SolveCache:
    """Block- and system-level solve cache with optional persistence.

    Args:
        max_block_states: Memory budget for per-block chain solves, in
            total chain states.  A cached solve's size grows with its
            chain, so counting states (not entries) bounds memory; least
            recently used solves beyond it are dropped from memory but
            stay readable from ``cache_dir``.
        max_system_entries: LRU capacity for whole-model solutions
            (solutions hold full chain hierarchies, so keep this small).
        cache_dir: Directory for the persistent block layer; ``None``
            keeps the cache memory-only.
    """

    def __init__(
        self,
        max_block_states: int = 65536,
        max_system_entries: int = 64,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._blocks = LRU(max_block_states, weigh=_state_weight)
        self._systems = LRU(max_system_entries)
        self._measures = LRU(MAX_MEASURES_ENTRIES)
        self.cache_dir = (
            Path(cache_dir).expanduser() if cache_dir is not None else None
        )

    # ------------------------------------------------------------------
    # block namespace (memory + disk)
    # ------------------------------------------------------------------
    def get_block(self, key: str) -> Tuple[Optional[object], str]:
        """Look up a block solve; returns ``(value, layer)``.

        ``layer`` is ``"memory"``, ``"disk"`` or ``"miss"`` so the
        engine can attribute hits in its stats.
        """
        value = self._blocks.get(key)
        if value is not None:
            return value, "memory"
        value = self._disk_read(key)
        if value is not None:
            self._blocks.put(key, value)  # promote for next time
            return value, "disk"
        return None, "miss"

    def put_block(self, key: str, value: object) -> None:
        self._blocks.put(key, value)
        self._disk_write(key, value)

    # ------------------------------------------------------------------
    # system namespace (memory only)
    # ------------------------------------------------------------------
    def get_system(self, key: str) -> Optional[object]:
        return self._systems.get(key)

    def put_system(self, key: str, value: object) -> None:
        self._systems.put(key, value)

    # ------------------------------------------------------------------
    # measures namespace (memory only, derived from system keys)
    # ------------------------------------------------------------------
    def get_measures(self, key: MeasuresKey) -> Optional[object]:
        return self._measures.get(key)

    def put_measures(self, key: MeasuresKey, value: object) -> None:
        self._measures.put(key, value)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> None:
        """Drop one digest from every layer, with the measure sets
        derived from it."""
        self._blocks.pop(key)
        self._systems.pop(key)
        self._measures.pop_where(lambda measures_key: measures_key[0] == key)
        path = self._block_path(key)
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass

    def clear(self, disk: bool = False) -> None:
        """Empty the in-memory layers (and optionally the disk layer)."""
        self._blocks.clear()
        self._systems.clear()
        self._measures.clear()
        if disk:
            self.clear_disk()

    def clear_disk(self) -> None:
        for path in self._disk_entries():
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def block_entries(self) -> int:
        return len(self._blocks)

    @property
    def block_states(self) -> int:
        """Total chain states held by the in-memory block layer."""
        return self._blocks.weight

    @property
    def system_entries(self) -> int:
        return len(self._systems)

    @property
    def measures_entries(self) -> int:
        return len(self._measures)

    def disk_usage(self) -> Tuple[int, int]:
        """``(entry count, total bytes)`` of the persistent layer."""
        count = 0
        total = 0
        for path in self._disk_entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total

    # ------------------------------------------------------------------
    # persistent layer
    # ------------------------------------------------------------------
    def _block_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "blocks" / f"{key}.pkl"

    def _disk_entries(self):
        if self.cache_dir is None:
            return []
        return sorted((self.cache_dir / "blocks").glob("*.pkl"))

    def _disk_read(self, key: str) -> Optional[object]:
        path = self._block_path(key)
        if path is None:
            return None
        try:
            handle = path.open("rb")
        except OSError:
            # Never written, or not openable right now (permissions in a
            # shared cache dir, no free descriptors): a plain miss, and
            # nothing says the entry itself is damaged.
            return None
        try:
            with handle:
                payload = pickle.load(handle)
        except Exception:
            # Unpickling arbitrary corrupt bytes can raise nearly any
            # exception type; a damaged entry is always just a miss.
            self._discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
        ):
            self._discard(path)
            return None
        return payload.get("value")

    def _disk_write(self, key: str, value: object) -> None:
        path = self._block_path(key)
        if path is None:
            return
        payload = {"version": CACHE_FORMAT_VERSION, "value": value}
        try:
            atomic_write_bytes(
                path, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            )
        except (OSError, pickle.PicklingError):
            # Persistence is best-effort: a full disk or an unpicklable
            # payload degrades to memory-only caching, never to failure.
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
