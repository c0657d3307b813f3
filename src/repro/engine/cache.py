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
an explicit ``cache_dir``), one file per content digest, giving cold
*processes* warm starts.  A file holds a :class:`BlockRecord`: plain
data in a fixed little-endian layout (format version
:data:`CACHE_FORMAT_VERSION`), never a pickle, so reading a shared
cache directory runs no code from it.  The record keeps a solve's
scalars and its steady-state vector, not its chain: a chain is a pure
function of the block's parameters, so the engine regenerates it on a
disk hit (a template refill, see DESIGN.md §4) and pairs the stored
vector with its state names.  The 208-state E10000 sweep block's
record is about 1.7 KB.

The cache itself only moves bytes: callers hand :meth:`put_block` an
``encode`` and :meth:`get_block` a ``decode``.  Entries are written
atomically; bytes that do not decode (truncated, another format
version, a backend other than the one the block resolves to now — see
:func:`current_record` — or a vector that does not fit the regenerated
chain) are a miss, and the file is deleted.  Files keep the ``.pkl``
suffix of format 2, so an upgraded directory's old entries sit at the
same paths and are discarded on first read.  Cached objects are shared
between callers and must be treated as immutable.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import (
    Callable,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from ..lru import LRU
from ..num import SolverOptions, steady_backend_for
from ..store import atomic_write_bytes

#: A block value, as an ``encode``/``decode`` pair sees it.
T = TypeVar("T")

#: Bumped whenever the record layout changes; a disk entry of another
#: version is discarded.  Version 2 was a pickled ``ChainSolve``.
CACHE_FORMAT_VERSION = 3

#: A record's first bytes, so a file of another kind never decodes.
_MAGIC = b"RSCB"

#: The fixed record header: magic, format version, model type,
#: availability, failure frequency, state count, operator nonzeros and
#: the byte lengths of the backend and representation names.  The two
#: ASCII names follow it, then the steady-state vector as ``n_states``
#: little-endian float64 values in chain state order.
_HEADER = struct.Struct("<4sHhddIQBB")

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


class BlockRecord(NamedTuple):
    """The persisted form of one block solve: scalars and the π vector.

    ``model_type`` is -1 and ``nnz`` 0 for a raw chain solved by
    :meth:`repro.engine.Engine.solve_chain`.
    """

    model_type: int
    availability: float
    failure_frequency: float
    backend: str
    representation: str
    nnz: int
    pi: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.pi)

    def to_bytes(self) -> bytes:
        backend = self.backend.encode("ascii")
        representation = self.representation.encode("ascii")
        header = _HEADER.pack(
            _MAGIC, CACHE_FORMAT_VERSION, self.model_type,
            self.availability, self.failure_frequency, len(self.pi),
            self.nnz, len(backend), len(representation),
        )
        vector = np.asarray(self.pi, dtype="<f8").tobytes()
        return b"".join((header, backend, representation, vector))

    @classmethod
    def from_bytes(cls, data: bytes) -> Optional["BlockRecord"]:
        """The record in ``data``, or None unless it is a whole record
        of this format version."""
        if len(data) < _HEADER.size:
            return None
        (
            magic, version, model_type, availability, frequency,
            n_states, nnz, backend_len, representation_len,
        ) = _HEADER.unpack_from(data)
        names_end = _HEADER.size + backend_len + representation_len
        if (
            magic != _MAGIC
            or version != CACHE_FORMAT_VERSION
            or len(data) != names_end + 8 * n_states
        ):
            return None
        try:
            backend = data[_HEADER.size:_HEADER.size + backend_len].decode(
                "ascii"
            )
            representation = data[
                _HEADER.size + backend_len:names_end
            ].decode("ascii")
        except UnicodeDecodeError:
            return None
        pi = np.frombuffer(data, dtype="<f8", offset=names_end)
        return cls(
            model_type, availability, frequency, backend, representation,
            nnz, pi,
        )


def current_record(
    data: bytes, options: SolverOptions
) -> Optional[BlockRecord]:
    """The record in ``data`` if a solve under ``options`` would write it.

    None unless ``data`` is a whole record of this format version whose
    backend is the one its chain resolves to now
    (:func:`repro.num.steady_backend_for`).  A record written before
    the default ``dense-direct`` solve moved to ``sparse-direct`` at
    :data:`~repro.num.SPARSE_STATE_FLOOR` states keeps its key, so this
    check is what stops its dense-LAPACK bits from answering.
    """
    record = BlockRecord.from_bytes(data)
    if record is None or record.backend != steady_backend_for(
        record.n_states, options
    ):
        return None
    return record


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
    def get_block(
        self, key: str, decode: Callable[[bytes], Optional[T]]
    ) -> Tuple[Optional[T], str]:
        """Look up a block solve; returns ``(value, layer)``.

        ``layer`` is ``"memory"``, ``"disk"`` or ``"miss"`` so the
        engine can attribute hits in its stats.  A disk entry is
        ``decode``-d and promoted to memory; one that decodes to None
        is deleted and read as a miss.
        """
        value = self._blocks.get(key)
        if value is not None:
            return value, "memory"
        data = self._disk_read(key)
        if data is None:
            return None, "miss"
        value = decode(data)
        if value is None:
            self._discard(self._block_path(key))
            return None, "miss"
        self._blocks.put(key, value)  # promote for next time
        return value, "disk"

    def put_block(
        self, key: str, value: T, encode: Callable[[T], bytes]
    ) -> None:
        """Cache ``value``; with a disk layer, persist ``encode(value)``."""
        self._blocks.put(key, value)
        path = self._block_path(key)
        if path is None:
            return
        try:
            atomic_write_bytes(path, encode(value))
        except OSError:
            # Persistence is best-effort: a full disk or an unwritable
            # directory degrades to memory-only caching, never to failure.
            pass

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
        for entry in self._disk_entries():
            try:
                os.unlink(entry.path)
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
        for entry in self._disk_entries():
            try:
                total += entry.stat().st_size
            except OSError:
                continue  # removed since the walk listed it
            count += 1
        return count, total

    # ------------------------------------------------------------------
    # persistent layer
    # ------------------------------------------------------------------
    def _block_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "blocks" / f"{key}.pkl"

    def _disk_entries(self) -> Iterator[os.DirEntry]:
        """The persistent layer's ``*.pkl`` files, in directory order."""
        if self.cache_dir is None:
            return
        try:
            with os.scandir(self.cache_dir / "blocks") as entries:
                for entry in entries:
                    if entry.name.endswith(".pkl") and entry.is_file():
                        yield entry
        except FileNotFoundError:
            return

    def _disk_read(self, key: str) -> Optional[bytes]:
        path = self._block_path(key)
        if path is None:
            return None
        try:
            with path.open("rb") as handle:
                return handle.read()
        except OSError:
            # Never written, or not openable right now (permissions in a
            # shared cache dir, no free descriptors): a plain miss, and
            # nothing says the entry itself is damaged.
            return None

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
