"""Worker membership: registration, heartbeat leases, liveness.

The coordinator tracks its fleet in one :class:`Membership` table.
Workers arrive two ways:

* **static** — named on the coordinator command line.  Liveness is
  observed through dispatch: a failed shard call marks the worker
  dead, a successful registration (or shard completion) revives it.
* **dynamic** — self-registered over ``POST /v1/cluster/workers``
  (what ``rascad cluster worker`` does), then kept alive by periodic
  re-registration.  A dynamic worker whose heartbeat lease expires is
  dropped from placement until it heartbeats again — the same
  lease-as-crash-detection idea :class:`repro.jobs.JobStore` uses for
  running jobs.

All methods are thread-safe: the coordinator's dispatch threads and
the service's handler threads share one instance.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..service.client import split_url
from .config import ClusterError

#: Liveness states a worker can be in.
ALIVE = "alive"
DEAD = "dead"


def worker_id_for(url: str) -> str:
    """The canonical worker id of a base URL (its host:port)."""
    split = split_url(url)
    if not split.netloc:
        raise ClusterError(f"malformed worker URL {url!r}")
    return split.netloc


@dataclass
class WorkerInfo:
    """One worker's membership row."""

    id: str
    url: str
    static: bool
    registered_at: float
    heartbeat_at: float
    state: str = ALIVE
    shards_done: int = 0
    shards_failed: int = 0
    shards_stolen: int = 0
    in_flight: int = 0
    last_error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "url": self.url,
            "static": self.static,
            "state": self.state,
            "registered_at": self.registered_at,
            "heartbeat_at": self.heartbeat_at,
            "shards_done": self.shards_done,
            "shards_failed": self.shards_failed,
            "shards_stolen": self.shards_stolen,
            "in_flight": self.in_flight,
            "last_error": self.last_error,
        }


class Membership:
    """The coordinator's worker table with heartbeat leases."""

    def __init__(self, lease_timeout: float = 15.0) -> None:
        if lease_timeout <= 0:
            raise ClusterError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.lease_timeout = lease_timeout
        self._workers: Dict[str, WorkerInfo] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration and heartbeats
    # ------------------------------------------------------------------
    def register(
        self,
        url: str,
        static: bool = False,
        now: Optional[float] = None,
    ) -> WorkerInfo:
        """Upsert a worker; re-registration doubles as a heartbeat.

        A dead worker that registers again is revived — the recovery
        path for a worker process that restarted on the same port.
        """
        now = time.time() if now is None else now
        worker_id = worker_id_for(url)
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                info = WorkerInfo(
                    id=worker_id, url=url, static=static,
                    registered_at=now, heartbeat_at=now,
                )
                self._workers[worker_id] = info
            else:
                info.url = url
                info.heartbeat_at = now
                info.state = ALIVE
                info.last_error = None
                info.static = info.static or static
            return info

    def heartbeat(
        self, worker_id: str, now: Optional[float] = None
    ) -> bool:
        """Refresh one worker's lease; ``False`` if it is unknown."""
        now = time.time() if now is None else now
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                return False
            info.heartbeat_at = now
            if info.state == DEAD:
                info.state = ALIVE
                info.last_error = None
            return True

    # ------------------------------------------------------------------
    # liveness observed from dispatch
    # ------------------------------------------------------------------
    def mark_dead(self, worker_id: str, error: str = "") -> None:
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                info.state = DEAD
                info.last_error = error or info.last_error

    def record(self, worker_id: str, counter: str, delta: int = 1) -> None:
        """Bump one per-worker counter (``shards_done`` and friends)."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is not None:
                setattr(info, counter, getattr(info, counter) + delta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def alive(self, now: Optional[float] = None) -> List[WorkerInfo]:
        """Workers placement may use, sorted by id for determinism.

        Static workers stay eligible until dispatch marks them dead;
        dynamic workers additionally need a fresh heartbeat lease.
        """
        now = time.time() if now is None else now
        stale = now - self.lease_timeout
        with self._lock:
            return sorted(
                (
                    info for info in self._workers.values()
                    if info.state == ALIVE
                    and (info.static or info.heartbeat_at >= stale)
                ),
                key=lambda info: info.id,
            )

    def get(self, worker_id: str) -> Optional[WorkerInfo]:
        with self._lock:
            return self._workers.get(worker_id)

    def snapshot(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """Every known worker's row, liveness resolved, for the API."""
        now = time.time() if now is None else now
        stale = now - self.lease_timeout
        with self._lock:
            rows = []
            for worker_id in sorted(self._workers):
                info = self._workers[worker_id]
                row = info.to_dict()
                if (
                    info.state == ALIVE
                    and not info.static
                    and info.heartbeat_at < stale
                ):
                    row["state"] = "lease_expired"
                rows.append(row)
            return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)
