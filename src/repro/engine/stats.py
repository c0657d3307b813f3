"""Engine instrumentation: counters, timings, and the ``rascad stats`` view.

Every :class:`repro.engine.Engine` owns a :class:`StatsCollector`.  The
hot paths record into it (cheap, lock-guarded increments); callers take
an immutable :class:`EngineStats` snapshot whenever they want numbers —
after a sweep, at CLI exit, or inside a benchmark.  CLI runs persist
their final snapshot as JSON next to the disk cache so a later
``rascad stats`` invocation can show what the last batch did.

The collector also carries the serving-layer telemetry behind the
service's ``GET /metrics`` endpoint: gauges (queue depth, in-flight
requests), per-route request counters, and per-route latency as
fixed-bucket mergeable histograms
(:class:`~repro.obs.histogram.Histogram` — rendered as native
Prometheus ``_bucket``/``_sum``/``_count`` series).
:func:`metrics_payload` is the one serialization both
``rascad stats --json`` and the HTTP endpoint emit, so the two views
can never drift apart.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..obs.clock import Stopwatch
from ..obs.histogram import Histogram
from ..store import atomic_write_json

#: File name of the persisted last-run snapshot inside a cache dir.
STATS_FILENAME = "stats.json"

#: Counter names promoted to named :class:`EngineStats` fields; every
#: other counter lands in the generic ``counters`` mapping.  They only
#: ever increase, so ``/metrics`` renders them as Prometheus counters.
NAMED_COUNTERS = (
    "system_solves",
    "system_cache_hits",
    "block_solves",
    "block_cache_hits",
    "disk_hits",
    "tasks_submitted",
    "tasks_completed",
    "tasks_retried",
    "tasks_failed",
)


@dataclass(frozen=True)
class EngineStats:
    """An immutable snapshot of one engine's activity.

    Attributes:
        system_solves: Whole-model solves actually computed.
        system_cache_hits: Whole-model solves answered from cache.
        block_solves: Block-chain solves actually computed.
        block_cache_hits: Block-chain solves answered from cache
            (memory or disk).
        disk_hits: The subset of ``block_cache_hits`` served by the
            persistent layer.
        tasks_submitted: Tasks handed to the batch executor.
        tasks_completed: Tasks that returned a result.
        tasks_retried: Re-submissions after a failure or timeout.
        tasks_failed: Tasks abandoned after exhausting retries.
        jobs: Worker count of the executor runs recorded (last wins).
        busy_seconds: Summed per-task execution time.
        stage_seconds: Wall time per named stage (``solve``, ``sweep``,
            ``uncertainty``, ``simulate``, ...).
        counters: Every other counter recorded on the collector (the
            service layer's admissions, dedup hits, rejections, ...).
        gauges: Point-in-time values (queue depth, in-flight requests).
        route_counts: Requests per ``"METHOD /path status"`` key.
        latency: Per-route latency histograms in the serialized shape
            of :meth:`repro.obs.histogram.Histogram.to_dict` —
            cumulative ``le``-keyed bucket counts plus ``sum`` and
            ``count``, all durations in seconds.
    """

    system_solves: int = 0
    system_cache_hits: int = 0
    block_solves: int = 0
    block_cache_hits: int = 0
    disk_hits: int = 0
    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_retried: int = 0
    tasks_failed: int = 0
    jobs: int = 1
    busy_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    route_counts: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def block_lookups(self) -> int:
        """Total block-solve requests (hits + computed)."""
        return self.block_cache_hits + self.block_solves

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of block-solve requests served from cache."""
        lookups = self.block_lookups
        if lookups == 0:
            return 0.0
        return self.block_cache_hits / lookups

    @property
    def wall_seconds(self) -> float:
        """Total wall time across all recorded stages."""
        return sum(self.stage_seconds.values())

    @property
    def worker_utilization(self) -> float:
        """Busy time as a fraction of ``jobs * wall`` capacity."""
        capacity = self.jobs * self.wall_seconds
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)

    def to_dict(self) -> Dict[str, object]:
        return {
            "system_solves": self.system_solves,
            "system_cache_hits": self.system_cache_hits,
            "block_solves": self.block_solves,
            "block_cache_hits": self.block_cache_hits,
            "disk_hits": self.disk_hits,
            "tasks_submitted": self.tasks_submitted,
            "tasks_completed": self.tasks_completed,
            "tasks_retried": self.tasks_retried,
            "tasks_failed": self.tasks_failed,
            "jobs": self.jobs,
            "busy_seconds": self.busy_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "route_counts": dict(self.route_counts),
            "latency": {
                route: dict(summary)
                for route, summary in self.latency.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineStats":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401
        return cls(**{k: v for k, v in payload.items() if k in known})

    def format(self) -> str:
        """The human-readable block the ``rascad stats`` command prints."""
        lines = [
            f"system solves        : {self.system_solves} computed, "
            f"{self.system_cache_hits} cached",
            f"block solves         : {self.block_solves} computed, "
            f"{self.block_cache_hits} cached "
            f"({self.disk_hits} from disk)",
            f"block cache hit rate : {self.cache_hit_rate:.1%} "
            f"of {self.block_lookups} lookups",
            f"executor             : {self.tasks_completed}/"
            f"{self.tasks_submitted} tasks ok, "
            f"{self.tasks_retried} retried, {self.tasks_failed} failed "
            f"(jobs={self.jobs})",
            f"worker utilization   : {self.worker_utilization:.1%} "
            f"({self.busy_seconds:.3f}s busy / "
            f"{self.wall_seconds:.3f}s wall)",
        ]
        for stage in sorted(self.stage_seconds):
            lines.append(
                f"stage {stage:<15}: {self.stage_seconds[stage]:.3f}s"
            )
        for name in sorted(self.counters):
            lines.append(f"{name:<21}: {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"{name:<21}: {self.gauges[name]:g}")
        for key in sorted(self.route_counts):
            lines.append(f"route {key:<15}: {self.route_counts[key]}")
        for route in sorted(self.latency):
            summary = self.latency[route]
            if isinstance(summary, dict) and "buckets" in summary:
                try:
                    histogram = Histogram.from_dict(summary)
                except (ValueError, TypeError):
                    continue
                p50, p95, p99 = (
                    histogram.quantile(0.50),
                    histogram.quantile(0.95),
                    histogram.quantile(0.99),
                )
                count = histogram.count
            else:
                # A stats.json persisted before histograms existed.
                p50 = summary.get("p50", 0.0)
                p95 = summary.get("p95", 0.0)
                p99 = summary.get("p99", 0.0)
                count = summary.get("count", 0)
            lines.append(
                f"latency {route}: "
                f"p50={p50 * 1000:.1f}ms "
                f"p95={p95 * 1000:.1f}ms "
                f"p99={p99 * 1000:.1f}ms "
                f"({count:.0f} samples)"
            )
        return "\n".join(lines)


class StatsCollector:
    """Thread-safe accumulator behind :class:`EngineStats` snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._stage_seconds: Dict[str, float] = {}
        self._busy_seconds = 0.0
        self._jobs = 1
        self._gauges: Dict[str, float] = {}
        self._route_counts: Dict[str, int] = {}
        self._latencies: Dict[str, Histogram] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (queue depth, in-flight, ...)."""
        with self._lock:
            self._gauges[name] = float(value)

    def record_backend_solve(self, backend: str, n_states: int) -> None:
        """Count one computed solve against its numerical backend.

        Maintains the ``solves_by_backend.<name>`` counters and the
        high-water ``largest_n_states`` gauge surfaced by
        ``rascad stats`` and ``GET /metrics``.
        """
        with self._lock:
            key = f"solves_by_backend.{backend}"
            self._counters[key] = self._counters.get(key, 0) + 1
            if float(n_states) > self._gauges.get("largest_n_states", 0.0):
                self._gauges["largest_n_states"] = float(n_states)

    def record_request(self, route: str, status: int) -> None:
        """Count one served request under ``"<route> <status>"``."""
        key = f"{route} {status}"
        with self._lock:
            self._route_counts[key] = self._route_counts.get(key, 0) + 1

    def record_latency(self, route: str, seconds: float) -> None:
        """Add one latency sample to the route's histogram."""
        with self._lock:
            histogram = self._latencies.get(route)
            if histogram is None:
                histogram = Histogram()
                self._latencies[route] = histogram
            histogram.observe(float(seconds))

    def add_busy(self, seconds: float) -> None:
        with self._lock:
            self._busy_seconds += seconds

    def set_jobs(self, jobs: int) -> None:
        with self._lock:
            self._jobs = max(1, int(jobs))

    def add_stage_time(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._stage_seconds[stage] = (
                self._stage_seconds.get(stage, 0.0) + seconds
            )

    @contextmanager
    def timer(self, stage: str) -> Iterator[None]:
        """Attribute the wall time of a ``with`` body to ``stage``."""
        watch = Stopwatch()
        try:
            yield
        finally:
            self.add_stage_time(stage, watch.elapsed)

    def snapshot(self) -> EngineStats:
        with self._lock:
            return EngineStats(
                system_solves=self._counters.get("system_solves", 0),
                system_cache_hits=self._counters.get("system_cache_hits", 0),
                block_solves=self._counters.get("block_solves", 0),
                block_cache_hits=self._counters.get("block_cache_hits", 0),
                disk_hits=self._counters.get("disk_hits", 0),
                tasks_submitted=self._counters.get("tasks_submitted", 0),
                tasks_completed=self._counters.get("tasks_completed", 0),
                tasks_retried=self._counters.get("tasks_retried", 0),
                tasks_failed=self._counters.get("tasks_failed", 0),
                jobs=self._jobs,
                busy_seconds=self._busy_seconds,
                stage_seconds=dict(self._stage_seconds),
                counters={
                    name: value
                    for name, value in self._counters.items()
                    if name not in NAMED_COUNTERS
                },
                gauges=dict(self._gauges),
                route_counts=dict(self._route_counts),
                latency={
                    route: histogram.to_dict()
                    for route, histogram in self._latencies.items()
                },
            )

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._stage_seconds.clear()
            self._busy_seconds = 0.0
            self._jobs = 1
            self._gauges.clear()
            self._route_counts.clear()
            self._latencies.clear()


def save_stats(stats: EngineStats, directory: Union[str, Path]) -> Path:
    """Persist a snapshot as ``stats.json`` under ``directory``.

    The write is atomic (temp file + rename, the same discipline the
    disk cache uses), so a reader — or a process killed mid-write —
    never observes a truncated snapshot.
    """
    directory = Path(directory).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / STATS_FILENAME
    atomic_write_json(target, stats.to_dict(), indent=2, prefix=".stats-")
    return target


def load_stats(directory: Union[str, Path]) -> Optional[EngineStats]:
    """Load the last persisted snapshot, or None when there is none."""
    target = Path(directory).expanduser() / STATS_FILENAME
    try:
        payload = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return EngineStats.from_dict(payload)


def metrics_payload(
    stats: Optional[EngineStats],
    disk_usage: Optional[Tuple[int, int]] = None,
    service: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The machine-readable metrics document.

    One serialization shared by ``rascad stats --json`` and the
    service's ``GET /metrics``: engine counters, derived rates, the
    persistent cache's footprint, and (on the service) the serving
    section.

    Args:
        stats: The snapshot to report; ``None`` yields ``engine: null``
            (a ``rascad stats --json`` run before any engine run).
        disk_usage: ``(entries, bytes)`` of the persistent cache.
        service: Serving-layer extras (uptime, queue depth, ...).
    """
    payload: Dict[str, object] = {
        "engine": stats.to_dict() if stats is not None else None,
    }
    if stats is not None:
        payload["derived"] = {
            "cache_hit_rate": stats.cache_hit_rate,
            "block_lookups": stats.block_lookups,
            "wall_seconds": stats.wall_seconds,
            "worker_utilization": stats.worker_utilization,
        }
        prefix = "solves_by_backend."
        payload["solvers"] = {
            "solves_by_backend": {
                name[len(prefix):]: count
                for name, count in sorted(stats.counters.items())
                if name.startswith(prefix)
            },
            "largest_n_states": int(
                stats.gauges.get("largest_n_states", 0.0)
            ),
        }
    if disk_usage is not None:
        entries, size = disk_usage
        payload["cache"] = {"disk_entries": entries, "disk_bytes": size}
    if service is not None:
        payload["service"] = dict(service)
    return payload
