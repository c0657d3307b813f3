"""Folding shard results back into one point list.

The merge is *positional*: shard ``[lo, hi)`` owns points ``lo..hi-1``
of the workload, so assembling the final point list is concatenation in
``lo`` order with coverage checks — no arithmetic that could depend on
shard placement, retry count, or which worker's duplicate execution of
a stolen shard landed first.  The caller aggregates the merged points
with the kind's own :class:`repro.jobs.Plan` aggregate, the function a
single-process jobs run of the identical workload uses, which is how
the smoke test and the benchmark assert bit-identity.

Worker telemetry merges the same way the observability layer was built
for: per-worker ``/metrics`` latency histograms are fixed-bucket and
mergeable (:class:`repro.obs.Histogram`), counters are additive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..obs.histogram import Histogram
from .config import ClusterError
from .sharding import Shard


def merge_points(
    shards: Iterable[Shard],
    results: Mapping[str, List[float]],
) -> List[float]:
    """Concatenate per-shard point lists in workload order.

    ``results`` maps shard id -> that shard's points.  Raises
    :class:`ClusterError` on a missing shard or a length mismatch —
    a merge must never silently drop or duplicate points.
    """
    ordered = sorted(shards, key=lambda shard: shard.lo)
    merged: List[float] = []
    for shard in ordered:
        points = results.get(shard.id)
        if points is None:
            raise ClusterError(
                f"shard {shard.id} [{shard.lo}, {shard.hi}) has no result"
            )
        if len(points) != shard.size:
            raise ClusterError(
                f"shard {shard.id} returned {len(points)} points, "
                f"expected {shard.size}"
            )
        if len(merged) != shard.lo:
            raise ClusterError(
                f"shard {shard.id} starts at {shard.lo} but "
                f"{len(merged)} points are merged so far — "
                "the plan does not tile the workload"
            )
        merged.extend(points)
    return merged


def merge_histograms(
    summaries: Iterable[Mapping[str, object]],
) -> Optional[Histogram]:
    """Fold serialized per-worker histograms into one, or ``None``.

    Accepts the ``{count, sum, buckets}`` shape ``/metrics`` emits.
    Summaries over different bucket ladders cannot be merged and raise
    ``ValueError`` (from :meth:`Histogram.merge`).
    """
    merged: Optional[Histogram] = None
    for summary in summaries:
        histogram = Histogram.from_dict(dict(summary))
        if merged is None:
            merged = histogram
        else:
            merged.merge(histogram)
    return merged


def merge_worker_metrics(
    metrics: Mapping[str, Mapping[str, object]],
) -> Dict[str, object]:
    """Roll a fleet's ``/metrics`` documents into one cluster view.

    Engine counters add up; per-route latency histograms merge
    bucket-wise; gauges are left out (a fleet-level point-in-time
    gauge is not the sum of samples taken at different instants).
    Returns ``{"workers": n, "counters": ..., "latency": ...}``.
    """
    counters: Dict[str, float] = {}
    latencies: Dict[str, Histogram] = {}
    for document in metrics.values():
        engine = document.get("engine")
        if not isinstance(engine, Mapping):
            continue
        for key, value in engine.items():
            if key == "counters" and isinstance(value, Mapping):
                for name, count in value.items():
                    if isinstance(count, (int, float)) and not isinstance(
                        count, bool
                    ):
                        counters[name] = counters.get(name, 0) + count
            elif key == "latency" and isinstance(value, Mapping):
                for route, summary in value.items():
                    if not isinstance(summary, Mapping):
                        continue
                    if "buckets" not in summary:
                        continue
                    histogram = Histogram.from_dict(dict(summary))
                    if route in latencies:
                        latencies[route].merge(histogram)
                    else:
                        latencies[route] = histogram
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                counters[key] = counters.get(key, 0) + value
    return {
        "workers": len(metrics),
        "counters": dict(sorted(counters.items())),
        "latency": {
            route: histogram.to_dict()
            for route, histogram in sorted(latencies.items())
        },
    }
