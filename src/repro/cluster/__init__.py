"""Sharded multi-worker execution — coordinator, fleet, fault tolerance.

The cluster layer scales the service horizontally: a **coordinator**
splits a workload into content-digest-keyed shards, fans them out over
a fleet of ordinary :mod:`repro.service` **workers** via the existing
HTTP API, and merges the shard points (and the workers' mergeable
histograms).  It knows no job kinds: each sharded kind — a sweep
(:func:`repro.jobs.runner.sweep_plan`), a study round
(:func:`repro.studies.round_plan`) — has one :class:`repro.jobs.Plan`
definition with two executors, ``solve_range`` in process and
``fleet_range`` over worker routes, and the caller aggregates the
merged points with the plan's own ``aggregate``.

Design invariant: *placement never changes the answer*.  Solves are
deterministic, shards tile the workload positionally, scheduling
tie-breaks are deterministic, and result commits are first-write-wins —
so the merged payload is bit-identical to a single-process run whatever
the fleet does: workers dying mid-shard, slow shards being stolen and
re-executed speculatively, or the coordinator itself being killed and
resumed from its SQLite shard table.

* :mod:`.config` — :class:`ClusterConfig` and the error hierarchy.
* :mod:`.sharding` — shard planning, rendezvous placement, stealing.
* :mod:`.membership` — worker registry with heartbeat leases.
* :mod:`.client` — HTTP clients both directions, failure-classified.
* :mod:`.coordinator` — the durable shard table and the scheduler.
* :mod:`.merge` — positional point merge and metrics roll-up.
"""

from .client import (
    CoordinatorClient,
    HeartbeatPusher,
    WorkerCallError,
    WorkerClient,
    wait_until_healthy,
)
from .config import (
    ClusterConfig,
    ClusterError,
    NoWorkersError,
    ShardFailedError,
)
from .coordinator import CLUSTER_DB_FILENAME, Coordinator, ShardStore
from .membership import Membership, WorkerInfo, worker_id_for
from .merge import (
    merge_histograms,
    merge_points,
    merge_worker_metrics,
)
from .sharding import (
    Shard,
    assign_shards,
    pick_shard,
    plan_shards,
    preferred_worker,
    rendezvous_score,
    shard_id,
)

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "Coordinator",
    "CoordinatorClient",
    "HeartbeatPusher",
    "Membership",
    "NoWorkersError",
    "Shard",
    "ShardFailedError",
    "CLUSTER_DB_FILENAME",
    "ShardStore",
    "WorkerCallError",
    "WorkerClient",
    "WorkerInfo",
    "assign_shards",
    "merge_histograms",
    "merge_points",
    "merge_worker_metrics",
    "pick_shard",
    "plan_shards",
    "preferred_worker",
    "rendezvous_score",
    "shard_id",
    "wait_until_healthy",
    "worker_id_for",
]
