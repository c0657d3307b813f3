"""Evaluation engine — cached, parallel solving with instrumentation.

The serving layer for batch workloads: repeated solves (sweeps,
Monte-Carlo sampling, simulation replications) route through an
:class:`Engine` that memoizes per-block chain solves by content digest,
fans tasks out over worker processes, and meters everything it does.

* :mod:`.keys` — canonical, key-order-independent content digests.
* :mod:`.cache` — the in-memory LRU solve cache with an optional
  persistent on-disk layer.
* :mod:`.executor` — the process-pool/serial batch runner (per-task
  timeout, bounded retry, crash recovery).
* :mod:`.stats` — counters and timings, surfaced as
  :class:`EngineStats` snapshots and the ``rascad stats`` CLI view.
* :mod:`.engine` — the :class:`Engine` facade tying them together,
  plus the one copy of each batch kind's math (sweep, uncertainty,
  validate) that the jobs planners and service handlers call.
"""

from .cache import SolveCache, default_cache_dir
from .engine import (
    Engine,
    draw_variants,
    get_default_engine,
    set_default_engine,
    sweep_payload,
    sweep_points,
    uncertainty_summary,
    validate_payload,
)
from .executor import run_batch
from .keys import (
    block_digest,
    canonical_payload,
    chain_digest,
    method_token,
    model_digest,
    task_seed,
)
from .stats import (
    EngineStats,
    StatsCollector,
    load_stats,
    metrics_payload,
    save_stats,
)

__all__ = [
    "Engine",
    "get_default_engine",
    "set_default_engine",
    "draw_variants",
    "sweep_payload",
    "sweep_points",
    "uncertainty_summary",
    "validate_payload",
    "SolveCache",
    "default_cache_dir",
    "run_batch",
    "block_digest",
    "canonical_payload",
    "chain_digest",
    "method_token",
    "model_digest",
    "task_seed",
    "EngineStats",
    "StatsCollector",
    "load_stats",
    "metrics_payload",
    "save_stats",
]
