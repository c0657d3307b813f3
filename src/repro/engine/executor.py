"""Batch execution: a process-pool fan-out with a serial fallback.

The engine's workloads — sweep points, Monte-Carlo samples, simulation
replications — are embarrassingly parallel batches of pure tasks.  This
module runs such a batch with

* ``jobs`` worker processes (``jobs=1`` runs inline, no pool, no
  pickling — the fallback used on single-core boxes and in tests);
* a per-task ``timeout`` (enforced in pool mode; a timed-out task is
  re-submitted, the stuck worker is left to finish in the background);
* bounded ``retries`` per task before the whole batch fails;
* crash recovery — a worker process dying (OOM kill, segfault) breaks
  the whole pool, so the runner rebuilds it, resubmits every
  unfinished task, and charges an attempt only to the task that was
  being collected; exhausted budgets surface as typed
  :class:`~repro.errors.EngineError`, never a raw pool exception;
* results that never depend on placement — seeded callers derive each
  task's seed from ``(base seed, task index)`` with
  :func:`repro.engine.keys.task_seed`, so serial and parallel runs of
  a seeded batch produce identical numbers.

Task functions must be module-level (picklable) when ``jobs > 1``;
results always come back in task order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError
from ..obs.clock import Stopwatch
from ..obs.trace import (
    capture_spans,
    current_carrier,
    export_remote,
    get_tracer,
)
from .stats import StatsCollector

__all__ = ["run_batch"]


def _timed_call(
    fn: Callable,
    args: Tuple,
    carrier: Optional[Dict[str, object]] = None,
):
    """Run one task in a worker and report its execution time.

    With a trace ``carrier`` the call runs under
    :func:`repro.obs.trace.capture_spans`: every span the task finishes
    in this worker travels back with the result for the parent to
    re-export, parent links intact across the process boundary.
    """
    watch = Stopwatch()
    if carrier is None:
        result = fn(*args)
        return result, watch.elapsed, None
    with capture_spans(carrier) as spans:
        with get_tracer().span("engine.task"):
            result = fn(*args)
    return result, watch.elapsed, spans


def run_batch(
    fn: Callable,
    tasks: Sequence[Tuple],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    stats: Optional[StatsCollector] = None,
) -> List:
    """Run ``fn(*task)`` for every task and return results in order.

    Args:
        fn: The task function; module-level when ``jobs > 1``.
        tasks: Argument tuples, one per task.
        jobs: Worker processes; 1 executes inline (serial fallback).
        timeout: Per-attempt wall-clock limit in seconds (pool mode
            only; inline execution cannot be pre-empted).
        retries: Additional attempts allowed per task after its first
            failure or timeout.
        stats: Optional collector for submitted/completed/retried/
            failed counters and busy time.

    Raises:
        EngineError: When any task still fails after all retries.
    """
    if jobs < 1:
        raise EngineError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise EngineError(f"retries must be >= 0, got {retries}")
    stats = stats or StatsCollector()
    stats.set_jobs(jobs)
    tasks = list(tasks)
    stats.increment("tasks_submitted", len(tasks))
    if not tasks:
        return []
    with get_tracer().span("engine.batch", tasks=len(tasks), jobs=jobs):
        if jobs == 1:
            return _run_serial(fn, tasks, retries, stats)
        return _run_pool(fn, tasks, jobs, timeout, retries, stats)


def _run_serial(
    fn: Callable,
    tasks: List[Tuple],
    retries: int,
    stats: StatsCollector,
) -> List:
    results = []
    for index, task in enumerate(tasks):
        for attempt in range(retries + 1):
            watch = Stopwatch()
            try:
                result = fn(*task)
            except Exception as error:
                stats.add_busy(watch.elapsed)
                if attempt < retries:
                    stats.increment("tasks_retried")
                    continue
                stats.increment("tasks_failed")
                raise EngineError(
                    f"task {index} failed after {attempt + 1} attempt(s): "
                    f"{error}"
                ) from error
            stats.add_busy(watch.elapsed)
            results.append(result)
            stats.increment("tasks_completed")
            break
    return results


def _run_pool(
    fn: Callable,
    tasks: List[Tuple],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    stats: StatsCollector,
) -> List:
    results: List = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pool = ProcessPoolExecutor(max_workers=jobs)
    pending: "dict" = {}
    # Snapshot the active span once; every task ships the same carrier
    # so worker-side spans link back to this batch.  None when tracing
    # is off — workers then skip the capture machinery entirely.
    carrier = current_carrier()

    def submit(index: int) -> None:
        pending[pool.submit(_timed_call, fn, tasks[index], carrier)] = index

    try:
        for index in range(len(tasks)):
            submit(index)
        while pending:
            # Collect in submission order; .result() blocks with the
            # per-task timeout, so a hung worker surfaces as a retry
            # instead of wedging the whole batch.
            future, index = next(iter(pending.items()))
            del pending[future]
            try:
                result, busy, spans = future.result(timeout=timeout)
            except BrokenProcessPool as error:
                # A worker died (OOM kill, SIGKILL, segfault).  The
                # whole pool is unusable: every sibling future fails
                # with the same error through no fault of its own, so
                # only the observed task spends an attempt.  Rebuild
                # the pool and resubmit everything unfinished.
                attempts[index] += 1
                stats.increment("pool_breaks")
                pool.shutdown(wait=False)
                pool = ProcessPoolExecutor(max_workers=jobs)
                if attempts[index] > retries:
                    stats.increment("tasks_failed")
                    raise EngineError(
                        f"task {index} crashed the worker pool after "
                        f"{attempts[index]} attempt(s): {error}"
                    ) from error
                stats.increment("tasks_retried")
                outstanding = [index] + sorted(pending.values())
                pending.clear()
                for open_index in outstanding:
                    submit(open_index)
                continue
            except (Exception, FutureTimeoutError) as error:
                future.cancel()
                attempts[index] += 1
                if attempts[index] <= retries:
                    stats.increment("tasks_retried")
                    submit(index)
                    continue
                stats.increment("tasks_failed")
                for open_future in pending:
                    open_future.cancel()
                kind = (
                    "timed out"
                    if isinstance(error, FutureTimeoutError)
                    else "failed"
                )
                raise EngineError(
                    f"task {index} {kind} after {attempts[index]} "
                    f"attempt(s): {error}"
                ) from error
            results[index] = result
            stats.add_busy(busy)
            stats.increment("tasks_completed")
            if spans:
                export_remote(
                    spans,
                    sampled=bool(carrier.get("sampled", True))
                    if carrier
                    else True,
                )
    except BaseException:
        # Abandon the pool without joining: a worker stuck in a
        # timed-out task must not wedge the error path too.
        pool.shutdown(wait=False)
        raise
    pool.shutdown(wait=True)
    return results
