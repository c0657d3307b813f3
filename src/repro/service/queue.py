"""Admission control and deduplication in front of the engine.

Every ``POST /v1/solve`` (:meth:`SolveQueue.measures`) and the solve
inside ``/v1/validate`` (:meth:`SolveQueue.solve`) flows through one
:class:`SolveQueue`.  A ``/v1/solve`` whose measure set the engine has
cached answers on the loop and never enters the queue; everything else
gets:

* **Backpressure** — at most ``max_queue`` *distinct* solves may be
  running; beyond that :class:`QueueFullError` surfaces as a ``429``
  with ``Retry-After``, so overload sheds load instead of accumulating
  unbounded work.
* **Deduplication** — concurrent requests for the same content digest
  share one in-flight solve: the engine solves once and the result
  fans out to every waiter.  64 clients posting the same spec cost one
  solve.
* **No head-of-line blocking** — each admitted distinct solve is its
  own task running :meth:`repro.engine.Engine.solve` (or
  :meth:`~repro.engine.Engine.measures`) on a worker thread, so a slow
  solve never delays a distinct request behind it.
* **Deadlines** — a waiter whose deadline passes gets
  :class:`DeadlineExceededError` (``504``); the shared solve keeps
  running for any waiters still inside their deadline.

The queue meters itself through the engine's
:class:`~repro.engine.stats.StatsCollector`: counters
``service_admitted`` / ``service_dedup_hits`` / ``service_rejections``
/ ``service_deadline_misses``, gauges ``queue_depth`` /
``queue_depth_peak`` and the ``queue`` latency — all visible in
``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Callable, Dict, Hashable, Optional

from ..core.block import DiagramBlockModel
from ..core.measures import SystemMeasures
from ..core.translator import SystemSolution
from ..engine import Engine
from ..engine.keys import model_digest
from ..errors import RascadError
from ..num import SolverOptions, as_options
from ..obs.trace import get_tracer

#: Seconds a rejected client is told to wait before retrying.
RETRY_AFTER = 0.5


class QueueFullError(RascadError):
    """The admission queue is at capacity; retry after a short delay."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(RascadError):
    """The request's deadline passed before its solve finished."""


class ServiceClosedError(RascadError):
    """The queue is draining for shutdown and admits no new work."""


class SolveQueue:
    """Bounded, deduplicating solve queue.

    Args:
        engine: The evaluation engine the solves run on.
        max_queue: Admission bound on distinct running solves.
    """

    def __init__(self, engine: Engine, max_queue: int = 64) -> None:
        if max_queue < 1:
            raise RascadError(f"max_queue must be >= 1, got {max_queue}")
        self.engine = engine
        self.max_queue = max_queue
        self._inflight: Dict[Hashable, "asyncio.Task"] = {}
        self.depth_peak = 0
        self._closed = False

    async def close(self) -> None:
        """Stop admitting work and wait for every admitted solve."""
        self._closed = True
        await asyncio.gather(
            *self._inflight.values(), return_exceptions=True
        )

    @property
    def depth(self) -> int:
        """Distinct solves currently admitted (running)."""
        return len(self._inflight)

    async def solve(
        self,
        model: DiagramBlockModel,
        method: object = "direct",
        deadline: Optional[float] = None,
    ) -> SystemSolution:
        """Submit one solve; dedups, admits, and awaits the result.

        Args:
            model: The validated model to solve.
            method: Chain solver method (a legacy name or
                :class:`~repro.num.SolverOptions`), forwarded to the
                engine; dedup keys on its canonical form.
            deadline: Absolute ``time.monotonic()`` deadline, or None.
        """
        self._check_open()
        method = as_options(method)
        key = model_digest(model, method)
        return await self._submit(
            key, key, method,
            functools.partial(self.engine.solve, model, method), deadline,
        )

    async def measures(
        self,
        model: DiagramBlockModel,
        method: object = "direct",
        mission: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> SystemMeasures:
        """The model's measure set at ``mission`` (``POST /v1/solve``).

        A measure set the engine has cached answers at once, on the
        calling loop, without admission.  A miss is admitted, deduped
        and deadlined like :meth:`solve`, keyed by the measures key,
        and runs :meth:`repro.engine.Engine.measures` on a worker
        thread.
        """
        self._check_open()
        method = as_options(method)
        key = self.engine.measures_key(model, method, mission)
        cached = self.engine.lookup_measures(key)
        if cached is not None:
            return cached
        return await self._submit(
            key, key[0], method,
            functools.partial(
                self.engine.measures, model, method, mission
            ),
            deadline,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service shutting down")

    async def _submit(
        self,
        key: Hashable,
        digest: str,
        method: SolverOptions,
        work: Callable[[], object],
        deadline: Optional[float],
    ):
        """Dedup on ``key``, admit, and await ``work()`` on a thread."""
        stats = self.engine.stats
        task = self._inflight.get(key)
        if task is not None:
            stats.increment("service_dedup_hits")
            with get_tracer().span("service.dedup_wait", key=digest):
                return await self._wait(task, deadline)
        if len(self._inflight) >= self.max_queue:
            stats.increment("service_rejections")
            raise QueueFullError(
                f"solve queue is full ({self.max_queue} in flight); "
                "retry shortly",
                retry_after=RETRY_AFTER,
            )
        # The task copies this request's context, so its span nests
        # under the request span and the engine's under its own.
        task = asyncio.get_running_loop().create_task(
            self._run(digest, method, work)
        )
        self._inflight[key] = task
        task.add_done_callback(
            functools.partial(self._finished, key, time.monotonic())
        )
        stats.increment("service_admitted")
        stats.set_gauge("queue_depth", self.depth)
        if self.depth > self.depth_peak:
            self.depth_peak = self.depth
            stats.set_gauge("queue_depth_peak", self.depth_peak)
        return await self._wait(task, deadline)

    async def _run(
        self, digest: str, method: SolverOptions, work: Callable[[], object]
    ):
        with get_tracer().span(
            "service.solve", key=digest, method=method.cache_token()
        ):
            return await asyncio.to_thread(work)

    def _finished(
        self,
        key: Hashable,
        admitted_at: float,
        task: "asyncio.Task",
    ) -> None:
        del self._inflight[key]
        stats = self.engine.stats
        stats.set_gauge("queue_depth", self.depth)
        stats.record_latency("queue", time.monotonic() - admitted_at)
        # Mark a failure retrieved: if every waiter already timed out,
        # nobody else will, and asyncio would log an "exception never
        # retrieved" warning at GC time.
        if not task.cancelled():
            task.exception()

    async def _wait(
        self,
        task: "asyncio.Task",
        deadline: Optional[float],
    ):
        # Shield: the task is shared between deduped waiters, so one
        # waiter's timeout must not cancel everyone's solve.
        if deadline is None:
            return await asyncio.shield(task)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            self.engine.stats.increment("service_deadline_misses")
            raise DeadlineExceededError(
                "request deadline passed while queued"
            )
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), timeout=remaining
            )
        except asyncio.TimeoutError:
            self.engine.stats.increment("service_deadline_misses")
            raise DeadlineExceededError(
                "request deadline passed before the solve finished"
            ) from None
