"""Admission queue semantics: dedup, backpressure, deadlines, drain,
and no head-of-line blocking between distinct solves."""

import asyncio
import threading
import time

import pytest

from repro.engine.stats import StatsCollector
from repro.library import workgroup_model
from repro.service.queue import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    SolveQueue,
)
from repro.spec import model_to_spec, parse_spec


def _variant(index: int):
    """A structurally distinct model per index (distinct digests)."""
    spec = model_to_spec(workgroup_model())
    spec["diagram"]["blocks"][0]["mtbf_hours"] = 90_000.0 + index
    return parse_spec(spec)


class SlowEngine:
    """Engine stand-in with a controllable, counted solve."""

    def __init__(self, delay=0.05, jobs=1):
        self.stats = StatsCollector()
        self.jobs = jobs
        self.delay = delay
        self.solves = 0
        self.release = threading.Event()
        self.release.set()
        self._lock = threading.Lock()

    def solve(self, model, method="direct"):
        self.release.wait(timeout=5.0)
        time.sleep(self.delay)
        with self._lock:
            self.solves += 1
        return ("solved", model.name, method)


def run(coro):
    return asyncio.run(coro)


class TestDedup:
    def test_concurrent_identical_requests_share_one_solve(self):
        async def go():
            engine = SlowEngine(delay=0.05)
            queue = SolveQueue(engine)
            model = workgroup_model()
            results = await asyncio.gather(
                *(queue.solve(model) for _ in range(16))
            )
            await queue.close()
            return engine, results

        engine, results = run(go())
        assert engine.solves == 1
        assert all(result == results[0] for result in results)
        snapshot = engine.stats.snapshot()
        assert snapshot.counters["service_dedup_hits"] == 15
        assert snapshot.counters["service_admitted"] == 1

    def test_distinct_requests_all_solve(self):
        async def go():
            engine = SlowEngine(delay=0.0)
            queue = SolveQueue(engine)
            results = await asyncio.gather(
                *(queue.solve(_variant(i)) for i in range(4))
            )
            await queue.close()
            return engine, results

        engine, results = run(go())
        assert engine.solves == 4
        assert len({r[1] for r in results}) == 1  # same name, 4 solves


class TestNoHeadOfLineBlocking:
    def test_distinct_solve_finishes_while_a_slow_one_runs(self):
        slow = _variant(0)
        quick = _variant(1)
        held = threading.Event()

        class HeldEngine(SlowEngine):
            def solve(self, model, method="direct"):
                if model is slow:
                    held.wait(timeout=5.0)
                return super().solve(model, method)

        async def go():
            queue = SolveQueue(HeldEngine(delay=0.0))
            blocker = asyncio.ensure_future(queue.solve(slow))
            await asyncio.sleep(0.05)  # the slow solve is running
            try:
                result = await asyncio.wait_for(
                    queue.solve(quick), timeout=2.0
                )
                slow_still_running = not blocker.done()
            finally:
                held.set()
            await blocker
            await queue.close()
            return result, slow_still_running

        result, slow_still_running = run(go())
        assert result[0] == "solved"
        assert slow_still_running


class TestBackpressure:
    def test_full_queue_raises_queue_full(self):
        async def go():
            engine = SlowEngine(delay=0.2)
            engine.release.clear()  # hold every solve in the engine
            queue = SolveQueue(engine, max_queue=2)
            first = asyncio.ensure_future(queue.solve(_variant(0)))
            second = asyncio.ensure_future(queue.solve(_variant(1)))
            await asyncio.sleep(0.05)  # let both get admitted
            with pytest.raises(QueueFullError) as err:
                await queue.solve(_variant(2))
            assert err.value.retry_after > 0
            engine.release.set()
            await asyncio.gather(first, second)
            await queue.close()
            return engine

        engine = run(go())
        snapshot = engine.stats.snapshot()
        assert snapshot.counters["service_rejections"] == 1
        assert snapshot.counters["service_admitted"] == 2

    def test_queue_depth_gauge_returns_to_zero(self):
        async def go():
            engine = SlowEngine(delay=0.0)
            queue = SolveQueue(engine)
            await queue.solve(_variant(0))
            await queue.close()
            return engine, queue

        engine, queue = run(go())
        assert queue.depth == 0
        assert engine.stats.snapshot().gauges["queue_depth"] == 0.0


class TestDeadlines:
    def test_expired_deadline_raises_504_error(self):
        async def go():
            engine = SlowEngine(delay=0.2)
            queue = SolveQueue(engine)
            with pytest.raises(DeadlineExceededError):
                await queue.solve(
                    _variant(0), deadline=time.monotonic() + 0.01
                )
            await queue.close()
            return engine

        engine = run(go())
        snapshot = engine.stats.snapshot()
        assert snapshot.counters["service_deadline_misses"] >= 1

    def test_one_waiter_timeout_does_not_cancel_the_shared_solve(self):
        async def go():
            engine = SlowEngine(delay=0.1)
            queue = SolveQueue(engine)
            model = workgroup_model()
            patient = asyncio.ensure_future(queue.solve(model))
            await asyncio.sleep(0.01)
            with pytest.raises(DeadlineExceededError):
                await queue.solve(
                    model, deadline=time.monotonic() + 0.02
                )
            result = await patient
            await queue.close()
            return engine, result

        engine, result = run(go())
        assert result[0] == "solved"
        assert engine.solves == 1


class TestLifecycle:
    def test_closed_queue_rejects_new_work(self):
        async def go():
            engine = SlowEngine(delay=0.0)
            queue = SolveQueue(engine)
            await queue.close()
            with pytest.raises(ServiceClosedError):
                await queue.solve(_variant(0))

        run(go())

    def test_close_drains_admitted_work(self):
        async def go():
            engine = SlowEngine(delay=0.05)
            queue = SolveQueue(engine)
            pending = [
                asyncio.ensure_future(queue.solve(_variant(i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submissions enqueue
            await queue.close()
            return await asyncio.gather(*pending)

        results = run(go())
        assert len(results) == 3
        assert all(result[0] == "solved" for result in results)

    def test_pool_batch_failure_is_isolated_per_item(self):
        # Distinct solves never share an engine call, even with a
        # process pool: the poison request fails alone and does not
        # 500 the neighbour submitted beside it.
        poison = _variant(0)
        good = _variant(1)

        class PoisonEngine(SlowEngine):
            def solve(self, model, method="direct"):
                if model is poison:
                    raise RuntimeError("poison")
                return super().solve(model, method)

        async def go():
            engine = PoisonEngine(delay=0.0, jobs=2)
            queue = SolveQueue(engine)
            results = await asyncio.gather(
                queue.solve(poison),
                queue.solve(good),
                return_exceptions=True,
            )
            await queue.close()
            return engine, results

        engine, (poisoned, healthy) = run(go())
        assert isinstance(poisoned, RuntimeError)
        assert healthy[0] == "solved"
        assert engine.solves == 1

    def test_solver_failure_propagates_to_every_waiter(self):
        class FailingEngine(SlowEngine):
            def solve(self, model, method="direct"):
                raise RuntimeError("boom")

        async def go():
            engine = FailingEngine()
            queue = SolveQueue(engine)
            model = workgroup_model()
            results = await asyncio.gather(
                *(queue.solve(model) for _ in range(3)),
                return_exceptions=True,
            )
            await queue.close()
            return results

        results = run(go())
        assert all(isinstance(result, RuntimeError) for result in results)
