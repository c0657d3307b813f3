"""Batch executor: ordering, determinism, retry and timeout handling."""

import os
import signal
import time

import numpy as np
import pytest

from repro import translate
from repro.engine import run_batch, task_seed
from repro.engine.engine import replication_tasks
from repro.engine.stats import StatsCollector
from repro.errors import EngineError
from repro.library import workgroup_model


def _square(value):
    return value * value


def _draw(lo, hi, seed):
    rng = np.random.default_rng(seed)
    return float(rng.uniform(lo, hi))


def _explode(value):
    raise ValueError(f"boom {value}")


def _sleep_long(value):
    # Long enough to trip the timeout, short enough that the leaked
    # worker exits well before the interpreter does.
    time.sleep(3.0)
    return value


def _die_once(value, sentinel):
    # SIGKILL the worker the first time through; a retry on a rebuilt
    # pool (which sees the sentinel file) succeeds.
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _die_always(value):
    os.kill(os.getpid(), signal.SIGKILL)


class TestSerial:
    def test_results_in_task_order(self):
        assert run_batch(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_empty_batch(self):
        assert run_batch(_square, []) == []

    def test_retry_then_fail_raises_engine_error(self):
        stats = StatsCollector()
        with pytest.raises(EngineError, match="failed after 3 attempt"):
            run_batch(_explode, [(1,)], retries=2, stats=stats)
        snapshot = stats.snapshot()
        assert snapshot.tasks_retried == 2
        assert snapshot.tasks_failed == 1

    def test_serial_retries_transient_failures(self):
        calls = []

        def flaky(value):
            calls.append(value)
            if len(calls) < 3:
                raise ValueError("transient")
            return value

        assert run_batch(flaky, [(7,)], retries=3) == [7]
        assert len(calls) == 3

    def test_invalid_policy_rejected(self):
        with pytest.raises(EngineError):
            run_batch(_square, [(1,)], jobs=0)
        with pytest.raises(EngineError):
            run_batch(_square, [(1,)], retries=-1)


class TestParallel:
    def test_pool_matches_serial(self):
        tasks = [(value,) for value in range(20)]
        assert run_batch(_square, tasks, jobs=3) == run_batch(
            _square, tasks
        )

    def test_seeded_tasks_are_jobs_invariant(self):
        tasks = [(0.0, 1.0, task_seed(123, index)) for index in range(16)]
        serial = run_batch(_draw, tasks, jobs=1)
        parallel = run_batch(_draw, tasks, jobs=4)
        assert serial == parallel
        assert len(set(serial)) == len(serial)  # streams are distinct

    def test_pool_failure_raises_engine_error(self):
        stats = StatsCollector()
        with pytest.raises(EngineError, match="failed"):
            run_batch(_explode, [(1,), (2,)], jobs=2, retries=1,
                      stats=stats)
        assert stats.snapshot().tasks_failed == 1

    def test_stats_record_completions(self):
        stats = StatsCollector()
        run_batch(_square, [(1,), (2,), (3,)], jobs=2, stats=stats)
        snapshot = stats.snapshot()
        assert snapshot.tasks_submitted == 3
        assert snapshot.tasks_completed == 3
        assert snapshot.jobs == 2
        assert snapshot.busy_seconds >= 0.0


class TestPoolCrash:
    def test_killed_worker_is_retried_on_a_rebuilt_pool(self, tmp_path):
        stats = StatsCollector()
        sentinel = str(tmp_path / "died")
        results = run_batch(
            _die_once, [(7, sentinel)], jobs=2, retries=1, stats=stats
        )
        assert results == [49]
        snapshot = stats.snapshot()
        assert snapshot.counters["pool_breaks"] >= 1
        assert snapshot.tasks_retried >= 1

    def test_sibling_tasks_survive_one_crash(self, tmp_path):
        # The crash poisons every in-flight future; the rebuilt pool
        # must still deliver every task's result, in task order.
        sentinel = str(tmp_path / "died")
        tasks = [(value, sentinel) for value in range(6)]
        results = run_batch(_die_once, tasks, jobs=2, retries=1)
        assert results == [value * value for value in range(6)]

    def test_repeated_crashes_raise_a_typed_error(self):
        start = time.perf_counter()
        stats = StatsCollector()
        with pytest.raises(EngineError, match="crashed the worker pool"):
            run_batch(
                _die_always, [(1,)], jobs=2, retries=1, stats=stats
            )
        # Must fail promptly (no hang waiting on a dead pool) and
        # record the abandoned task.
        assert time.perf_counter() - start < 30.0
        assert stats.snapshot().tasks_failed == 1


class TestTimeout:
    def test_hung_task_times_out(self):
        start = time.perf_counter()
        with pytest.raises(EngineError, match="timed out"):
            run_batch(
                _sleep_long, [(1,)], jobs=2, timeout=0.4, retries=0
            )
        # The batch must fail promptly, not wait out the sleep (the
        # pool shutdown itself must not join the stuck worker).
        assert time.perf_counter() - start < 2.5


class TestSeededTasks:
    """The seeded task lists the engine hands the executor."""

    def test_appends_one_seed_per_task(self):
        solution = translate(workgroup_model())
        tasks = replication_tasks(solution, 100.0, 9, 0, 2)
        assert [task[-1] for task in tasks] == [
            task_seed(9, 0), task_seed(9, 1)
        ]
        assert tasks[0][-1] != tasks[1][-1]

    def test_none_base_keeps_tasks_unseeded(self):
        solution = translate(workgroup_model())
        tasks = replication_tasks(solution, 100.0, None, 0, 1)
        assert tasks[0][-1] is None
