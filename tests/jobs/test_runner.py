"""Checkpointed execution: resume bit-identity, preemption, retries."""

import json

import pytest

from repro.engine import Engine
from repro.jobs import (
    Checkpoint,
    JobSpec,
    JobStore,
    Worker,
    WorkerConfig,
    execute_job,
    plan_job,
)
from repro.library import e10000_model
from repro.spec import model_to_spec, parse_spec


@pytest.fixture
def harness(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite3")
    engine = Engine(jobs=1, cache_dir=tmp_path / "cache")
    return store, engine


def sweep_spec(count=8, **overrides):
    start, stop = 1e5, 1e6
    step = (stop - start) / (count - 1)
    params = {
        "field": "mtbf_hours",
        "block": "E10000 Server/Operating System",
        "values": [start + step * i for i in range(count)],
    }
    params.update(overrides.pop("params", {}))
    return JobSpec(
        kind="sweep",
        spec=model_to_spec(e10000_model()),
        params=params,
        **overrides,
    )


def run_once(spec, store, engine, **kwargs):
    record, _ = store.submit(spec)
    leased = store.lease("test-worker")
    outcome = execute_job(leased, store, engine, **kwargs)
    return outcome, store.get(record.id)


class TestSweepExecution:
    def test_sweep_matches_the_engine_sweep(self, harness):
        store, engine = harness
        spec = sweep_spec(count=4)
        outcome, record = run_once(spec, store, engine)
        assert outcome == "succeeded"
        expected = engine.sweep_block_field(
            e10000_model(),
            "E10000 Server/Operating System",
            "mtbf_hours",
            spec.params["values"],
        )
        got = [p["availability"] for p in record.result["points"]]
        assert got == [p.availability for p in expected]
        assert record.result["result_digest"]

    def test_sweep_over_min_required_succeeds(self, harness):
        store, engine = harness
        block = "E10000 Server/CPU Module"
        spec = sweep_spec(params={
            "field": "min_required", "block": block, "values": [62, 63],
        })
        outcome, record = run_once(spec, store, engine)
        assert outcome == "succeeded", record.error
        expected = engine.sweep_block_field(
            e10000_model(), block, "min_required", [62, 63]
        )
        got = [p["availability"] for p in record.result["points"]]
        assert got == [p.availability for p in expected]

    def test_checkpoint_cleared_after_success(self, harness):
        store, engine = harness
        _, record = run_once(sweep_spec(count=3), store, engine)
        assert store.load_checkpoint(record.id) is None


class TestResume:
    def test_preempted_job_resumes_bit_identically(self, harness, tmp_path):
        store, engine = harness
        spec = sweep_spec(count=9)

        # The uninterrupted reference run, on its own store and cache.
        ref_store = JobStore(tmp_path / "ref.sqlite3")
        ref_engine = Engine(jobs=1, cache_dir=tmp_path / "ref-cache")
        _, reference = run_once(spec, ref_store, ref_engine,
                                checkpoint_every=3)

        # Interrupted run: stop after two 3-point chunks.
        record, _ = store.submit(spec)
        leased = store.lease("w1")
        chunks = []
        outcome = execute_job(
            leased, store, engine, checkpoint_every=3,
            should_stop=lambda: len(chunks) >= 2 or chunks.append(None),
        )
        assert outcome == "released"
        checkpoint = store.load_checkpoint(record.id)
        assert len(checkpoint.values) == 6  # two chunks durably recorded

        # Resume with a *fresh* engine (new process after the crash):
        # only the 3 points past the checkpoint are solved again.
        fresh = Engine(jobs=1, cache_dir=tmp_path / "fresh-cache")
        resumed = store.lease("w2")
        assert execute_job(
            resumed, store, fresh, checkpoint_every=3
        ) == "succeeded"
        assert fresh.stats.snapshot().system_solves == 3

        final = store.get(record.id)
        assert final.result == reference.result
        assert (
            final.result["result_digest"]
            == reference.result["result_digest"]
        )

    def test_stale_checkpoint_is_discarded(self, harness):
        store, engine = harness
        spec = sweep_spec(count=4)
        record, _ = store.submit(spec)
        leased = store.lease("w1")
        # A checkpoint from an older submission shape: wrong total.
        store.save_checkpoint(Checkpoint(record.id, "sweep", 99, [0.5]))
        assert execute_job(leased, store, engine) == "succeeded"
        assert len(store.get(record.id).result["points"]) == 4


class TestCancellation:
    def test_cancel_mid_run_stops_at_chunk_boundary(self, harness):
        store, engine = harness
        record, _ = store.submit(sweep_spec(count=6))
        leased = store.lease("w1")
        store.cancel(record.id)
        outcome = execute_job(leased, store, engine, checkpoint_every=2)
        assert outcome == "cancelled"
        assert store.get(record.id).state == "cancelled"
        assert store.load_checkpoint(record.id) is None


class TestWorker:
    def test_worker_drains_the_queue(self, harness):
        store, engine = harness
        a, _ = store.submit(sweep_spec(count=2))
        b, _ = store.submit(sweep_spec(count=3))
        worker = Worker(store, engine, WorkerConfig(once=True))
        assert worker.run() == 2
        assert store.get(a.id).state == "succeeded"
        assert store.get(b.id).state == "succeeded"

    def test_permanent_failure_does_not_retry(self, harness):
        store, engine = harness
        spec = sweep_spec(params={"block": "E10000 Server/NoSuchBlock"})
        record, _ = store.submit(spec)
        worker = Worker(store, engine, WorkerConfig(once=True))
        worker.run()
        failed = store.get(record.id)
        assert failed.state == "failed"
        assert failed.attempts == 1
        assert "permanent" in failed.error

    def test_transient_failure_requeues_with_backoff(self, harness):
        store, engine = harness
        record, _ = store.submit(sweep_spec(count=2))
        leased = store.lease("w1")
        worker = Worker(store, engine)

        original = execute_job

        def boom(*args, **kwargs):
            raise OSError("disk went away")

        import repro.jobs.runner as runner_module

        runner_module_execute = runner_module.execute_job
        runner_module.execute_job = boom
        try:
            state = worker.process(leased)
        finally:
            runner_module.execute_job = runner_module_execute
        assert original is runner_module_execute
        assert state == "queued"
        requeued = store.get(record.id)
        assert requeued.not_before > 0
        assert "transient" in requeued.error


class TestPlans:
    def test_uncertainty_matches_the_engine(self, harness):
        store, engine = harness
        spec = JobSpec(
            kind="uncertainty",
            spec=model_to_spec(e10000_model()),
            params={
                "uncertain": [{
                    "path": "E10000 Server/Operating System",
                    "field": "mtbf_hours",
                    "distribution": {
                        "type": "uniform", "low": 1e5, "high": 5e5,
                    },
                }],
                "samples": 6,
                "seed": 42,
            },
        )
        outcome, record = run_once(spec, store, engine,
                                   checkpoint_every=2)
        assert outcome == "succeeded"

        from repro.analysis.uncertainty import UncertainField
        from repro.semimarkov.distributions import Uniform

        expected = Engine(jobs=1).propagate_uncertainty(
            e10000_model(),
            [UncertainField(
                "E10000 Server/Operating System", "mtbf_hours",
                Uniform(1e5, 5e5),
            )],
            samples=6,
            seed=42,
        )
        assert record.result["mean_availability"] == expected.mean_availability
        assert record.result["downtime_p50"] == expected.downtime_p50

    def test_validate_reports_agreement(self, harness):
        store, engine = harness
        spec = JobSpec(
            kind="validate",
            spec=model_to_spec(e10000_model()),
            params={"replications": 4, "horizon": 2_000.0, "seed": 7},
        )
        outcome, record = run_once(spec, store, engine,
                                   checkpoint_every=2)
        assert outcome == "succeeded"
        result = record.result
        assert result["replications"] == 4
        assert 0.0 < result["simulated_mean"] <= 1.0
        assert isinstance(result["agreement"], bool)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"values": [1.0]}, "params.field"),
            ({"field": "mtbf_hours", "values": []}, "params.values"),
        ],
    )
    def test_sweep_requires_field(self, harness, params, match):
        _, engine = harness
        spec = JobSpec(
            kind="sweep",
            spec=model_to_spec(e10000_model()),
            params=params,
        )
        model = parse_spec(json.loads(json.dumps(dict(spec.spec))))
        from repro.errors import SpecError

        with pytest.raises(SpecError, match=match):
            plan_job(spec, model, engine)

    def test_sweep_digest_covers_the_workload_document(self, harness):
        from repro.jobs.types import workload_digest
        from repro.num import as_options

        _, engine = harness
        spec = sweep_spec(count=4)
        plan = plan_job(spec, e10000_model(), engine)
        assert plan.digest == workload_digest({
            "kind": "sweep", "spec": spec.spec, "field": "mtbf_hours",
            "block": "E10000 Server/Operating System",
            "values": spec.params["values"],
            "solver": as_options("direct").to_dict(),
        })
        assert plan.digest.startswith("wl-")
        other = plan_job(sweep_spec(count=5), e10000_model(), engine)
        assert other.digest != plan.digest

    def test_sweep_fleet_range_sends_the_value_slice(self, harness):
        from repro.num import as_options

        _, engine = harness
        spec = sweep_spec(count=4, params={"method": "gth"})
        plan = plan_job(spec, e10000_model(), engine)
        local = plan.solve_range(1, 3)
        sent = []

        def call(path, payload):
            sent.append((path, payload))
            return {"points": [{"availability": a} for a in local]}

        assert plan.fleet_range(call, 1, 3) == local
        [(path, payload)] = sent
        assert path == "/v1/sweep"
        assert payload["values"] == spec.params["values"][1:3]
        assert payload["block"] == "E10000 Server/Operating System"
        assert payload["solver"] == as_options("gth").to_dict()
        # Shards must never fan out again on a coordinator worker.
        assert payload["cluster"] is False

    @pytest.mark.parametrize(
        "body, count",
        [({"points": [{"availability": 0.9}]}, 1), ({"points": None}, 0)],
    )
    def test_sweep_fleet_range_validates_the_point_count(
        self, harness, body, count
    ):
        from repro.errors import SpecError

        _, engine = harness
        plan = plan_job(sweep_spec(count=4), e10000_model(), engine)
        with pytest.raises(SpecError, match=f"returned {count} points"):
            plan.fleet_range(lambda path, payload: body, 1, 3)


class TestMalformedParams:
    """Unparseable numbers are the submitter's fault: permanent."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("uncertainty", {"samples": "many"}),
            ("validate", {"replications": "forty"}),
            ("validate", {"horizon": "long"}),
            ("calibration", {"chunk_events": "x"}),
            ("calibration", {"window_hours": "week"}),
            ("calibration", {"confidence": "high"}),
        ],
    )
    def test_bad_number_raises_spec_error(self, harness, kind, params):
        from repro.errors import SpecError
        from repro.jobs.retry import classify

        base = {
            "uncertainty": {
                "uncertain": [{
                    "path": "E10000 Server/Operating System",
                    "field": "mtbf_hours",
                    "distribution": {
                        "type": "uniform", "low": 1e5, "high": 5e5,
                    },
                }],
            },
            "validate": {},
            "calibration": {
                "source": {"kind": "synthetic", "seed": 3},
            },
        }[kind]
        spec = JobSpec(
            kind=kind,
            spec=model_to_spec(e10000_model()),
            params={**base, **params},
        )
        _, engine = harness
        with pytest.raises(SpecError, match=next(iter(params))) as info:
            plan_job(spec, e10000_model(), engine)
        assert classify(info.value) == "permanent"


class TestStageTiming:
    def test_pool_chunks_are_not_timed_twice(self, tmp_path):
        """``stage_seconds["jobs"]`` is wall time, not summed chunks."""
        import time

        store = JobStore(tmp_path / "jobs.sqlite3")
        engine = Engine(jobs=2, cache=False)
        record, _ = store.submit(sweep_spec(count=8))
        leased = store.lease("w1")
        start = time.perf_counter()
        outcome = execute_job(leased, store, engine, checkpoint_every=2)
        wall = time.perf_counter() - start
        assert outcome == "succeeded"
        assert engine.stats_snapshot().stage_seconds["jobs"] <= wall
