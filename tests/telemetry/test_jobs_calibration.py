"""Calibration as a checkpointed job: planning, resume bit-identity."""

import pytest

from repro.engine import Engine
from repro.errors import SpecError
from repro.jobs import (
    JobSpec,
    JobStore,
    execute_job,
    plan_job,
)
from repro.library import e10000_model
from repro.spec import model_to_spec
from repro.telemetry import FieldEvent, synthetic_field_events

BOOT_DISK = "E10000 Server/Boot Disk"


@pytest.fixture
def harness(tmp_path):
    store = JobStore(tmp_path / "jobs.sqlite3")
    engine = Engine(jobs=1, cache_dir=tmp_path / "cache")
    return store, engine


def calibration_spec(chunk_events=8, **params):
    merged = {
        "source": {
            "kind": "synthetic",
            "seed": 3,
            "window_hours": 10_950.0,
            "shifts": {BOOT_DISK: 0.01},
        },
        "chunk_events": chunk_events,
    }
    merged.update(params)
    return JobSpec(
        kind="calibration",
        spec=model_to_spec(e10000_model()),
        params=merged,
    )


def run_once(spec, store, engine, **kwargs):
    record, _ = store.submit(spec)
    leased = store.lease("test-worker")
    outcome = execute_job(leased, store, engine, **kwargs)
    return outcome, store.get(record.id)


class TestPlanning:
    def test_plan_chunks_the_event_stream(self, harness):
        _, engine = harness
        plan = plan_job(
            calibration_spec(chunk_events=8), e10000_model(), engine
        )
        events = synthetic_field_events(
            e10000_model(),
            window_hours=10_950.0,
            seed=3,
            mtbf_shifts={BOOT_DISK: 0.01},
        )
        assert plan.total == (len(events) + 7) // 8

    def test_unknown_source_kind_is_a_spec_error(self, harness):
        _, engine = harness
        with pytest.raises(SpecError, match="source"):
            plan_job(
                calibration_spec(source={"kind": "carrier-pigeon"}),
                e10000_model(),
                engine,
            )

    def test_out_of_order_event_source_fails_at_submission(self, harness):
        _, engine = harness
        events = [
            FieldEvent(BOOT_DISK, "u#0", "failure", 100.0).to_dict(),
            FieldEvent(BOOT_DISK, "u#0", "repair", 50.0).to_dict(),
        ]
        with pytest.raises(SpecError, match="order"):
            plan_job(
                calibration_spec(
                    source={"kind": "events", "events": events}
                ),
                e10000_model(),
                engine,
            )

    def test_invalid_drift_params_are_a_spec_error(self, harness):
        _, engine = harness
        with pytest.raises(SpecError, match="shift"):
            plan_job(
                calibration_spec(drift={"shift": 0.5}),
                e10000_model(),
                engine,
            )


class TestExecution:
    def test_calibration_job_publishes_a_drift_proposal(self, harness):
        store, engine = harness
        outcome, record = run_once(
            calibration_spec(), store, engine
        )
        assert outcome == "succeeded"
        result = record.result
        assert result["kind"] == "calibration"
        assert result["drifted"] is True
        assert result["accepted"] == result["events_total"]
        proposal = result["proposal"]
        assert proposal["drift"]["drifted_parts"] == [BOOT_DISK]
        assert proposal["provenance"]["source"] == "calibration"

    def test_explicit_event_source_round_trips(self, harness):
        store, engine = harness
        events = [
            event.to_dict()
            for event in synthetic_field_events(
                e10000_model(),
                window_hours=10_950.0,
                seed=3,
                mtbf_shifts={BOOT_DISK: 0.01},
            )
        ]
        outcome, record = run_once(
            calibration_spec(source={"kind": "events", "events": events}),
            store,
            engine,
        )
        assert outcome == "succeeded"
        assert record.result["events_total"] == len(events)


class TestResume:
    def test_preempted_calibration_resumes_bit_identically(
        self, harness, tmp_path
    ):
        store, engine = harness
        spec = calibration_spec(chunk_events=8)

        # The uninterrupted reference run, on its own store and cache.
        ref_store = JobStore(tmp_path / "ref.sqlite3")
        ref_engine = Engine(jobs=1, cache_dir=tmp_path / "ref-cache")
        _, reference = run_once(
            spec, ref_store, ref_engine, checkpoint_every=1
        )

        # Interrupted run: stop after two one-chunk checkpoints.
        record, _ = store.submit(spec)
        leased = store.lease("w1")
        chunks = []
        outcome = execute_job(
            leased, store, engine, checkpoint_every=1,
            should_stop=lambda: len(chunks) >= 2 or chunks.append(None),
        )
        assert outcome == "released"
        checkpoint = store.load_checkpoint(record.id)
        assert len(checkpoint.values) == 2

        # Resume in a "new process": fresh engine, same store.
        fresh = Engine(jobs=1, cache_dir=tmp_path / "fresh-cache")
        resumed = store.lease("w2")
        assert execute_job(
            resumed, store, fresh, checkpoint_every=1
        ) == "succeeded"

        final = store.get(record.id)
        assert final.result == reference.result
        assert (
            final.result["proposal"]["proposal_digest"]
            == reference.result["proposal"]["proposal_digest"]
        )
        assert (
            final.result["state_digest"]
            == reference.result["state_digest"]
        )
