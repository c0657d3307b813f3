"""Study jobs: checkpointed execution and resume bit-identity."""

import pytest

from repro.engine import Engine
from repro.errors import SpecError
from repro.jobs import JobSpec, JobStore, execute_job
from repro.library import workgroup_model
from repro.spec import model_to_spec
from repro.studies import run_study, parse_study

FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"


def study_params(strategy="descent", **extra):
    params = {
        "name": "wg",
        "strategy": strategy,
        "variables": [
            {"path": FAN, "field": "quantity", "values": [2, 3]},
            {"path": PSU, "field": "quantity", "values": [1, 2]},
        ],
    }
    params.update(extra)
    return params


def study_job(**extra):
    return JobSpec(
        kind="study",
        spec=model_to_spec(workgroup_model()),
        params=study_params(**extra),
    )


def reference_result(**extra):
    document = study_params(**extra)
    document["base"] = model_to_spec(workgroup_model())
    return run_study(parse_study(document), engine=Engine())


def run_once(spec, tmp_path, tag, **kwargs):
    store = JobStore(tmp_path / f"{tag}.sqlite3")
    engine = Engine(jobs=1, cache_dir=tmp_path / f"{tag}-cache")
    record, _ = store.submit(spec)
    leased = store.lease(tag)
    outcome = execute_job(leased, store, engine, **kwargs)
    return outcome, store.get(record.id)


class TestStudyJob:
    def test_study_job_matches_run_study(self, tmp_path):
        outcome, record = run_once(study_job(), tmp_path, "w")
        assert outcome == "succeeded"
        assert record.result == reference_result()

    def test_direct_service_and_job_paths_share_one_digest(
        self, tmp_path
    ):
        _, record = run_once(study_job(), tmp_path, "w")
        assert (
            record.result["result_digest"]
            == reference_result()["result_digest"]
        )

    def test_unknown_strategy_fails_at_submission(self):
        # job_digest parses the spec; the strategy is validated when
        # the plan is built, so a bad name fails the first attempt.
        spec = JobSpec(
            kind="study",
            spec=model_to_spec(workgroup_model()),
            params=study_params(strategy="annealing"),
        )
        with pytest.raises(SpecError, match="known"):
            from repro.jobs.runner import plan_job
            from repro.spec import parse_spec

            plan_job(
                spec,
                parse_spec(dict(spec.spec)),
                Engine(),
            )


class TestResume:
    def test_preempted_study_resumes_bit_identically(self, tmp_path):
        """A killed worker's successor must reproduce the exact
        payload of an uninterrupted run — the checkpointed scalar
        prefix plus generator replay is the whole story."""
        spec = study_job()
        _, reference = run_once(
            spec, tmp_path, "ref", checkpoint_every=3
        )

        store = JobStore(tmp_path / "jobs.sqlite3")
        engine = Engine(jobs=1, cache_dir=tmp_path / "cache")
        record, _ = store.submit(spec)
        leased = store.lease("w1")
        chunks = []
        outcome = execute_job(
            leased, store, engine, checkpoint_every=3,
            should_stop=lambda: len(chunks) >= 2 or chunks.append(None),
        )
        assert outcome == "released"
        checkpoint = store.load_checkpoint(record.id)
        assert 0 < len(checkpoint.values) < reference.result["evaluated"]

        # A fresh engine stands in for the post-crash process.
        fresh = Engine(jobs=1, cache_dir=tmp_path / "fresh-cache")
        resumed = store.lease("w2")
        assert execute_job(
            resumed, store, fresh, checkpoint_every=3
        ) == "succeeded"
        final = store.get(record.id)
        assert final.result == reference.result
        # Only the points past the checkpoint were re-solved.
        assert (
            fresh.stats.snapshot().system_solves
            < reference.result["evaluated"]
        )

    def test_resume_spans_round_boundaries(self, tmp_path):
        # checkpoint_every larger than a descent round: chunks clamp
        # to round boundaries and the digest still matches.
        spec = study_job(options={"rounds": 2})
        _, reference = run_once(spec, tmp_path, "ref")
        _, chunked = run_once(
            spec, tmp_path, "chunked", checkpoint_every=5
        )
        assert chunked.result == reference.result

    def test_stale_checkpoint_discarded(self, tmp_path):
        from repro.jobs import Checkpoint

        spec = study_job()
        store = JobStore(tmp_path / "jobs.sqlite3")
        record, _ = store.submit(spec)
        leased = store.lease("w1")
        store.save_checkpoint(
            Checkpoint(record.id, "study", 99, [0.5, 0.6])
        )
        assert execute_job(leased, store, Engine()) == "succeeded"
        assert store.get(record.id).result == reference_result()
