"""The /v1/jobs endpoints: submit, dedup, inspect, cancel, metrics."""

from repro.engine import Engine
from repro.jobs import JobStore, open_store
from repro.library import e10000_model
from repro.spec import model_to_spec

from . import make_request, run_app


def call(requests, tmp_path, with_store=True):
    """Run requests against a fresh App wired to a temp job store."""
    engine = Engine(cache_dir=tmp_path / "cache")
    store = JobStore(tmp_path / "jobs.sqlite3") if with_store else None
    responses, _ = run_app(requests, engine, jobs=store)
    return [response[:2] for response in responses], engine, store


def submit_payload(**overrides):
    payload = {
        "kind": "sweep",
        "spec": model_to_spec(e10000_model()),
        "params": {
            "field": "mtbf_hours",
            "block": "E10000 Server/Operating System",
            "values": [1e5, 2e5, 3e5],
        },
    }
    payload.update(overrides)
    return payload


class TestSubmit:
    def test_new_job_is_202_queued(self, tmp_path):
        responses, _, store = call(
            [make_request("POST", "/v1/jobs", submit_payload())], tmp_path
        )
        status, payload = responses[0]
        assert status == 202
        assert payload["created"] is True
        assert payload["job"]["state"] == "queued"
        assert store.get(payload["job"]["id"]).kind == "sweep"

    def test_resubmission_is_200_deduped(self, tmp_path):
        responses, engine, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request("POST", "/v1/jobs", submit_payload()),
            ],
            tmp_path,
        )
        (first_status, first), (second_status, second) = responses
        assert (first_status, second_status) == (202, 200)
        assert second["created"] is False
        assert second["job"]["id"] == first["job"]["id"]
        snapshot = engine.stats.snapshot()
        assert snapshot.counters["jobs_submitted"] == 1
        assert snapshot.counters["jobs_dedup_hits"] == 1

    def test_range_shorthand_values(self, tmp_path):
        payload = submit_payload()
        payload["params"]["values"] = "1e5:3e5:3"
        responses, _, store = call(
            [make_request("POST", "/v1/jobs", payload)], tmp_path
        )
        status, body = responses[0]
        assert status == 202
        record = store.get(body["job"]["id"])
        assert record.spec.params["values"] == [1e5, 2e5, 3e5]

    def test_malformed_range_is_400(self, tmp_path):
        payload = submit_payload()
        payload["params"]["values"] = "1e5:3e5"
        responses, _, _ = call(
            [make_request("POST", "/v1/jobs", payload)], tmp_path
        )
        status, body = responses[0]
        assert status == 400
        assert body["error"]["code"] == "invalid_spec"

    def test_unknown_kind_is_400(self, tmp_path):
        responses, _, _ = call(
            [make_request("POST", "/v1/jobs", submit_payload(kind="magic"))],
            tmp_path,
        )
        status, body = responses[0]
        assert status == 400

    def test_malformed_spec_is_400(self, tmp_path):
        responses, _, _ = call(
            [make_request(
                "POST", "/v1/jobs",
                submit_payload(spec={"diagram": {}}),
            )],
            tmp_path,
        )
        status, body = responses[0]
        assert status == 400
        assert body["error"]["code"] == "invalid_spec"


class TestInspect:
    def test_list_reports_jobs_and_counts(self, tmp_path):
        responses, _, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request("GET", "/v1/jobs"),
            ],
            tmp_path,
        )
        status, body = responses[1]
        assert status == 200
        assert len(body["jobs"]) == 1
        assert body["counts"]["queued"] == 1

    def test_get_returns_the_job(self, tmp_path):
        responses, _, _ = call(
            [make_request("POST", "/v1/jobs", submit_payload())], tmp_path
        )
        job_id = responses[0][1]["job"]["id"]
        responses, _, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request("GET", f"/v1/jobs/{job_id}"),
            ],
            tmp_path,
        )
        status, body = responses[1]
        assert status == 200
        assert body["job"]["id"] == job_id

    def test_unknown_id_is_404(self, tmp_path):
        responses, _, _ = call(
            [make_request("GET", "/v1/jobs/job-missing")], tmp_path
        )
        status, body = responses[0]
        assert status == 404
        assert body["error"]["code"] == "job_not_found"

    def test_jobs_disabled_without_a_store(self, tmp_path):
        responses, _, _ = call(
            [make_request("GET", "/v1/jobs")], tmp_path, with_store=False
        )
        status, body = responses[0]
        assert status == 503
        assert body["error"]["code"] == "jobs_disabled"


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        responses, _, _ = call(
            [make_request("POST", "/v1/jobs", submit_payload())], tmp_path
        )
        job_id = responses[0][1]["job"]["id"]
        responses, _, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request("POST", f"/v1/jobs/{job_id}/cancel"),
            ],
            tmp_path,
        )
        status, body = responses[1]
        assert status == 200
        assert body["job"]["state"] == "cancelled"


class TestMetrics:
    def test_job_gauges_in_json_metrics(self, tmp_path):
        responses, _, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request("GET", "/metrics"),
            ],
            tmp_path,
        )
        status, body = responses[1]
        assert status == 200
        service = body["service"]
        assert service["jobs_queued"] == 1
        assert service["jobs_running"] == 0
        assert "queue_depth_peak" in service
        assert "in_flight_peak" in service
        assert "queue_saturation" in service

    def test_job_gauges_in_prometheus(self, tmp_path):
        responses, _, _ = call(
            [
                make_request("POST", "/v1/jobs", submit_payload()),
                make_request(
                    "GET", "/metrics", query={"format": "prometheus"}
                ),
            ],
            tmp_path,
        )
        status, text = responses[1]
        assert status == 200
        assert "rascad_service_jobs_queued 1" in text
        assert "rascad_service_queue_depth_peak" in text
        assert "rascad_service_in_flight_peak" in text

    def test_queue_depth_peak_survives_drain(self, tmp_path):
        # After a solve completes, queue_depth drops back to 0 but the
        # peak gauge keeps the high-water mark.
        spec = model_to_spec(e10000_model())
        responses, engine, _ = call(
            [
                make_request("POST", "/v1/solve", {"spec": spec}),
                make_request("GET", "/metrics"),
            ],
            tmp_path,
        )
        status, body = responses[1]
        assert status == 200
        assert body["service"]["queue_depth"] == 0
        assert body["service"]["queue_depth_peak"] == 1


class TestOpenStore:
    def test_open_store_defaults_into_cache_dir(self, tmp_path):
        store = open_store(cache_dir=tmp_path)
        assert store.path == tmp_path / "jobs.sqlite3"
        assert not (tmp_path / "checkpoints").exists()

    def test_open_store_explicit_db_path(self, tmp_path):
        store = open_store(db_path=tmp_path / "q.db")
        assert store.path == tmp_path / "q.db"
        assert not (tmp_path / "checkpoints").exists()
