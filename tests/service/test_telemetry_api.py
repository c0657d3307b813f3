"""The telemetry routes: ingest hygiene, backpressure, calibration."""

import asyncio
import json

from repro.engine import Engine
from repro.library import e10000_model
from repro.registry import open_registry
from repro.service.app import App
from repro.service.queue import SolveQueue
from repro.spec import model_to_spec
from repro.telemetry import TelemetryHub, synthetic_field_events

from . import make_request, run_app

BOOT_DISK = "E10000 Server/Boot Disk"


def trace_events():
    return [
        event.to_dict()
        for event in synthetic_field_events(
            e10000_model(),
            window_hours=10_950.0,
            seed=3,
            mtbf_shifts={BOOT_DISK: 0.01},
        )
    ]


def call(app_requests, hub=None, registry_path=None, **hub_kwargs):
    """Run requests against a telemetry-enabled App in one loop."""
    engine = Engine()
    telemetry = (
        hub
        if hub is not None
        else TelemetryHub(stats=engine.stats, **hub_kwargs)
    )
    registry = (
        open_registry(db_path=registry_path, engine=engine)
        if registry_path is not None
        else None
    )
    responses, _ = run_app(
        app_requests, engine, telemetry=telemetry, registry=registry
    )
    return responses, telemetry


class TestIngest:
    def test_batch_ingest_accepts_and_reports_state(self):
        responses, hub = call(
            [make_request("POST", "/v1/events", {"events": trace_events()})]
        )
        status, payload, _ = responses[0]
        assert status == 200
        assert payload["accepted"] == 40
        assert payload["duplicates"] == 0
        assert payload["state_digest"] == hub.estimator.state_digest()

    def test_replayed_batch_is_fully_deduplicated(self):
        events = trace_events()
        responses, _ = call([
            make_request("POST", "/v1/events", {"events": events}),
            make_request("POST", "/v1/events", {"events": events}),
        ])
        status, payload, _ = responses[1]
        assert status == 200
        assert payload["accepted"] == 0
        assert payload["duplicates"] == len(events)

    def test_malformed_event_is_a_structured_400(self):
        responses, _ = call([
            make_request(
                "POST", "/v1/events",
                {"events": [{"part": BOOT_DISK, "kind": "failure"}]},
            )
        ])
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "events[0]" in payload["error"]["message"]

    def test_out_of_order_batch_is_a_structured_400(self):
        events = trace_events()
        responses, hub = call([
            make_request(
                "POST", "/v1/events",
                {"events": [events[5], events[0]]},
            )
        ])
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "out_of_order"
        # The rejection is atomic: nothing was half-applied.
        assert hub.estimator.events_total == 0

    def test_oversized_batch_is_rejected_without_mutation(self):
        events = trace_events()
        responses, hub = call(
            [make_request("POST", "/v1/events", {"events": events})],
            max_batch=10,
        )
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "10-event limit" in payload["error"]["message"]
        assert hub.estimator.events_total == 0

    def test_full_backlog_is_429_with_retry_after(self):
        responses, _ = call(
            [make_request("POST", "/v1/events", {"events": trace_events()})],
            max_pending=5,
        )
        status, payload, response = responses[0]
        assert status == 429
        assert payload["error"]["code"] == "backlog_full"
        assert "Retry-After" in response.headers

    def test_non_list_events_field_is_a_400(self):
        responses, _ = call(
            [make_request("POST", "/v1/events", {"events": "many"})]
        )
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"


class TestCalibrationRoutes:
    def test_status_reports_fitted_rates(self):
        responses, _ = call([
            make_request("POST", "/v1/events", {"events": trace_events()}),
            make_request("GET", "/v1/calibration"),
        ])
        status, payload, _ = responses[1]
        assert status == 200
        assert payload["events_total"] == 40
        parts = {row["part"] for row in payload["fitted"]["parts"]}
        assert BOOT_DISK in parts
        assert payload["proposal"] is None

    def test_proposal_lifecycle_404_then_201(self):
        spec = model_to_spec(e10000_model())
        responses, _ = call([
            make_request("POST", "/v1/events", {"events": trace_events()}),
            make_request("GET", "/v1/calibration/proposal"),
            make_request(
                "POST", "/v1/calibration/propose", {"spec": spec}
            ),
            make_request("GET", "/v1/calibration/proposal"),
        ])
        assert responses[1][0] == 404
        status, payload, _ = responses[2]
        assert status == 201
        proposal = payload["proposal"]
        assert proposal["drift"]["drifted_parts"] == [BOOT_DISK]
        assert responses[3][0] == 200
        assert (
            responses[3][1]["proposal"]["proposal_digest"]
            == proposal["proposal_digest"]
        )

    def test_propose_without_drift_is_409(self):
        spec = model_to_spec(e10000_model())
        clean = [
            event.to_dict()
            for event in synthetic_field_events(
                e10000_model(), window_hours=10_950.0, seed=3
            )
        ]
        responses, _ = call([
            make_request("POST", "/v1/events", {"events": clean}),
            make_request(
                "POST", "/v1/calibration/propose", {"spec": spec}
            ),
        ])
        status, payload, _ = responses[1]
        assert status == 409
        assert payload["error"]["code"] == "no_drift"

    def test_publish_lands_with_calibration_provenance(self, tmp_path):
        spec = model_to_spec(e10000_model())
        responses, _ = call(
            [
                make_request(
                    "POST", "/v1/events", {"events": trace_events()}
                ),
                make_request(
                    "POST", "/v1/calibration/propose", {"spec": spec}
                ),
                make_request(
                    "POST", "/v1/calibration/publish",
                    {"name": "e10000"},
                ),
            ],
            registry_path=tmp_path / "registry.sqlite3",
        )
        status, payload, _ = responses[2]
        assert status == 201
        assert payload["created"] is True
        source = payload["version"]["source"]
        assert source["source"] == "calibration"
        assert BOOT_DISK in source["fitted_rates"]

    def test_tagged_publish_is_gated_with_409(self, tmp_path):
        spec = model_to_spec(e10000_model())
        registry_path = tmp_path / "registry.sqlite3"
        # Seed the prod tag with the (much better) datasheet model.
        engine = Engine()
        registry = open_registry(db_path=registry_path, engine=engine)
        registry.publish(spec, "e10000", tag="prod")
        registry.close()
        responses, _ = call(
            [
                make_request(
                    "POST", "/v1/events", {"events": trace_events()}
                ),
                make_request(
                    "POST", "/v1/calibration/propose", {"spec": spec}
                ),
                make_request(
                    "POST", "/v1/calibration/publish",
                    {"name": "e10000", "tag": "prod"},
                ),
            ],
            registry_path=registry_path,
        )
        status, payload, _ = responses[2]
        assert status == 409
        assert payload["error"]["code"] == "regression_detected"

    def test_telemetry_disabled_server_answers_503(self):
        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            app = App(engine, queue)
            response = await app.handle(
                make_request("POST", "/v1/events", {"events": []})
            )
            await queue.close()
            return response

        response = asyncio.run(go())
        assert response.status == 503
        payload = json.loads(response.body)
        assert payload["error"]["code"] == "telemetry_disabled"


class TestMetrics:
    def test_metrics_document_gains_a_telemetry_section(self):
        responses, hub = call([
            make_request("POST", "/v1/events", {"events": trace_events()}),
            make_request("GET", "/metrics"),
        ])
        status, payload, _ = responses[1]
        assert status == 200
        section = payload["telemetry"]
        assert section == hub.counts()
        assert section["events_total"] == 40
        assert section["batches"] == 1

    def test_prometheus_rendering_exposes_telemetry_gauges(self):
        responses, _ = call([
            make_request("POST", "/v1/events", {"events": trace_events()}),
            make_request(
                "GET", "/metrics", query={"format": "prometheus"}
            ),
        ])
        status, text, _ = responses[1]
        assert status == 200
        assert "rascad_telemetry_events_total" in text
        assert "rascad_telemetry_parts" in text
