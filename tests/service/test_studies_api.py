"""The /v1/studies endpoints: submit, dedup, front, candidate detail."""

import json

from repro.engine import Engine
from repro.errors import BracketError
from repro.library import workgroup_model
from repro.registry import ModelRegistry, RegistryStore
from repro.service.protocol import error_for_exception
from repro.spec import model_to_spec

from . import make_request, run_app


FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"


def study_payload(**overrides):
    payload = {
        "base": model_to_spec(workgroup_model()),
        "name": "wg-study",
        "variables": [
            {"path": FAN, "field": "quantity", "values": [2, 3]},
            {"path": PSU, "field": "quantity", "values": [1, 2]},
        ],
        "strategy": "grid",
    }
    payload.update(overrides)
    return payload


def call(requests, registry=None):
    responses, app = run_app(requests, registry=registry)
    return [response[:2] for response in responses], app.engine, app


class TestSubmit:
    def test_new_study_is_201_succeeded(self):
        responses, _, _ = call(
            [make_request("POST", "/v1/studies", study_payload())]
        )
        status, payload = responses[0]
        assert status == 201
        assert payload["created"] is True
        record = payload["study"]
        assert record["state"] == "succeeded"
        assert record["result"]["front"]
        assert record["result"]["result_digest"]

    def test_resubmission_returns_the_cached_record(self):
        responses, engine, _ = call([
            make_request("POST", "/v1/studies", study_payload()),
            make_request("POST", "/v1/studies", study_payload()),
        ])
        (first_status, first), (second_status, second) = responses
        assert (first_status, second_status) == (201, 200)
        assert second["created"] is False
        assert second["study"]["result"] == first["study"]["result"]
        counters = engine.stats.snapshot().counters
        assert counters.get("studies_dedup_hits") == 1
        assert counters.get("studies_completed") == 1

    def test_base_and_model_ref_are_exclusive(self):
        responses, _, _ = call([
            make_request("POST", "/v1/studies",
                     study_payload(model_ref="wg@latest")),
            make_request("POST", "/v1/studies", {"variables": []}),
        ])
        for status, payload in responses:
            assert status == 400
            assert "base" in payload["error"]["message"]

    def test_model_ref_shares_the_study_id_with_inline(self):
        registry = ModelRegistry(
            RegistryStore(":memory:"), engine=Engine()
        )
        registry.publish(
            model_to_spec(workgroup_model()), "wg", tag="prod"
        )
        ref_payload = study_payload(model_ref="wg@prod")
        del ref_payload["base"]
        responses, _, _ = call(
            [
                make_request("POST", "/v1/studies", study_payload()),
                make_request("POST", "/v1/studies", ref_payload),
            ],
            registry=registry,
        )
        (_, inline), (status, by_ref) = responses
        assert status == 200  # deduplicated: same content digest
        assert (
            by_ref["study"]["study_id"] == inline["study"]["study_id"]
        )

    def test_invalid_study_is_400(self):
        responses, _, _ = call([
            make_request("POST", "/v1/studies", study_payload(variables=[
                {"path": FAN, "field": "warp", "values": [1]},
            ])),
        ])
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_spec"


class TestInspection:
    def submit_and(self, *extra_requests):
        responses, engine, app = call(
            [make_request("POST", "/v1/studies", study_payload())]
            + list(extra_requests)
        )
        study_id = responses[0][1]["study"]["study_id"]
        return study_id, responses, engine

    def test_index_lists_and_counts(self):
        _, responses, _ = self.submit_and(
            make_request("GET", "/v1/studies")
        )
        status, payload = responses[1]
        assert status == 200
        assert payload["counts"]["succeeded"] == 1
        assert payload["studies"][0]["front_size"] >= 1

    def test_front_route(self):
        responses, _, _ = call(
            [make_request("POST", "/v1/studies", study_payload())]
        )
        study_id = responses[0][1]["study"]["study_id"]
        responses, _, _ = call([
            make_request("POST", "/v1/studies", study_payload()),
            make_request("GET", f"/v1/studies/{study_id}/front"),
        ])
        status, payload = responses[1]
        assert status == 200
        assert payload["study_id"] == study_id
        assert payload["winner"] is not None
        assert [row["index"] for row in payload["front"]]

    def test_candidate_detail_and_404(self):
        responses, _, _ = call(
            [make_request("POST", "/v1/studies", study_payload())]
        )
        study_id = responses[0][1]["study"]["study_id"]
        responses, _, _ = call([
            make_request("POST", "/v1/studies", study_payload()),
            make_request("GET", f"/v1/studies/{study_id}/candidates/0"),
            make_request("GET", f"/v1/studies/{study_id}/candidates/99"),
            make_request("GET", f"/v1/studies/{study_id}/candidates/x"),
        ])
        assert responses[1][0] == 200
        assert responses[1][1]["candidate"]["index"] == 0
        assert responses[2][0] == 404
        assert responses[3][0] == 400

    def test_unknown_study_is_404(self):
        responses, _, _ = call([
            make_request("GET", "/v1/studies/study-missing"),
        ])
        status, payload = responses[0]
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_metrics_carry_study_gauges(self):
        responses, _, _ = call([
            make_request("POST", "/v1/studies", study_payload()),
            make_request("GET", "/metrics"),
        ])
        status, payload = responses[1]
        assert status == 200
        assert payload["service"]["studies_succeeded"] == 1
        assert payload["service"]["studies_failed"] == 0


class TestBracketErrorMapping:
    def test_bracket_error_maps_to_400_with_details(self):
        error = BracketError(
            low=1.0, high=2.0, low_value=0.9, high_value=0.95,
            target=0.99,
        )
        response = error_for_exception(error)
        assert response.status == 400
        payload = json.loads(response.body)
        assert payload["error"]["code"] == "target_not_bracketed"
        details = payload["error"]["details"]
        assert details["low"] == 1.0
        assert details["high_value"] == 0.95
        assert details["target"] == 0.99
