"""Solver options through the HTTP surface: requests, jobs, metrics."""

import pytest

from repro.jobs import JobStore
from repro.library import e10000_model, workgroup_model
from repro.num import SolverOptions
from repro.service.app import render_prometheus
from repro.spec import model_to_spec

from . import make_request, run_app


def call(requests, default_solver=None, jobs=None):
    """Run requests against a fresh App inside one event loop."""
    responses, app = run_app(
        requests, jobs=jobs, default_solver=default_solver
    )
    return [response[:2] for response in responses], app.engine


class TestSolveAcceptsSolverObject:
    def test_solver_object_selects_the_backend(self):
        spec = model_to_spec(workgroup_model())
        responses, engine = call([
            make_request(
                "POST", "/v1/solve",
                {"spec": spec, "solver": {"steady_method": "gth"}},
            ),
        ])
        status, payload = responses[0]
        assert status == 200
        counters = engine.stats.snapshot().counters
        assert counters.get("solves_by_backend.gth", 0) >= 1

    def test_solver_object_agrees_with_legacy_method_string(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request("POST", "/v1/solve", {"spec": spec, "method": "gth"}),
            make_request(
                "POST", "/v1/solve",
                {"spec": spec, "solver": {"steady_method": "gth"}},
            ),
        ])
        (s1, p1), (s2, p2) = responses
        assert s1 == s2 == 200
        assert p1["availability"] == p2["availability"]

    def test_unknown_backend_in_solver_object_is_400(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request(
                "POST", "/v1/solve",
                {"spec": spec, "solver": {"steady_method": "magic"}},
            ),
        ])
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "magic" in payload["error"]["message"]

    def test_unknown_solver_option_key_is_400(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request(
                "POST", "/v1/solve",
                {"spec": spec, "solver": {"steady": "gth"}},
            ),
        ])
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_non_object_solver_field_is_400(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request(
                "POST", "/v1/solve", {"spec": spec, "solver": "gth"}
            ),
        ])
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize(
        "mission", [0, -1, float("nan"), float("inf"), float("-inf")]
    )
    def test_non_positive_or_non_finite_mission_is_400(self, mission):
        spec = model_to_spec(workgroup_model())
        responses, engine = call([
            make_request(
                "POST", "/v1/solve", {"spec": spec, "mission": mission}
            ),
        ])
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "mission" in payload["error"]["message"]
        counters = engine.stats.snapshot().counters
        assert counters.get("measures_computed", 0) == 0

    def test_sweep_accepts_solver_object(self):
        spec = model_to_spec(workgroup_model())
        responses, engine = call([
            make_request(
                "POST", "/v1/sweep",
                {
                    "spec": spec,
                    "block": "Workgroup Server/Operating System",
                    "field": "mtbf_hours",
                    "values": [1e5, 2e5],
                    "solver": {"steady_method": "power"},
                },
            ),
        ])
        status, _ = responses[0]
        assert status == 200
        counters = engine.stats.snapshot().counters
        assert counters.get("solves_by_backend.power", 0) >= 1

    def test_server_default_solver_applies_without_request_fields(self):
        spec = model_to_spec(workgroup_model())
        responses, engine = call(
            [make_request("POST", "/v1/solve", {"spec": spec})],
            default_solver=SolverOptions(steady_method="gth"),
        )
        status, _ = responses[0]
        assert status == 200
        counters = engine.stats.snapshot().counters
        assert counters.get("solves_by_backend.gth", 0) >= 1


class TestJobsValidateSolver:
    def test_bad_params_solver_is_rejected_at_submission(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        responses, _ = call(
            [
                make_request(
                    "POST", "/v1/jobs",
                    {
                        "kind": "sweep",
                        "spec": model_to_spec(e10000_model()),
                        "params": {
                            "field": "mtbf_hours",
                            "block": "E10000 Server/Operating System",
                            "values": [1e5, 2e5],
                            "solver": {"steady_method": "magic"},
                        },
                    },
                ),
            ],
            jobs=store,
        )
        status, payload = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "solver" in payload["error"]["message"]

    def test_good_params_solver_is_accepted(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        responses, _ = call(
            [
                make_request(
                    "POST", "/v1/jobs",
                    {
                        "kind": "sweep",
                        "spec": model_to_spec(e10000_model()),
                        "params": {
                            "field": "mtbf_hours",
                            "block": "E10000 Server/Operating System",
                            "values": [1e5, 2e5],
                            "solver": {"steady_method": "gth"},
                        },
                    },
                ),
            ],
            jobs=store,
        )
        status, payload = responses[0]
        assert status == 202
        assert payload["job"]["state"] == "queued"


class TestSolverMetrics:
    def _metrics_after_solves(self, fmt=None):
        spec = model_to_spec(workgroup_model())
        query = {"format": fmt} if fmt else None
        responses, _ = call([
            make_request("POST", "/v1/solve", {"spec": spec}),
            make_request(
                "POST", "/v1/solve",
                {"spec": spec, "solver": {"steady_method": "gth"}},
            ),
            make_request("GET", "/metrics", query=query),
        ])
        return responses[-1]

    def test_json_metrics_expose_solver_section(self):
        status, payload = self._metrics_after_solves()
        assert status == 200
        solvers = payload["solvers"]
        assert solvers["solves_by_backend"].get("dense-direct", 0) >= 1
        assert solvers["solves_by_backend"].get("gth", 0) >= 1
        assert solvers["largest_n_states"] >= 2

    def test_prometheus_metrics_label_backends(self):
        status, text = self._metrics_after_solves(fmt="prometheus")
        assert status == 200
        assert (
            'rascad_solves_by_backend_total{backend="dense-direct"}' in text
        )
        assert 'rascad_solves_by_backend_total{backend="gth"}' in text
        assert "rascad_largest_n_states" in text

    def test_render_prometheus_groups_backend_counters(self):
        payload = {
            "engine": {
                "counters": {
                    "solves_by_backend.dense-direct": 3,
                    "solves_by_backend.sparse-direct": 1,
                    "service_requests": 4,
                },
                "gauges": {"largest_n_states": 128.0},
            }
        }
        text = render_prometheus(payload)
        assert (
            'rascad_solves_by_backend_total{backend="dense-direct"} 3'
            in text
        )
        assert (
            'rascad_solves_by_backend_total{backend="sparse-direct"} 1'
            in text
        )
        assert "rascad_largest_n_states 128" in text
        assert "rascad_service_requests_total 4" in text
