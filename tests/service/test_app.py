"""Route handlers driven without sockets: one Request in, one Response out."""

import asyncio
import json
import re
import time
from pathlib import Path

from repro.core import translate
from repro.engine import Engine
from repro.library import e10000_model, workgroup_model
from repro.service.app import App, render_prometheus
from repro.service.protocol import Request
from repro.service.queue import SolveQueue
from repro.spec import model_to_spec

from . import make_request, run_app


def call(app_requests, engine=None):
    """Run requests against a fresh App inside one event loop."""
    responses, app = run_app(app_requests, engine)
    return responses, app.engine


class TestSolve:
    def test_solve_matches_the_cli_path_bit_for_bit(self):
        spec = model_to_spec(e10000_model())
        responses, _ = call(
            [make_request("POST", "/v1/solve", {"spec": spec})]
        )
        status, payload, _ = responses[0]
        assert status == 200
        expected = translate(e10000_model()).availability
        assert payload["availability"] == expected
        assert payload["model"] == "E10000 Server"
        assert payload["yearly_downtime_minutes"] > 0

    def test_solve_without_spec_is_400(self):
        responses, _ = call([make_request("POST", "/v1/solve", {})])
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_malformed_spec_is_400_with_spec_code(self):
        responses, _ = call([
            make_request("POST", "/v1/solve", {"spec": {"diagram": {}}})
        ])
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_spec"

    def test_unknown_method_is_400(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request(
                "POST", "/v1/solve", {"spec": spec, "method": "magic"}
            )
        ])
        status, payload, _ = responses[0]
        assert status == 400

    def test_bad_json_body_is_400(self):
        request = Request("POST", "/v1/solve", {}, {}, b"{nope")
        responses, _ = call([request])
        status, payload, _ = responses[0]
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_deadline_exceeded_is_504_gateway_timeout(self):
        engine = Engine()
        inner_solve = engine.solve

        def slow_solve(model, method="direct"):
            time.sleep(0.2)
            return inner_solve(model, method)

        engine.solve = slow_solve
        spec = model_to_spec(workgroup_model())
        responses, _ = call(
            [make_request(
                "POST", "/v1/solve",
                {"spec": spec, "timeout_seconds": 0.01},
            )],
            engine=engine,
        )
        status, payload, _ = responses[0]
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"

    def test_draining_service_is_503_service_unavailable(self):
        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            await queue.close()
            app = App(engine, queue)
            spec = model_to_spec(workgroup_model())
            return await app.handle(
                make_request("POST", "/v1/solve", {"spec": spec})
            )

        response = asyncio.run(go())
        assert response.status == 503
        payload = json.loads(response.body)
        assert payload["error"]["code"] == "service_unavailable"


class TestSweepAndValidate:
    def test_sweep_block_field(self):
        spec = model_to_spec(workgroup_model())
        block = f"{spec['name']}/{spec['diagram']['blocks'][0]['name']}"
        responses, _ = call([
            make_request("POST", "/v1/sweep", {
                "spec": spec,
                "block": block,
                "field": "mtbf_hours",
                "values": [50_000, 100_000],
            })
        ])
        status, payload, _ = responses[0]
        assert status == 200
        assert len(payload["points"]) == 2
        first, second = payload["points"]
        assert second["availability"] > first["availability"]

    def test_sweep_over_quantity_matches_an_integer_engine_sweep(self):
        model = workgroup_model()
        block = f"{model.name}/CPU Module"
        responses, _ = call([
            make_request("POST", "/v1/sweep", {
                "spec": model_to_spec(model),
                "block": block,
                "field": "quantity",
                "values": [2, 3],
            })
        ])
        status, payload, _ = responses[0]
        assert status == 200, payload
        expected = Engine().sweep_block_field(
            model, block, "quantity", [2, 3]
        )
        assert [point["availability"] for point in payload["points"]] == [
            point.availability for point in expected
        ]

    def test_sweep_rejects_non_numeric_values(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request("POST", "/v1/sweep", {
                "spec": spec,
                "field": "mtbf_hours",
                "values": ["many"],
            })
        ])
        assert responses[0][0] == 400

    def test_validate_agrees_with_analytic(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request("POST", "/v1/validate", {
                "spec": spec, "replications": 8, "horizon": 2_000.0,
                "seed": 7,
            })
        ])
        status, payload, _ = responses[0]
        assert status == 200
        assert 0.9 < payload["analytic_availability"] <= 1.0
        assert payload["replications"] == 8
        assert isinstance(payload["agreement"], bool)


class TestLibraryAndRouting:
    def test_library_index_lists_models(self):
        responses, _ = call([make_request("GET", "/v1/library")])
        status, payload, _ = responses[0]
        assert status == 200
        assert payload["models"] == ["datacenter", "e10000", "workgroup"]

    def test_library_spec_round_trips_through_solve(self):
        responses, _ = call([make_request("GET", "/v1/library/workgroup")])
        status, spec, _ = responses[0]
        assert status == 200
        responses, _ = call(
            [make_request("POST", "/v1/solve", {"spec": spec})]
        )
        assert responses[0][0] == 200

    def test_unknown_library_model_is_404(self):
        responses, _ = call([make_request("GET", "/v1/library/vax")])
        assert responses[0][0] == 404

    def test_unknown_route_is_404(self):
        responses, _ = call([make_request("GET", "/v2/solve")])
        status, payload, _ = responses[0]
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self):
        responses, _ = call([make_request("GET", "/v1/solve")])
        assert responses[0][0] == 405

    def test_invented_methods_share_one_route_label(self):
        responses, engine = call([
            make_request(f"M{index:04d}", "/healthz")
            for index in range(1000)
        ])
        assert {status for status, _, _ in responses} == {405}
        _, payload, _ = responses[0]
        assert payload["error"]["message"] == (
            "M0000 is not supported on '/healthz'"
        )
        snapshot = engine.stats.snapshot()
        assert snapshot.route_counts == {"OTHER (unmatched) 405": 1000}
        assert len(set(snapshot.route_counts) | set(snapshot.latency)) <= 2

    def test_unserved_methods_label_as_other(self):
        _, engine = call([
            make_request("DELETE", "/v1/solve"),
            make_request("DELETE", "/v1/jobs/x"),
            make_request("GET", "/v1/solve"),
        ])
        assert set(engine.stats.snapshot().latency) == {
            "OTHER (unmatched)",
            "GET (unmatched)",
        }


#: The methods each route table template is probed with.
_METHODS = ("GET", "POST", "PUT", "DELETE")


def _fill(template, value=None):
    """``template`` with each ``{param}`` set to ``value`` (default: a
    valid segment)."""
    parts = []
    for part in template.split("/"):
        if part.startswith("{") and value is not None:
            part = value
        elif part.startswith("{"):
            part = "0" if part == "{index}" else "x"
        parts.append(part)
    return "/".join(parts)


def _served():
    """``{template: {methods}}`` from the route table."""
    served = {}
    for method, template, _handler in App.ROUTES.rows:
        served.setdefault(template, set()).add(method)
    return served


class TestRoutesDoc:
    def test_docs_list_each_route_table_row_once(self):
        text = (
            Path(__file__).resolve().parents[2] / "docs" / "service.md"
        ).read_text()
        section = text.split("\n## Routes\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `([A-Z]+ /\S*)`", section, re.MULTILINE)
        rows = [
            f"{method} {template}"
            for method, template, _handler in App.ROUTES.rows
        ]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(rows)
        assert len(rows) == len(set(rows))


class TestItemRoutesCheckTheMethodFirst:
    """Every route table template answers an unserved method with 405 and
    a malformed path under its prefix with 404, whatever stores are
    attached."""

    UNSERVED = [
        (method, _fill(template))
        for template, served in _served().items()
        for method in _METHODS
        if method not in served
    ]

    MALFORMED = [
        (method, path)
        for template in _served()
        if "{" in template
        for path in (
            _fill(template) + "/extra",
            _fill(template, value=""),
            _fill(template) + "/",
        )
        for method in _METHODS
    ]

    @staticmethod
    def _answers(requests, **stores):
        responses, _app = run_app(
            [make_request(method, path) for method, path in requests],
            **stores,
        )
        return [
            (status, payload["error"]["code"])
            for status, payload, _response in responses
        ]

    def _check(self, **stores):
        assert self._answers(self.UNSERVED, **stores) == (
            [(405, "method_not_allowed")] * len(self.UNSERVED)
        )
        assert self._answers(self.MALFORMED, **stores) == (
            [(404, "not_found")] * len(self.MALFORMED)
        )

    def test_the_probes_cover_every_template(self):
        assert {path for _method, path in self.UNSERVED} == {
            _fill(template) for template in _served()
        }

    def test_without_stores(self):
        self._check()

    def test_with_stores(self, tmp_path):
        from repro.jobs import JobStore
        from repro.registry import ModelRegistry, RegistryStore

        jobs = JobStore(tmp_path / "jobs.sqlite3")
        registry = ModelRegistry(RegistryStore(":memory:"), engine=Engine())
        try:
            self._check(jobs=jobs, registry=registry)
        finally:
            jobs.close()
            registry.close()

    def test_unserved_and_unmatched_requests_share_three_labels(self):
        _, app = run_app([
            make_request(method, path)
            for method, path in self.UNSERVED + self.MALFORMED
        ])
        assert set(app.engine.stats.snapshot().latency) == {
            "GET (unmatched)", "POST (unmatched)", "OTHER (unmatched)",
        }

    def test_served_methods_still_need_their_store(self):
        responses, _app = run_app([
            make_request("GET", "/v1/jobs/x"),
            make_request("POST", "/v1/jobs/x/cancel"),
            make_request("GET", "/v1/models/m"),
            make_request("POST", "/v1/models/m/tags", {"tag": "t"}),
            make_request("GET", "/v1/models/m/versions/abc"),
        ])
        assert [
            (status, payload["error"]["code"]) for status, payload, _ in responses
        ] == (
            [(503, "jobs_disabled")] * 2 + [(503, "registry_disabled")] * 3
        )


class TestObservability:
    def test_healthz_reports_ok(self):
        responses, _ = call([make_request("GET", "/healthz")])
        status, payload, _ = responses[0]
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_metrics_reflect_served_requests(self):
        spec = model_to_spec(workgroup_model())
        responses, engine = call([
            make_request("POST", "/v1/solve", {"spec": spec}),
            make_request("GET", "/metrics"),
        ])
        status, payload, _ = responses[1]
        assert status == 200
        assert payload["engine"]["system_solves"] == 1
        assert payload["engine"]["route_counts"]["POST /v1/solve 200"] == 1
        latency = payload["engine"]["latency"]["POST /v1/solve"]
        assert latency["count"] == 1
        assert latency["sum"] >= 0
        assert latency["buckets"]["+Inf"] == 1
        assert payload["service"]["max_queue"] == 64
        assert payload["derived"]["cache_hit_rate"] >= 0

    def test_metrics_count_measure_sets_computed_and_cached(self):
        spec = model_to_spec(workgroup_model())
        solve = make_request("POST", "/v1/solve", {"spec": spec})
        responses, engine = call([
            solve,
            make_request("POST", "/v1/solve", {"spec": spec}),
            make_request("GET", "/metrics"),
            make_request(
                "GET", "/metrics", query={"format": "prometheus"}
            ),
        ])
        (_, first, _), (_, second, _) = responses[:2]
        assert second == first
        status, payload, _ = responses[2]
        assert status == 200
        counters = payload["engine"]["counters"]
        assert counters["measures_computed"] == 1
        assert counters["measures_cache_hits"] == 1
        # The hit never entered the admission queue.
        assert counters["service_admitted"] == 1
        status, text, _ = responses[3]
        assert "rascad_measures_computed_total 1" in text
        assert "rascad_measures_cache_hits_total 1" in text

    def test_metrics_report_store_health(self):
        responses, _ = call([make_request("GET", "/metrics")])
        status, payload, _ = responses[0]
        assert status == 200
        storage = payload["storage"]
        # The studies store always exists (in-memory when no
        # --cache-dir); every entry is a SqliteStore.health() payload.
        studies = storage["studies"]
        assert studies["schema"] == "studies"
        assert studies["mode"] == "memory"
        assert studies["user_version"] == 1
        assert studies["size_bytes"] > 0
        assert studies["transactions"] >= 0
        assert studies["busy_retries"] == 0

    def test_prometheus_exposes_store_series(self):
        responses, _ = call([
            make_request(
                "GET", "/metrics", query={"format": "prometheus"}
            ),
        ])
        status, text, _ = responses[0]
        assert status == 200
        assert "# TYPE rascad_store_size_bytes gauge" in text
        assert 'rascad_store_user_version{store="studies"} 1' in text
        assert "# TYPE rascad_store_transactions_total counter" in text
        assert 'rascad_store_busy_retries_total{store="studies"} 0' in text

    def test_metrics_prometheus_format(self):
        spec = model_to_spec(workgroup_model())
        responses, _ = call([
            make_request("POST", "/v1/solve", {"spec": spec}),
            make_request(
                "GET", "/metrics", query={"format": "prometheus"}
            ),
        ])
        status, text, response = responses[1]
        assert status == 200
        assert response.content_type.startswith("text/plain")
        assert "rascad_engine_system_solves_total 1" in text
        assert "# TYPE rascad_engine_system_solves_total counter" in text
        assert (
            'rascad_requests_total{route="POST /v1/solve",status="200"} 1'
            in text
        )
        # Latency is a native histogram family, not quantile gauges.
        assert "# TYPE rascad_latency_seconds histogram" in text
        assert (
            'rascad_latency_seconds_bucket{route="POST /v1/solve",le="+Inf"} 1'
            in text
        )
        assert 'rascad_latency_seconds_count{route="POST /v1/solve"} 1' in text
        assert "quantile=" not in text

    def test_render_prometheus_skips_non_numeric(self):
        text = render_prometheus({
            "engine": {"system_solves": 2, "notes": "text"},
            "service": {"uptime_seconds": 1.5},
        })
        assert "rascad_engine_system_solves_total 2" in text
        assert "notes" not in text
        assert "rascad_service_uptime_seconds 1.5" in text
