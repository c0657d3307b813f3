"""The ``/v1/models`` registry API and ``model_ref`` resolution.

Covers the publish → gate → force → rollback lifecycle over real
sockets, the structured ``not_found`` envelopes, and the bit-identity
guarantee: a ``model_ref`` request produces byte-identical payloads to
the same request with the spec inlined — single-process and through a
two-worker cluster fan-out.
"""

import asyncio
import json

from repro.cluster import ClusterConfig
from repro.library import workgroup_model
from repro.service import Server, ServiceConfig
from repro.spec import model_to_spec

from . import make_request
from .test_app import call
from .test_server import http_request, raw_request, run_with_server

OS = "Operating System"
BLOCK = "Workgroup Server/Operating System"


def workgroup_spec():
    return model_to_spec(workgroup_model())


def degraded_spec():
    spec = workgroup_spec()
    for block in spec["diagram"]["blocks"]:
        if block["name"] == OS:
            block["mtbf_hours"] = 3_000.0
    return spec


class TestSeededRegistry:
    def test_models_index_lists_the_seeded_library(self):
        async def scenario(server, host, port):
            status, body, _ = await http_request(
                host, port, "GET", "/v1/models"
            )
            return status, body

        status, body = run_with_server(scenario)
        assert status == 200
        names = [row["name"] for row in body["models"]]
        assert names == ["datacenter", "e10000", "workgroup"]
        for row in body["models"]:
            assert "latest" in row["tags"]

    def test_library_index_is_a_shim_over_the_registry(self):
        async def scenario(server, host, port):
            status, body, _ = await http_request(
                host, port, "GET", "/v1/library"
            )
            return status, body

        status, body = run_with_server(scenario)
        assert status == 200
        assert body["models"] == ["datacenter", "e10000", "workgroup"]

    def test_library_spec_matches_registry_version(self):
        async def scenario(server, host, port):
            _, spec, _ = await http_request(
                host, port, "GET", "/v1/library/workgroup"
            )
            _, detail, _ = await http_request(
                host, port, "GET", "/v1/models/workgroup"
            )
            digest = detail["model"]["tags"]["latest"]
            _, version, _ = await http_request(
                host, port, "GET",
                f"/v1/models/workgroup/versions/{digest}?include_spec=1",
            )
            return spec, version["version"]["spec"]

        library_spec, registry_spec = run_with_server(scenario)
        assert library_spec == registry_spec


class TestNotFound:
    def test_unknown_library_model_is_structured_404(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "GET", "/v1/library/ghost"
            )

        status, body, _ = run_with_server(scenario)
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "ghost" in body["error"]["message"]

    def test_unknown_registry_model_is_structured_404(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "GET", "/v1/models/ghost"
            )

        status, body, _ = run_with_server(scenario)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_version_is_structured_404(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "GET",
                "/v1/models/workgroup/versions/0123456789abcdef",
            )

        status, body, _ = run_with_server(scenario)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_ref_solve_against_unknown_model_is_404(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "POST", "/v1/solve",
                {"model_ref": "ghost@prod"},
            )

        status, body, _ = run_with_server(scenario)
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestPublishLifecycle:
    def test_publish_gate_force_rollback(self):
        async def scenario(server, host, port):
            out = {}
            # v1 straight to prod: 201, no gate (first holder).
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models",
                {"name": "wg", "spec": workgroup_spec(), "tag": "prod"},
            )
            out["publish"] = (status, body)
            # A degraded v2 to prod: the gate rejects with details.
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models",
                {"name": "wg", "spec": degraded_spec(), "tag": "prod"},
            )
            out["rejected"] = (status, body)
            # force pushes it through, recorded.
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models",
                {
                    "name": "wg", "spec": degraded_spec(),
                    "tag": "prod", "force": True,
                },
            )
            out["forced"] = (status, body)
            # Rollback returns prod to v1.
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models/wg/tags",
                {"tag": "prod", "rollback": True},
            )
            out["rollback"] = (status, body)
            status, body, _ = await http_request(
                host, port, "GET", "/v1/models/wg"
            )
            out["detail"] = (status, body)
            return out

        out = run_with_server(scenario)
        status, body = out["publish"]
        assert status == 201
        assert body["created"] is True
        v1_digest = body["version"]["digest"]

        status, body = out["rejected"]
        assert status == 409
        assert body["error"]["code"] == "regression_detected"
        details = body["error"]["details"]
        assert details["baseline_digest"] == v1_digest
        assert details["downtime_delta_minutes"] > 1.0

        status, body = out["forced"]
        assert status == 200  # version row was created by the
        assert body["gate"]["forced"] is True  # rejected publish

        status, body = out["rollback"]
        assert status == 200
        assert body["digest"] == v1_digest

        status, body = out["detail"]
        assert body["model"]["tags"]["prod"] == v1_digest
        assert len(body["model"]["versions"]) == 2

    def test_tag_move_by_digest_prefix(self):
        async def scenario(server, host, port):
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models",
                {"name": "wg", "spec": workgroup_spec()},
            )
            digest = body["version"]["digest"]
            status, body, _ = await http_request(
                host, port, "POST", "/v1/models/wg/tags",
                {"tag": "staging", "digest": digest[:12]},
            )
            return status, body, digest

        status, body, digest = run_with_server(scenario)
        assert status == 200
        assert body["digest"] == digest
        assert body["previous"] is None

    def test_registry_metrics_sections(self):
        async def scenario(server, host, port):
            status, metrics, _ = await http_request(
                host, port, "GET", "/metrics"
            )
            _, prometheus, _ = await raw_request(
                host, port, "GET", "/metrics?format=prometheus"
            )
            return metrics, prometheus.decode()

        metrics, prometheus = run_with_server(scenario)
        assert metrics["registry"] == {
            "models": 3, "versions": 3, "tags": 3,
        }
        assert "rascad_registry_models 3" in prometheus
        assert "rascad_registry_versions 3" in prometheus


class TestRefResolution:
    def test_ref_solve_is_byte_identical_to_inline(self):
        async def scenario(server, host, port):
            _, spec, _ = await http_request(
                host, port, "GET", "/v1/library/workgroup"
            )
            status_inline, inline, _ = await raw_request(
                host, port, "POST", "/v1/solve", {"spec": spec}
            )
            status_ref, ref, _ = await raw_request(
                host, port, "POST", "/v1/solve",
                {"model_ref": "workgroup@latest"},
            )
            status_bare, bare, _ = await raw_request(
                host, port, "POST", "/v1/solve",
                {"model_ref": "workgroup"},
            )
            return (status_inline, inline), (status_ref, ref), (
                status_bare, bare,
            )

        inline, ref, bare = run_with_server(scenario)
        assert inline[0] == ref[0] == bare[0] == 200
        assert inline[1] == ref[1] == bare[1]

    def test_publish_warms_the_measures_the_ref_solve_reads(self):
        async def scenario(server, host, port):
            status, _, _ = await http_request(
                host, port, "POST", "/v1/models",
                {"name": "wg", "spec": workgroup_spec(), "tag": "prod"},
            )
            assert status == 201
            published = server.engine.stats_snapshot().counters
            status_ref, ref, _ = await raw_request(
                host, port, "POST", "/v1/solve", {"model_ref": "wg@prod"}
            )
            status_inline, inline, _ = await raw_request(
                host, port, "POST", "/v1/solve",
                {"spec": workgroup_spec()},
            )
            served = server.engine.stats_snapshot().counters
            return published, (status_ref, ref), (
                status_inline, inline,
            ), served

        published, ref, inline, served = run_with_server(scenario)
        assert published["measures_computed"] == 1
        assert ref[0] == inline[0] == 200
        assert ref[1] == inline[1]
        assert served["measures_computed"] == 1
        assert served["measures_cache_hits"] == 2

    def test_ref_sweep_200_points_is_byte_identical(self):
        values = [1e5 + 4.5e3 * i for i in range(200)]

        async def scenario(server, host, port):
            _, spec, _ = await http_request(
                host, port, "GET", "/v1/library/workgroup"
            )
            base = {
                "field": "mtbf_hours", "block": BLOCK, "values": values,
            }
            status_inline, inline, _ = await raw_request(
                host, port, "POST", "/v1/sweep",
                {**base, "spec": spec},
            )
            status_ref, ref, _ = await raw_request(
                host, port, "POST", "/v1/sweep",
                {**base, "model_ref": "workgroup@latest"},
            )
            return (status_inline, inline), (status_ref, ref)

        inline, ref = run_with_server(scenario)
        assert inline[0] == ref[0] == 200
        assert inline[1] == ref[1]
        assert len(json.loads(inline[1])["points"]) == 200

    def test_spec_and_ref_together_is_400(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "POST", "/v1/solve",
                {
                    "spec": workgroup_spec(),
                    "model_ref": "workgroup",
                },
            )

        status, body, _ = run_with_server(scenario)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_malformed_ref_is_400_invalid_ref(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "POST", "/v1/solve",
                {"model_ref": "no spaces@prod"},
            )

        status, body, _ = run_with_server(scenario)
        assert status == 400
        assert body["error"]["code"] == "invalid_ref"

    def test_job_submission_accepts_a_ref(self, tmp_path):
        config = ServiceConfig(
            port=0, jobs_db=tmp_path / "jobs.sqlite3"
        )

        async def scenario(server, host, port):
            status, body, _ = await http_request(
                host, port, "POST", "/v1/jobs",
                {
                    "kind": "sweep",
                    "model_ref": "workgroup@latest",
                    "params": {
                        "field": "mtbf_hours", "block": BLOCK,
                        "values": [1e5, 2e5],
                    },
                },
            )
            job_id = body["job"]["id"]
            _, item, _ = await http_request(
                host, port, "GET",
                f"/v1/jobs/{job_id}?include_spec=1",
            )
            _, spec, _ = await http_request(
                host, port, "GET", "/v1/library/workgroup"
            )
            return status, item["job"]["spec"]["spec"], spec

        status, job_spec, library_spec = run_with_server(
            scenario, config
        )
        assert status == 202
        # The job stored the resolved document, not the ref.
        assert job_spec == library_spec


class TestClusterRefIdentity:
    def test_ref_sweep_through_two_workers_matches_inline(self):
        values = [1e5 + 2.5e4 * i for i in range(24)]

        async def go():
            workers = []
            urls = []
            for _ in range(2):
                worker = Server(ServiceConfig(port=0))
                w_host, w_port = await worker.start()
                workers.append(worker)
                urls.append(f"http://{w_host}:{w_port}")
            coordinator = Server(ServiceConfig(
                port=0,
                cluster=ClusterConfig(workers=tuple(urls), shard_size=4),
            ))
            host, port = await coordinator.start()
            try:
                _, spec, _ = await http_request(
                    host, port, "GET", "/v1/library/workgroup"
                )
                base = {
                    "field": "mtbf_hours", "block": BLOCK,
                    "values": values,
                }
                status_inline, inline, _ = await raw_request(
                    host, port, "POST", "/v1/sweep",
                    {**base, "spec": spec},
                )
                status_ref, ref, _ = await raw_request(
                    host, port, "POST", "/v1/sweep",
                    {**base, "model_ref": "workgroup@latest"},
                )
                return (status_inline, inline), (status_ref, ref)
            finally:
                await coordinator.shutdown()
                for worker in workers:
                    await worker.shutdown()

        inline, ref = asyncio.run(go())
        assert inline[0] == ref[0] == 200
        assert inline[1] == ref[1]
        merged = json.loads(ref[1])
        assert len(merged["points"]) == 24
        assert merged["result_digest"] == (
            json.loads(inline[1])["result_digest"]
        )


class TestDisabledRegistry:
    def test_bare_app_answers_503_registry_disabled(self):
        requests = [
            make_request("GET", "/v1/models"),
            make_request("POST", "/v1/models", {"name": "x", "spec": {}}),
            make_request("GET", "/v1/models/wg"),
            make_request(
                "POST", "/v1/solve", {"model_ref": "workgroup"}
            ),
        ]
        responses, _ = call(requests)
        for status, payload, _ in responses:
            assert status == 503
            assert payload["error"]["code"] == "registry_disabled"

    def test_bare_app_library_falls_back_to_factories(self):
        responses, _ = call([
            make_request("GET", "/v1/library"),
            make_request("GET", "/v1/library/ghost"),
        ])
        status, payload, _ = responses[0]
        assert status == 200
        assert payload["models"] == ["datacenter", "e10000", "workgroup"]
        status, payload, _ = responses[1]
        assert status == 404
        assert payload["error"]["code"] == "not_found"
