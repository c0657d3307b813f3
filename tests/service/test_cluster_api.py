"""Cluster endpoints and coordinator sweep fan-out over real sockets."""

import asyncio

from repro.cluster import ClusterConfig
from repro.service import Server, ServiceConfig

from .test_server import http_request, run_with_server

VALUES = [1e5 + 5e4 * i for i in range(12)]
BLOCK = "Workgroup Server/Operating System"


def run_with_fleet(scenario, coordinator_overrides=None):
    """One worker server plus one coordinator server, same loop."""

    async def go():
        worker = Server(ServiceConfig(port=0))
        w_host, w_port = await worker.start()
        overrides = dict(
            cluster=ClusterConfig(
                workers=(f"http://{w_host}:{w_port}",), shard_size=4,
            ),
            **(coordinator_overrides or {}),
        )
        coordinator = Server(ServiceConfig(port=0, **overrides))
        c_host, c_port = await coordinator.start()
        try:
            return await scenario(
                (worker, w_host, w_port),
                (coordinator, c_host, c_port),
            )
        finally:
            await coordinator.shutdown()
            await worker.shutdown()

    return asyncio.run(go())


async def sweep_payload(host, port, **extra):
    status, spec, _ = await http_request(
        host, port, "GET", "/v1/library/workgroup"
    )
    assert status == 200
    payload = {
        "spec": spec, "field": "mtbf_hours", "block": BLOCK,
        "values": VALUES,
    }
    payload.update(extra)
    return payload


class TestDisabled:
    def test_cluster_endpoints_answer_503(self):
        async def scenario(server, host, port):
            results = {}
            for method, path in (
                ("GET", "/v1/cluster/status"),
                ("GET", "/v1/cluster/workers"),
                ("POST", "/v1/cluster/workers"),
            ):
                payload = {"url": "http://x:1"} if method == "POST" else None
                status, body, _ = await http_request(
                    host, port, method, path, payload
                )
                results[(method, path)] = (status, body["error"]["code"])
            return results

        results = run_with_server(scenario)
        assert set(results.values()) == {(503, "cluster_disabled")}

    def test_plain_sweep_still_caps_at_256_values(self):
        async def scenario(server, host, port):
            payload = await sweep_payload(host, port)
            payload["values"] = [1e5 + i for i in range(300)]
            return await http_request(
                host, port, "POST", "/v1/sweep", payload
            )

        status, body, _ = run_with_server(scenario)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"


class TestMembershipApi:
    def test_register_lists_and_heartbeats(self):
        async def scenario(server, host, port):
            status, body, _ = await http_request(
                host, port, "POST", "/v1/cluster/workers",
                {"url": "http://node-1:8100"},
            )
            assert status == 200
            assert body["worker"]["id"] == "node-1:8100"
            assert body["heartbeat_interval"] > 0
            status, listing, _ = await http_request(
                host, port, "GET", "/v1/cluster/workers"
            )
            assert status == 200
            status, cluster_status, _ = await http_request(
                host, port, "GET", "/v1/cluster/status"
            )
            assert status == 200
            return listing, cluster_status

        listing, status_body = run_with_server(
            scenario, ServiceConfig(port=0, cluster=ClusterConfig())
        )
        assert [w["id"] for w in listing["workers"]] == ["node-1:8100"]
        assert status_body["totals"]["jobs_completed"] == 0
        assert status_body["config"]["shard_size"] == 16

    def test_malformed_worker_url_is_400(self):
        async def scenario(server, host, port):
            return await http_request(
                host, port, "POST", "/v1/cluster/workers",
                {"url": "http://"},
            )

        status, body, _ = run_with_server(
            scenario, ServiceConfig(port=0, cluster=ClusterConfig())
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_sweep_with_no_live_workers_is_503(self):
        async def scenario(server, host, port):
            payload = await sweep_payload(host, port)
            return await http_request(
                host, port, "POST", "/v1/sweep", payload
            )

        status, body, _ = run_with_server(
            scenario, ServiceConfig(port=0, cluster=ClusterConfig())
        )
        assert status == 503
        assert body["error"]["code"] == "no_workers"


class TestLedgerPath:
    def test_ledger_never_shares_the_jobs_database_file(self, tmp_path):
        for name, ledger in (
            ("jobs.sqlite3", "cluster.sqlite3"),
            ("cluster.sqlite3", "cluster-ledger.sqlite3"),
        ):
            jobs_db = tmp_path / name / name
            server = Server(ServiceConfig(
                port=0, jobs_db=jobs_db, cluster=ClusterConfig(),
            ))
            try:
                assert server.coordinator.store.path == str(
                    jobs_db.with_name(ledger)
                )
                assert server.jobs.db.path == jobs_db
            finally:
                server.coordinator.store.close()
                server.jobs.close()


class TestFanOut:
    def test_fanned_out_sweep_is_bit_identical_to_the_worker(self):
        async def scenario(worker, coordinator):
            _, w_host, w_port = worker
            _, c_host, c_port = coordinator
            payload = await sweep_payload(w_host, w_port)
            status, direct, _ = await http_request(
                w_host, w_port, "POST", "/v1/sweep", payload
            )
            assert status == 200
            status, fanned, _ = await http_request(
                c_host, c_port, "POST", "/v1/sweep", payload
            )
            assert status == 200
            status, metrics, _ = await http_request(
                c_host, c_port, "GET", "/metrics"
            )
            assert status == 200
            return direct, fanned, metrics

        direct, fanned, metrics = run_with_fleet(scenario)
        assert fanned["result_digest"]
        assert fanned["points"] == direct["points"]  # bit-identical
        assert metrics["cluster"]["totals"]["jobs_completed"] == 1
        assert metrics["cluster"]["totals"]["shards_completed"] == 3
        assert metrics["engine"]["counters"]["cluster_sweeps"] == 1
        workers = metrics["cluster"]["workers"]
        assert sum(w["shards_done"] for w in workers) == 3

    def test_cluster_false_opts_out_of_fan_out(self):
        async def scenario(worker, coordinator):
            _, w_host, w_port = worker
            _, c_host, c_port = coordinator
            payload = await sweep_payload(w_host, w_port, cluster=False)
            status, body, _ = await http_request(
                c_host, c_port, "POST", "/v1/sweep", payload
            )
            assert status == 200
            status, status_body, _ = await http_request(
                c_host, c_port, "GET", "/v1/cluster/status"
            )
            return body, status_body

        body, status_body = run_with_fleet(scenario)
        # Solved locally: jobs-runner shape without a merged digest.
        assert "result_digest" not in body
        assert len(body["points"]) == len(VALUES)
        assert status_body["totals"]["jobs_completed"] == 0

    def test_large_sweeps_are_allowed_only_with_fan_out(self):
        values = [1e5 + 1e3 * i for i in range(300)]

        async def scenario(worker, coordinator):
            _, w_host, w_port = worker
            _, c_host, c_port = coordinator
            payload = await sweep_payload(w_host, w_port)
            payload["values"] = values
            status, fanned, _ = await http_request(
                c_host, c_port, "POST", "/v1/sweep", payload
            )
            assert status == 200
            payload["cluster"] = False
            refused, body, _ = await http_request(
                c_host, c_port, "POST", "/v1/sweep", payload
            )
            return fanned, refused, body

        fanned, refused, body = run_with_fleet(scenario)
        assert len(fanned["points"]) == 300
        assert [p["value"] for p in fanned["points"]] == values
        assert refused == 400
        assert body["error"]["code"] == "invalid_request"
