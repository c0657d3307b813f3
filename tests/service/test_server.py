"""End-to-end server tests over real sockets.

Each test stands up a :class:`repro.service.Server` on an ephemeral
port inside one event loop, drives it with a raw asyncio HTTP client,
and asserts the paper-shaped guarantees: results bit-identical to the
CLI path, one engine solve under a 64-client identical load, 429 on a
full queue, and a drain-then-persist shutdown.
"""

import asyncio
import json
import time

import pytest

from repro.cluster import ClusterConfig
from repro.core import translate
from repro.errors import StoreError
from repro.engine import load_stats
from repro.library import datacenter_model, e10000_model, workgroup_model
from repro.service import Server, ServiceConfig


async def raw_request(host, port, method, path, payload=None):
    """One request on a fresh connection; returns (status, body, headers).

    Raw sockets on purpose: these tests exercise the server's own HTTP
    parsing, so the client side stays hand-written.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: test\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.readuntil(b"\r\n\r\n")
        status = int(raw.split(b" ", 2)[1])
        headers = {}
        for line in raw.decode().split("\r\n")[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await reader.readexactly(length) if length else b""
        return status, data, headers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def http_request(host, port, method, path, payload=None):
    """Like :func:`raw_request`, with the body parsed as JSON."""
    status, data, headers = await raw_request(
        host, port, method, path, payload
    )
    return status, json.loads(data) if data else None, headers


def run_with_server(scenario, config=None):
    """Start a server, run the scenario coroutine, shut down cleanly."""

    async def go():
        server = Server(config or ServiceConfig(port=0))
        host, port = await server.start()
        try:
            return await scenario(server, host, port)
        finally:
            await server.shutdown()

    return asyncio.run(go())


class TestSolveParity:
    def test_every_library_model_matches_the_cli_path(self):
        factories = {
            "datacenter": datacenter_model,
            "e10000": e10000_model,
            "workgroup": workgroup_model,
        }

        async def scenario(server, host, port):
            observed = {}
            for name in factories:
                status, spec, _ = await http_request(
                    host, port, "GET", f"/v1/library/{name}"
                )
                assert status == 200
                status, result, _ = await http_request(
                    host, port, "POST", "/v1/solve", {"spec": spec}
                )
                assert status == 200
                observed[name] = result["availability"]
            return observed

        observed = run_with_server(scenario)
        for name, factory in factories.items():
            expected = translate(factory()).availability
            assert observed[name] == expected  # bit-identical floats


class TestDedupUnderLoad:
    def test_64_identical_clients_cost_one_engine_solve(self):
        async def scenario(server, host, port):
            status, spec, _ = await http_request(
                host, port, "GET", "/v1/library/e10000"
            )
            assert status == 200
            results = await asyncio.gather(*(
                http_request(
                    host, port, "POST", "/v1/solve", {"spec": spec}
                )
                for _ in range(64)
            ))
            status, metrics, _ = await http_request(
                host, port, "GET", "/metrics"
            )
            return results, metrics

        results, metrics = run_with_server(
            scenario,
            ServiceConfig(port=0, max_queue=128),
        )
        statuses = [status for status, _, _ in results]
        availabilities = {body["availability"] for _, body, _ in results}
        assert statuses == [200] * 64
        assert len(availabilities) == 1
        engine = metrics["engine"]
        # The dedup guarantee: one solve total, every other request
        # either joined the in-flight future or hit the system cache.
        assert engine["system_solves"] == 1
        dedup = engine["counters"].get("service_dedup_hits", 0)
        assert dedup + engine["system_cache_hits"] == 63


class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self):
        async def scenario(server, host, port):
            # Saturate the two admission slots faster than the solves
            # drain them: distinct specs so dedup cannot absorb them.
            base_status, spec, _ = await http_request(
                host, port, "GET", "/v1/library/datacenter"
            )
            assert base_status == 200

            def variant(index):
                changed = json.loads(json.dumps(spec))
                changed.setdefault("globals", {})["reboot_minutes"] = (
                    5.0 + index / 7.0
                )
                return changed

            results = await asyncio.gather(*(
                http_request(
                    host, port, "POST", "/v1/solve",
                    {"spec": variant(index)},
                )
                for index in range(24)
            ))
            return results

        results = run_with_server(
            scenario,
            ServiceConfig(port=0, max_queue=2),
        )
        statuses = sorted(status for status, _, _ in results)
        assert statuses.count(429) >= 1, statuses
        rejected = next(r for r in results if r[0] == 429)
        assert rejected[1]["error"]["code"] == "queue_full"
        assert int(rejected[2]["retry-after"]) >= 1
        assert statuses.count(200) >= 2  # admitted work still finishes


class TestShutdown:
    def test_shutdown_drains_and_persists_stats(self, tmp_path):
        cache_dir = tmp_path / "cache"

        async def scenario(server, host, port):
            status, spec, _ = await http_request(
                host, port, "GET", "/v1/library/workgroup"
            )
            status, result, _ = await http_request(
                host, port, "POST", "/v1/solve", {"spec": spec}
            )
            assert status == 200
            server.request_shutdown()
            await server.serve_until_shutdown()
            return result

        run_with_server(
            scenario, ServiceConfig(port=0, cache_dir=cache_dir)
        )
        stats = load_stats(cache_dir)
        assert stats is not None
        assert stats.system_solves == 1
        assert stats.route_counts["POST /v1/solve 200"] == 1
        assert (cache_dir / "blocks").exists()  # shared with CLI runs

    def test_shutdown_closes_idle_keep_alive_connections(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = next(
                int(line.split(b":", 1)[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
            await reader.readexactly(length)
            # The connection is now idle and kept alive.
            await server.shutdown()
            rest = await asyncio.wait_for(reader.read(), timeout=2.0)
            writer.close()
            # No handler is left for asyncio.run to cancel at exit.
            return rest, asyncio.all_tasks() == {asyncio.current_task()}

        rest, only_this_task = run_with_server(scenario)
        assert rest == b""
        assert only_this_task

    @pytest.mark.parametrize("persistent", [True, False])
    def test_shutdown_closes_every_store(self, tmp_path, persistent):
        config = ServiceConfig(
            port=0,
            cache_dir=tmp_path / "cache" if persistent else None,
            cluster=ClusterConfig(),
        )

        async def scenario(server, host, port):
            await server.shutdown()
            return [
                store.db
                for store in (
                    server.jobs,
                    server.coordinator.store,
                    server.registry.store,
                    server.studies,
                    server.telemetry,
                )
                if store is not None
            ]

        stores = run_with_server(scenario, config)
        assert len(stores) == (5 if persistent else 4)
        for store in stores:
            with pytest.raises(StoreError):
                with store.connection():
                    pass

    def test_closed_server_refuses_new_connections(self):
        async def scenario(server, host, port):
            await server.shutdown()
            try:
                await asyncio.wait_for(
                    http_request(host, port, "GET", "/healthz"),
                    timeout=1.0,
                )
            except (ConnectionError, asyncio.TimeoutError, OSError):
                return True
            return False

        assert run_with_server(scenario)


class TestEmbedding:
    def test_server_built_outside_the_loop_serves_via_asyncio_run(self):
        # The natural embedding pattern: construct Server at module
        # scope (no running loop), then hand it to asyncio.run.  On
        # Python 3.9 an eagerly-created asyncio.Event would bind the
        # wrong loop here.
        server = Server(ServiceConfig(port=0))

        async def go():
            host, port = await server.start()
            status, payload, _ = await http_request(
                host, port, "GET", "/healthz"
            )
            server.request_shutdown()
            await server.serve_until_shutdown()
            return status, payload

        status, payload = asyncio.run(go())
        assert status == 200
        assert payload["status"] == "ok"


class TestWarmStart:
    def test_warm_start_presolves_the_library(self):
        async def scenario(server, host, port):
            status, metrics, _ = await http_request(
                host, port, "GET", "/metrics"
            )
            return metrics

        metrics = run_with_server(
            scenario, ServiceConfig(port=0, warm_start=True)
        )
        engine = metrics["engine"]
        assert engine["counters"]["service_warm_started"] == 3
        assert engine["system_solves"] == 3

    def test_warm_start_makes_library_solves_cache_hits(self):
        async def scenario(server, host, port):
            status, spec, _ = await http_request(
                host, port, "GET", "/v1/library/e10000"
            )
            start = time.perf_counter()
            status, result, _ = await http_request(
                host, port, "POST", "/v1/solve", {"spec": spec}
            )
            elapsed = time.perf_counter() - start
            assert status == 200
            status, metrics, _ = await http_request(
                host, port, "GET", "/metrics"
            )
            return metrics, elapsed

        metrics, _ = run_with_server(
            scenario, ServiceConfig(port=0, warm_start=True)
        )
        assert metrics["engine"]["system_cache_hits"] >= 1
