"""E10 — the model-serving layer under closed-loop load.

Stands up a real :class:`repro.service.Server` on an ephemeral port and
drives it with concurrent closed-loop clients (each client issues its
next request only after the previous one completes).  The workload is
deliberately mixed: half the requests post the *identical* E10000 spec
(exercising content-digest deduplication and the engine's system
cache), half post per-client distinct variants (exercising admission
and concurrent distinct solves).  Reported numbers are throughput (req/s), p95
latency, and the dedup ratio — the fraction of solve requests that
never cost an engine solve.  The headline claims: every response is
bit-identical to the CLI path, the mixed load needs far fewer engine
solves than it has requests, and the measure set is computed exactly
once per distinct spec — every other request reads it from the
engine's measures cache.

Results are also recorded in ``BENCH_e10_service.json`` at the
repository root so the serving numbers travel with the code.
"""

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core import translate
from repro.library import e10000_model
from repro.service import Server, ServiceConfig
from repro.service.client import call

from ._report import emit_table

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e10_service.json"

CLIENTS = 8
REQUESTS_PER_CLIENT = 16


def _get(url):
    """A ``GET`` that must answer 200; its JSON body."""
    reply = call("GET", url, timeout=None)
    assert reply.status == 200
    return reply.json()


def _variant(spec, client):
    """A per-client distinct spec (different reboot time)."""
    changed = json.loads(json.dumps(spec))
    changed.setdefault("globals", {})["reboot_minutes"] = 6.0 + client / 9.0
    return changed


def _closed_loop(url, spec, client, latencies):
    """One client: alternate identical and distinct specs, serially."""
    statuses = []
    for index in range(REQUESTS_PER_CLIENT):
        payload = (
            {"spec": spec}
            if index % 2 == 0
            else {"spec": _variant(spec, client)}
        )
        start = time.perf_counter()
        reply = call("POST", f"{url}/v1/solve", payload, timeout=None)
        latencies.append(time.perf_counter() - start)
        statuses.append(reply.status)
        if index % 2 == 0 and reply.status == 200:
            assert reply.json()["availability"] == EXPECTED_AVAILABILITY
    return statuses


def _run_load():
    async def go():
        server = Server(ServiceConfig(port=0, max_queue=256))
        host, port = await server.start()
        url = f"http://{host}:{port}"
        loop = asyncio.get_running_loop()
        # One thread per closed-loop client: the default executor holds
        # min(32, cpus + 4) threads, which would cap the load on small
        # machines.
        pool = ThreadPoolExecutor(max_workers=CLIENTS)
        try:
            spec = await loop.run_in_executor(
                pool, _get, f"{url}/v1/library/e10000"
            )
            latencies = []
            start = time.perf_counter()
            statuses = await asyncio.gather(*(
                loop.run_in_executor(
                    pool, _closed_loop, url, spec, client, latencies
                )
                for client in range(CLIENTS)
            ))
            wall = time.perf_counter() - start
            metrics = await loop.run_in_executor(
                pool, _get, f"{url}/metrics"
            )
            return statuses, latencies, wall, metrics
        finally:
            # Shut the server first, so a client thread still waiting on
            # an answer sees its connection close instead of hanging.
            await server.shutdown()
            pool.shutdown()

    return asyncio.run(go())


EXPECTED_AVAILABILITY = translate(e10000_model()).availability


def bench_e10_service_closed_loop(benchmark):
    statuses, latencies, wall, metrics = benchmark.pedantic(
        _run_load, rounds=3, iterations=1
    )

    flat = [status for client in statuses for status in client]
    total = len(flat)
    assert total == CLIENTS * REQUESTS_PER_CLIENT
    assert all(status == 200 for status in flat), flat

    engine = metrics["engine"]
    solves = engine["system_solves"]
    dedup_hits = engine["counters"].get("service_dedup_hits", 0)
    # The mixed load has 8 distinct variants + 1 shared spec = at most
    # 9 distinct solves; everything else rode a dedup or cache hit.
    assert solves <= CLIENTS + 1
    dedup_ratio = 1.0 - solves / total
    # The measure set is a pure function of (digest, solver, mission,
    # grid): exactly one computation per distinct spec, however the
    # concurrent requests interleave.
    measures_computed = engine["counters"]["measures_computed"]
    measures_hits = engine["counters"]["measures_cache_hits"]
    assert measures_computed == CLIENTS + 1, measures_computed

    ordered = sorted(latencies)
    p50 = ordered[int(0.50 * (len(ordered) - 1))]
    p95 = ordered[int(0.95 * (len(ordered) - 1))]
    throughput = total / wall

    emit_table(
        "E10: serving layer, closed-loop mixed load "
        f"({CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, E10000)",
        ["metric", "value"],
        [
            ["requests", f"{total} (all 200)"],
            ["throughput", f"{throughput:.1f} req/s"],
            ["latency p50", f"{p50 * 1e3:.1f} ms"],
            ["latency p95", f"{p95 * 1e3:.1f} ms"],
            ["engine solves", f"{solves} of {total} requests"],
            ["dedup ratio", f"{dedup_ratio:.1%}"],
            ["in-flight dedup hits", str(dedup_hits)],
            ["measure sets computed", f"{measures_computed} of {total}"],
            ["measures cache hits", str(measures_hits)],
        ],
    )

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "e10_service_closed_loop",
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "requests_total": total,
        "throughput_rps": round(throughput, 2),
        "latency_p50_ms": round(p50 * 1e3, 3),
        "latency_p95_ms": round(p95 * 1e3, 3),
        "engine_solves": solves,
        "dedup_ratio": round(dedup_ratio, 4),
        "inflight_dedup_hits": dedup_hits,
        "measures_computed": measures_computed,
        "measures_cache_hits": measures_hits,
        "availability": EXPECTED_AVAILABILITY,
    }, indent=2, sort_keys=True) + "\n")
