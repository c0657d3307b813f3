"""Nothing a request waits on may stall the server's event loop.

Each test wedges one stage of a request — a solve stage, a registry
read, the telemetry hub's lock — on a :class:`threading.Event` and,
from a separate client thread, requires ``/healthz`` (and, where
relevant, a cached solve of another spec) to answer within a second
while the wedged request is still stuck.  A stage that ran on the
event loop would freeze every connection and fail the probe.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.engine import engine as engine_module
from repro.library import e10000_model, workgroup_model
from repro.registry import ModelRegistry
from repro.service.client import call
from repro.spec import model_to_spec

from .test_server import http_request, run_with_server

#: How long a probe may take while the other request is wedged.
PROBE_BOUND = 1.0


def _timed_call(url, method, path, payload=None):
    """``(status or the exception's name, body, seconds)``; never raises."""
    start = time.monotonic()
    try:
        reply = call(method, f"{url}{path}", payload, timeout=PROBE_BOUND)
        outcome, body = reply.status, reply.body
    except Exception as error:  # noqa: BLE001 - the probe reports it
        outcome, body = type(error).__name__, b""
    return outcome, body, time.monotonic() - start


def _probe_while_wedged(entered, release, probes):
    """Once the wedged stage is entered, run ``probes``; then release.

    Runs on its own thread, so it still probes when the server's loop
    is the thing that is stuck.
    """
    try:
        if not entered.wait(timeout=10.0):
            return "the wedged stage was never entered"
        return [probe() for probe in probes]
    finally:
        release.set()


def _wedge_resolve_spec(monkeypatch):
    """``(entered, release)`` around a ``resolve_spec`` that waits."""
    entered = threading.Event()
    release = threading.Event()
    resolve_spec = ModelRegistry.resolve_spec

    def blocked_resolve_spec(self, ref):
        entered.set()
        release.wait(timeout=10.0)
        return resolve_spec(self, ref)

    monkeypatch.setattr(ModelRegistry, "resolve_spec", blocked_resolve_spec)
    return entered, release


class TestRegistryResolveOffTheLoop:
    def test_healthz_answers_while_resolve_spec_is_blocked(
        self, monkeypatch
    ):
        entered, release = _wedge_resolve_spec(monkeypatch)

        async def scenario(server, host, port):
            url = f"http://{host}:{port}"
            solve = asyncio.ensure_future(http_request(
                host, port, "POST", "/v1/solve",
                {"model_ref": "workgroup"},
            ))
            probes = await asyncio.to_thread(
                _probe_while_wedged, entered, release,
                [lambda: _timed_call(url, "GET", "/healthz")],
            )
            status, body, _ = await solve
            return probes, status, body

        probes, status, body = run_with_server(scenario)
        (health, _, seconds), = probes
        assert health == 200, health
        assert seconds < PROBE_BOUND
        assert status == 200
        assert body["model"] == workgroup_model().name


class TestMeasuresMissOffTheLoop:
    def test_slow_measures_do_not_stall_health_or_cached_solves(
        self, monkeypatch
    ):
        entered = threading.Event()
        release = threading.Event()
        compute_measures = engine_module.compute_measures
        slow_name = e10000_model().name

        def slow_compute_measures(solution, *args, **kwargs):
            if solution.model.name == slow_name:
                entered.set()
                release.wait(timeout=10.0)
            return compute_measures(solution, *args, **kwargs)

        monkeypatch.setattr(
            engine_module, "compute_measures", slow_compute_measures
        )
        cached_spec = model_to_spec(workgroup_model())

        async def scenario(server, host, port):
            url = f"http://{host}:{port}"
            status, warm, _ = await http_request(
                host, port, "POST", "/v1/solve", {"spec": cached_spec}
            )
            assert status == 200
            slow = asyncio.ensure_future(http_request(
                host, port, "POST", "/v1/solve",
                {"spec": model_to_spec(e10000_model())},
            ))
            probes = await asyncio.to_thread(
                _probe_while_wedged, entered, release, [
                    lambda: _timed_call(url, "GET", "/healthz"),
                    lambda: _timed_call(
                        url, "POST", "/v1/solve", {"spec": cached_spec}
                    ),
                ],
            )
            status, slow_body, _ = await slow
            return warm, probes, status, slow_body, server.engine

        warm, probes, status, slow_body, engine = run_with_server(scenario)
        (health, _, health_s), (cached, cached_body, cached_s) = probes
        assert health == 200, health
        assert health_s < PROBE_BOUND
        assert cached == 200, cached
        assert cached_s < PROBE_BOUND
        assert json.loads(cached_body) == warm
        assert status == 200
        assert slow_body["model"] == slow_name
        counters = engine.stats.snapshot().counters
        assert counters["measures_computed"] == 2
        assert counters["measures_cache_hits"] == 1


def _wedged_request_and_health(wedge, method, path, payload=None):
    """Send one request that wedges, probe ``/healthz``, then release.

    ``wedge(server)`` installs the wedge once the server is up and
    returns its ``(entered, release)`` events.  Returns ``(health
    status, probe seconds, wedged request's status)``.
    """

    async def scenario(server, host, port):
        entered, release = wedge(server)
        url = f"http://{host}:{port}"
        wedged = asyncio.ensure_future(
            http_request(host, port, method, path, payload)
        )
        probes = await asyncio.to_thread(
            _probe_while_wedged, entered, release,
            [lambda: _timed_call(url, "GET", "/healthz")],
        )
        status, _, _ = await wedged
        return probes, status

    probes, status = run_with_server(scenario)
    (health, _, seconds), = probes
    return health, seconds, status


class _HeldLock:
    """Stands in for a lock another thread holds until ``release``.

    Taking it flags ``entered`` and then waits, as a request does when
    an ingest holds the hub's lock across its SQLite save.
    """

    def __init__(self, entered, release):
        self.entered = entered
        self.release = release
        self.lock = threading.Lock()

    def __enter__(self):
        self.entered.set()
        self.release.wait(timeout=10.0)
        self.lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self.lock.release()


class TestStoreReadsOffTheLoop:
    def test_model_ref_study_submit_resolves_off_the_loop(
        self, monkeypatch
    ):
        events = _wedge_resolve_spec(monkeypatch)
        payload = {
            "model_ref": "workgroup",
            "name": "wg-study",
            "variables": [{
                "path": "Workgroup Server/Fan",
                "field": "quantity",
                "values": [2, 3],
            }],
            "strategy": "grid",
        }
        health, seconds, status = _wedged_request_and_health(
            lambda server: events, "POST", "/v1/studies", payload
        )
        assert health == 200, health
        assert seconds < PROBE_BOUND
        assert status == 201

    def test_library_spec_resolves_off_the_loop(self, monkeypatch):
        events = _wedge_resolve_spec(monkeypatch)
        health, seconds, status = _wedged_request_and_health(
            lambda server: events, "GET", "/v1/library/e10000"
        )
        assert health == 200, health
        assert seconds < PROBE_BOUND
        assert status == 200

    @pytest.mark.parametrize(
        "path, expected",
        [("/v1/calibration/proposal", 404), ("/metrics", 200)],
    )
    def test_held_hub_lock_does_not_stall_the_loop(self, path, expected):
        def hold_hub_lock(server):
            entered, release = threading.Event(), threading.Event()
            server.telemetry._lock = _HeldLock(entered, release)
            return entered, release

        health, seconds, status = _wedged_request_and_health(
            hold_hub_lock, "GET", path
        )
        assert health == 200, health
        assert seconds < PROBE_BOUND
        assert status == expected
