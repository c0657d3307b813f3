"""End-to-end traces: engine, process pool, and service request paths."""

import asyncio
import json

import pytest

from repro.engine import Engine
from repro.library import workgroup_model
from repro.obs.export import read_spans
from repro.obs.trace import Tracer, configure_tracing, get_tracer, set_tracer
from repro.service.app import App
from repro.service.protocol import Request
from repro.service.queue import SolveQueue
from repro.spec import model_to_spec


@pytest.fixture(autouse=True)
def restore_global_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


def _tree(spans):
    """span_id -> span dict, asserting no dangling parent links."""
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        assert parent is None or parent in by_id, (
            f"span {span['name']} has dangling parent {parent}"
        )
    return by_id


class TestEngineTraces:
    def test_solve_produces_a_parent_linked_tree(self):
        tracer = configure_tracing(detail=True)
        engine = Engine(cache=False)
        engine.solve(workgroup_model())
        spans = tracer.exporter.recent(limit=1000)
        names = {span["name"] for span in spans}
        assert "engine.solve" in names
        assert "engine.block_solve" in names
        by_id = _tree(spans)
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "engine.solve"
        for span in spans:
            if span["name"] == "engine.block_solve":
                assert by_id[span["parent_id"]]["name"] == "engine.solve"

    def test_cache_hits_are_annotated(self):
        tracer = configure_tracing()
        engine = Engine()
        model = workgroup_model()
        engine.solve(model)
        engine.solve(model)
        solves = tracer.exporter.recent(limit=1000, name="engine.solve")
        assert [s["attrs"]["cache"] for s in solves] == ["hit", "miss"]

    def test_disabled_tracing_records_nothing(self):
        tracer = Tracer(enabled=False)
        set_tracer(tracer)
        Engine(cache=False).solve(workgroup_model())
        assert len(tracer.exporter.recent()) == 0

    def test_default_verbosity_omits_block_spans(self):
        """Per-block spans are deep-dive detail, off by default."""
        tracer = configure_tracing()
        Engine(cache=False).solve(workgroup_model())
        names = {s["name"] for s in tracer.exporter.recent(limit=1000)}
        assert "engine.solve" in names
        assert "engine.block_solve" not in names


class TestPoolBoundary:
    def test_worker_spans_come_home_with_parent_links(self):
        """The acceptance shape: spans cross the process pool intact."""
        tracer = configure_tracing(detail=True)
        engine = Engine(jobs=2, cache=False)
        engine.sweep_block_field(
            workgroup_model(),
            "Workgroup Server/Operating System",
            "mtbf_hours",
            [50_000.0, 100_000.0, 150_000.0, 200_000.0],
        )
        spans = tracer.exporter.recent(limit=5000)
        names = {span["name"] for span in spans}
        assert {"engine.batch", "engine.task", "engine.solve"} <= names
        by_id = _tree(spans)
        batch = next(s for s in spans if s["name"] == "engine.batch")
        local_pid = batch["pid"]
        tasks = [s for s in spans if s["name"] == "engine.task"]
        assert tasks, "no worker-side task spans came back"
        for task in tasks:
            assert task["pid"] != local_pid, "task span ran in-process"
            assert task["trace_id"] == batch["trace_id"]
            assert by_id[task["parent_id"]]["name"] == "engine.batch"
        # Worker-side solve spans nest under their task span.
        for span in spans:
            if span["name"] == "engine.solve" and span["pid"] != local_pid:
                assert by_id[span["parent_id"]]["name"] == "engine.task"
        # Detail verbosity crossed the pool via the carrier: worker
        # processes emitted per-block spans too.
        assert any(
            s["name"] == "engine.block_solve" and s["pid"] != local_pid
            for s in spans
        )


class TestServiceTraces:
    def _serve(self, requests, tmp_path):
        configure_tracing(trace_dir=tmp_path, detail=True)

        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            app = App(engine, queue)
            responses = []
            for request in requests:
                responses.append(await app.handle(request))
            await queue.close()
            return responses

        return asyncio.run(go())

    def test_one_solve_exports_one_complete_trace(self, tmp_path):
        spec = model_to_spec(workgroup_model())
        body = json.dumps({"spec": spec}).encode()
        request = Request("POST", "/v1/solve", {}, {}, body)
        response, = self._serve([request], tmp_path)
        assert response.status == 200
        trace_id = response.headers.get("X-Rascad-Trace-Id")
        assert trace_id
        get_tracer().exporter.close()

        spans = read_spans(tmp_path, trace_id=trace_id)
        names = {span["name"] for span in spans}
        assert {
            "service.request", "service.solve",
            "engine.solve", "engine.block_solve", "engine.measures",
        } <= names
        by_id = _tree(spans)
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "service.request"
        solve = next(s for s in spans if s["name"] == "service.solve")
        assert by_id[solve["parent_id"]]["name"] == "service.request"
        solves = [s for s in spans if s["name"] == "engine.solve"]
        assert all(
            by_id[s["parent_id"]]["name"] == "service.solve"
            for s in solves
        )
        measures, = [s for s in spans if s["name"] == "engine.measures"]
        assert by_id[measures["parent_id"]]["name"] == "service.solve"
        assert measures["attrs"]["cache"] == "miss"

    def test_cached_solve_trace_is_one_measures_hit(self, tmp_path):
        body = json.dumps({"spec": model_to_spec(workgroup_model())})
        requests = [
            Request("POST", "/v1/solve", {}, {}, body.encode())
            for _ in range(2)
        ]
        first, second = self._serve(requests, tmp_path)
        assert first.status == second.status == 200
        assert first.body == second.body
        get_tracer().exporter.close()

        spans = read_spans(
            tmp_path, trace_id=second.headers["X-Rascad-Trace-Id"]
        )
        by_id = _tree(spans)
        engine_spans = [
            s for s in spans if s["name"].startswith("engine.")
        ]
        assert [s["name"] for s in engine_spans] == ["engine.measures"]
        assert engine_spans[0]["attrs"]["cache"] == "hit"
        parent = by_id[engine_spans[0]["parent_id"]]
        assert parent["name"] == "service.request"
        assert "service.solve" not in {s["name"] for s in spans}

    def test_deduped_solve_exports_its_own_wait_trace(self, tmp_path):
        configure_tracing(trace_dir=tmp_path, detail=True)
        body = json.dumps({"spec": model_to_spec(workgroup_model())})

        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            app = App(engine, queue)
            responses = await asyncio.gather(*(
                app.handle(
                    Request("POST", "/v1/solve", {}, {}, body.encode())
                )
                for _ in range(2)
            ))
            await queue.close()
            return responses, engine

        (admitted, deduped), engine = asyncio.run(go())
        assert admitted.status == deduped.status == 200
        counters = engine.stats.snapshot().counters
        assert counters["service_dedup_hits"] == 1
        get_tracer().exporter.close()

        traces = {}
        for response in (admitted, deduped):
            spans = read_spans(
                tmp_path, trace_id=response.headers["X-Rascad-Trace-Id"]
            )
            by_id = _tree(spans)
            roots = [s for s in spans if s["parent_id"] is None]
            assert [root["name"] for root in roots] == ["service.request"]
            traces[response is admitted] = (spans, by_id)

        spans, by_id = traces[True]
        solve = next(s for s in spans if s["name"] == "service.solve")
        assert by_id[solve["parent_id"]]["name"] == "service.request"
        assert "service.dedup_wait" not in {s["name"] for s in spans}

        spans, by_id = traces[False]
        wait = next(s for s in spans if s["name"] == "service.dedup_wait")
        assert by_id[wait["parent_id"]]["name"] == "service.request"
        assert not any(
            s["name"] == "service.solve" or s["name"].startswith("engine.")
            for s in spans
        )

    def test_debug_traces_endpoint_serves_the_ring(self, tmp_path):
        spec = model_to_spec(workgroup_model())
        solve = Request(
            "POST", "/v1/solve", {}, {},
            json.dumps({"spec": spec}).encode(),
        )
        debug = Request("GET", "/debug/traces", {}, {}, b"")
        solve_response, debug_response = self._serve(
            [solve, debug], tmp_path
        )
        payload = json.loads(debug_response.body)
        assert debug_response.status == 200
        names = {span["name"] for span in payload["spans"]}
        assert "service.request" in names
        assert payload["dropped"] == 0

    def test_debug_traces_404_when_tracing_is_off(self):
        set_tracer(Tracer(enabled=False))

        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            app = App(engine, queue)
            response = await app.handle(
                Request("GET", "/debug/traces", {}, {}, b"")
            )
            await queue.close()
            return response

        response = asyncio.run(go())
        assert response.status == 404
        assert json.loads(response.body)["error"]["code"] == (
            "tracing_disabled"
        )

    def test_requests_without_tracing_have_no_trace_header(self):
        set_tracer(Tracer(enabled=False))

        async def go():
            engine = Engine()
            queue = SolveQueue(engine)
            app = App(engine, queue)
            spec = model_to_spec(workgroup_model())
            response = await app.handle(Request(
                "POST", "/v1/solve", {}, {},
                json.dumps({"spec": spec}).encode(),
            ))
            await queue.close()
            return response

        response = asyncio.run(go())
        assert response.status == 200
        assert "X-Rascad-Trace-Id" not in response.headers
