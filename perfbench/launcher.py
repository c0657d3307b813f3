"""Run ``rascad serve`` with timers around each layer's public functions.

Usage::

    python perfbench/launcher.py SPANS_OUT serve --port 0 ...

The launcher imports :mod:`repro`, replaces the functions listed in
:data:`TARGETS` with timing wrappers (every module that imported a
function by name gets the wrapper too), then runs the CLI with the
remaining arguments.  Spans stay in memory and are written to
``SPANS_OUT`` as JSON after the server has shut down.  Nothing under
``src/`` changes.

Each span records ``(span_id, parent_id, request_id, name, start, end,
attr)``.  The parent is the innermost wrapped call active in the same
context; ``asyncio.to_thread`` copies the context, so work a handler
pushes onto a thread still nests under it.  The solve queue's batcher
runs engine solves outside the request's context, so those are
parented through the model object the request submitted.

A request id is assigned when the protocol layer starts parsing a
request head; ``protocol.read`` runs from there to the end of the body
read, so idle keep-alive time before the next request is not counted.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_request: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_request", default=None
)
_read_start: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "perfbench_read_start", default=None
)


def _request_path(args, _result) -> str:
    return args[1].path


def _body_length(args, _result) -> int:
    return len(args[0].body)


def _encoded_length(_args, result) -> int:
    return len(result)


def _n_states(_args, result) -> int:
    return result.n_states


#: (module, attribute, span name, attribute extractor or None).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.app", "App.handle", "app.handle", _request_path),
    ("repro.service.protocol", "Request.json", "app.decode", _body_length),
    ("repro.service.protocol", "Response.encode", "protocol.encode",
     _encoded_length),
    ("repro.service.queue", "SolveQueue.solve", "queue.solve", None),
    ("repro.registry.registry", "ModelRegistry.resolve_spec",
     "registry.resolve", None),
    ("repro.spec.parser", "parse_spec", "spec.parse", None),
    ("repro.engine.engine", "Engine.solve", "engine.solve", None),
    ("repro.engine.engine", "Engine.sweep_block_field", "engine.sweep", None),
    ("repro.core.generator", "generate_block_chain", "generator.chain",
     _n_states),
    ("repro.core.measures", "compute_measures", "measures.compute", None),
    ("repro.num.backends", "solve_steady", "num.steady", None),
    ("repro.store.core", "SqliteStore.transaction", "store.txn", None),
    ("repro.store.core", "SqliteStore.connection", "store.conn", None),
    ("repro.telemetry.hub", "TelemetryHub.ingest", "telemetry.ingest", None),
    ("repro.telemetry.estimator", "RateEstimator.ingest_many",
     "telemetry.apply", None),
    ("repro.telemetry.hub", "TelemetryHub.save", "telemetry.save", None),
    ("repro.telemetry.estimator", "RateEstimator.state_digest",
     "telemetry.digest", None),
)


#: Targets that are ``contextlib.contextmanager`` functions; their span
#: covers the ``with`` block, not just the call.
CONTEXT_MANAGERS = frozenset(("store.txn", "store.conn"))


class Recorder:
    """In-memory span sink shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        #: id(model) -> (span id, request id) of the queue.solve call
        #: that submitted it, for solves the batcher runs elsewhere.
        self.submitted: Dict[int, Tuple[int, Optional[int]]] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def begin(self, parent_hint=None):
        parent = _current.get()
        request = _request.get()
        if parent is None and parent_hint is not None:
            parent, request = parent_hint
        span_id = self.next_id()
        token = _current.set(span_id)
        return span_id, parent, request, token, time.perf_counter()

    def end(self, opened, name, attr=None) -> None:
        end = time.perf_counter()
        span_id, parent, request, token, start = opened
        _current.reset(token)
        self.spans.append((span_id, parent, request, name, start, end, attr))

    def wrap(self, function, name, extract):
        recorder = self

        def attr_of(args, result):
            if extract is None or result is None:
                return None
            try:
                return extract(args, result)
            except (AttributeError, IndexError, TypeError):
                return None

        if name == "queue.solve":
            @functools.wraps(function)
            async def queue_solve(*args, **kwargs):
                opened = recorder.begin()
                model = args[1] if len(args) > 1 else kwargs["model"]
                recorder.submitted[id(model)] = (opened[0], opened[2])
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder.submitted.pop(id(model), None)
                    recorder.end(opened, name)
            return queue_solve

        if name == "engine.solve":
            @functools.wraps(function)
            def engine_solve(*args, **kwargs):
                model = args[1] if len(args) > 1 else kwargs["model"]
                opened = recorder.begin(recorder.submitted.get(id(model)))
                try:
                    return function(*args, **kwargs)
                finally:
                    recorder.end(opened, name)
            return engine_solve

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                opened = recorder.begin()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    recorder.end(opened, name, attr_of(args, result))
            return async_wrapper

        if name in CONTEXT_MANAGERS:
            @functools.wraps(function)
            @contextlib.contextmanager
            def cm_wrapper(*args, **kwargs):
                opened = recorder.begin()
                try:
                    with function(*args, **kwargs) as value:
                        yield value
                finally:
                    recorder.end(opened, name)
            return cm_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            opened = recorder.begin()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                recorder.end(opened, name, attr_of(args, result))
        return wrapper

    def wrap_protocol_read(self, protocol) -> None:
        """``protocol.read``: head parse start to end of the body read."""
        recorder = self
        parse_head = protocol._parse_head
        read_request = protocol.read_request

        @functools.wraps(parse_head)
        def timed_parse_head(head):
            _request.set(recorder.next_id())
            _read_start.set(time.perf_counter())
            return parse_head(head)

        @functools.wraps(read_request)
        async def timed_read_request(*args, **kwargs):
            request = await read_request(*args, **kwargs)
            start = _read_start.get()
            if request is not None and start is not None:
                recorder.spans.append((
                    recorder.next_id(), None, _request.get(),
                    "protocol.read", start, time.perf_counter(),
                    len(request.body),
                ))
            _read_start.set(None)
            return request

        protocol._parse_head = timed_parse_head
        _rebind(read_request, timed_read_request)


def _rebind(original, replacement) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``; the number of bindings replaced."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


def install(recorder: Recorder) -> None:
    """Wrap every target; refuses a target that no longer exists."""
    importlib.import_module("repro.cli")
    importlib.import_module("repro.service")
    importlib.import_module("repro.telemetry")
    importlib.import_module("repro.registry")
    for module_name, attribute, name, extract in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[method]
            setattr(owner, method, recorder.wrap(original, name, extract))
        else:
            original = getattr(module, attribute)
            if not _rebind(original, recorder.wrap(original, name, extract)):
                raise RuntimeError(f"no binding of {module_name}.{attribute}")
    recorder.wrap_protocol_read(
        importlib.import_module("repro.service.protocol")
    )


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS_OUT serve [ARGS...]", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    status = cli_main(cli_args)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
