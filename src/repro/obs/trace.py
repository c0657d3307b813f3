"""Tracing: spans with monotonic clocks, parent links, and propagation.

One :class:`Tracer` (usually the process-global one behind
:func:`get_tracer`) hands out :class:`Span` context managers.  Entering
a span makes it the *current* span via a :mod:`contextvars` variable,
so nested ``with tracer.span(...)`` blocks — across ``await`` points
and into ``asyncio.to_thread`` workers, both of which propagate
context — form a parent-linked tree without any explicit plumbing.

Tracing is **off by default and cheap when off**: a disabled tracer's
``span()`` returns a shared no-op singleton, so instrumented hot paths
pay one attribute check and one method call, nothing else.

Crossing the process-pool boundary is explicit, because contextvars do
not survive pickling:

* the parent captures :func:`current_carrier` — a small serializable
  dict naming the active trace/span and its sampling verdict — and
  ships it with the task;
* the worker wraps the task in :func:`capture_spans`, which activates
  the remote parent and collects every span the task finishes;
* the collected span dicts travel back with the result and the parent
  re-exports them via :func:`export_remote`, parent links intact.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

from .clock import monotonic, wall_time
from .export import SpanExporter, head_sampled

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
    "current_span",
    "current_carrier",
    "capture_spans",
    "export_remote",
    "use_span",
    "TRACE_PARENT_HEADER",
    "carrier_to_header",
    "carrier_from_header",
    "remote_parent_span",
]

#: The active span of the current logical context (task / thread).
_CURRENT: "ContextVar[Optional[Span]]" = ContextVar(
    "rascad_current_span", default=None
)


# Ids are sliced from a thread-local pool of urandom bytes: one
# syscall per 4 KiB of ids instead of one per id, which matters on the
# block-solve hot path.  Thread-local so concurrent spans never slice
# the same range; reset after fork so pool workers never mint
# duplicates.
_ID_POOL_BYTES = 4096
_ID_LOCAL = threading.local()


def _reset_id_pool() -> None:
    global _ID_LOCAL
    _ID_LOCAL = threading.local()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_reset_id_pool)


def _new_id(nbytes: int) -> str:
    local = _ID_LOCAL
    pos = getattr(local, "pos", _ID_POOL_BYTES)
    end = pos + nbytes
    if end > _ID_POOL_BYTES:
        local.buf = os.urandom(_ID_POOL_BYTES)
        pos, end = 0, nbytes
    local.pos = end
    return local.buf[pos:end].hex()


class Span:
    """One timed operation in a trace.

    Spans are context managers: entering activates them as the current
    span (so children link to them), exiting records the duration from
    the monotonic clock, captures any in-flight exception as an error
    status, and hands the span to the tracer's exporter.  Spans created
    with :meth:`Tracer.start_span` can instead be finished explicitly
    with :meth:`Tracer.finish` — the shape used when start and end live
    in different scopes (a cluster job or shard).
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start_unix",
        "attrs", "status", "error", "sampled", "pid",
        "duration", "_started_mono", "_tracer", "_token", "_finished",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        sampled: bool,
        tracer: "Tracer",
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        # The attrs dict is taken as-is (creators hand over a fresh
        # one); copying here would tax every span on the hot path.
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self.status = "ok"
        self.error: Optional[str] = None
        self.pid = os.getpid()
        self.start_unix = wall_time()
        self.duration = 0.0
        self._started_mono = monotonic()
        self._tracer = tracer
        self._token = None
        self._finished = False

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.record_error(f"{exc_type.__name__}: {exc}")
        if self._tracer is not None:  # None once finished explicitly
            self._tracer.finish(self)
        return False

    # -- recording -----------------------------------------------------
    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def record_error(self, message: str) -> None:
        self.status = "error"
        self.error = message

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "pid": self.pid,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.error is not None:
            payload["error"] = self.error
        return payload


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    sampled = False
    name = ""
    status = "ok"
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: object) -> None:
        pass

    def record_error(self, message: str) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:  # pragma: no cover - debug
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out spans, owns the sampling policy and the exporter."""

    def __init__(
        self,
        enabled: bool = False,
        exporter: Optional[SpanExporter] = None,
        sample_ratio: float = 1.0,
        detail: bool = False,
    ) -> None:
        self.enabled = enabled
        self.exporter = exporter if exporter is not None else SpanExporter()
        self.sample_ratio = sample_ratio
        self.detail = detail

    # -- creation ------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """A context-manager span under the current span (or a root)."""
        if not self.enabled:
            return NULL_SPAN
        return self.start_span(name, **attrs)

    def span_detail(self, name: str, **attrs: object):
        """A span emitted only at ``detail`` verbosity.

        Hot inner loops — one span per *block* solve rather than per
        request — instrument through this method, so the default traced
        configuration stays cheap and per-block depth is an explicit
        opt-in (``detail=True`` / ``--trace-detail``).
        """
        if not self.enabled or not self.detail:
            return NULL_SPAN
        return self.start_span(name, **attrs)

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attrs: object,
    ):
        """An un-entered span; finish it with :meth:`finish`.

        ``parent`` overrides the context lookup — for spans whose
        parent is not the current span (a remote caller's).
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = _CURRENT.get()
        if parent is None or parent is NULL_SPAN:
            trace_id = _new_id(16)
            parent_id = None
            sampled = head_sampled(trace_id, self.sample_ratio)
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        return Span(
            name,
            trace_id=trace_id,
            span_id=_new_id(8),
            parent_id=parent_id,
            sampled=sampled,
            tracer=self,
            attrs=attrs,
        )

    # -- completion ----------------------------------------------------
    def finish(self, span, error: Optional[BaseException] = None) -> None:
        """Record duration and export; safe on null spans and twice."""
        if span is NULL_SPAN or not isinstance(span, Span):
            return
        if span._finished:
            return
        span._finished = True
        span.duration = monotonic() - span._started_mono
        if error is not None:
            span.record_error(f"{type(error).__name__}: {error}")
        # Hand the Span itself to the exporter — it serializes lazily
        # (ring) or eagerly (JSONL) as its sinks demand.  Dropping the
        # back-reference afterwards keeps finished spans acyclic, so
        # ring contents never anchor a tracer for the cycle collector.
        self.exporter.export(span, sampled=span.sampled)
        span._tracer = None


# ----------------------------------------------------------------------
# the process-global tracer
# ----------------------------------------------------------------------

_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until configured)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def configure_tracing(
    enabled: bool = True,
    trace_dir=None,
    sample_ratio: float = 1.0,
    capacity: int = 2048,
    slow_threshold: float = 0.25,
    detail: bool = False,
) -> Tracer:
    """Build and install the process-global tracer.

    ``trace_dir`` additionally mirrors every kept span into
    ``<trace_dir>/spans.jsonl``; without it spans live only in the
    in-memory ring buffer (``/debug/traces``, ``exporter.recent()``).
    ``detail`` additionally emits per-block spans
    (:meth:`Tracer.span_detail`) — deep-dive verbosity.
    """
    exporter = SpanExporter(
        capacity=capacity,
        trace_dir=trace_dir,
        slow_threshold=slow_threshold,
    )
    tracer = Tracer(
        enabled=enabled,
        exporter=exporter,
        sample_ratio=sample_ratio,
        detail=detail,
    )
    set_tracer(tracer)
    return tracer


def current_span() -> Optional[Span]:
    """The active span of this context, or ``None``."""
    span = _CURRENT.get()
    if span is None or span is NULL_SPAN:
        return None
    return span


@contextmanager
def use_span(span) -> Iterator[None]:
    """Make an existing span current without finishing it on exit."""
    if span is None or span is NULL_SPAN or not isinstance(span, Span):
        yield
        return
    token = _CURRENT.set(span)
    try:
        yield
    finally:
        _CURRENT.reset(token)


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------

def current_carrier() -> Optional[Dict[str, object]]:
    """A serializable snapshot of the active span, or ``None``.

    ``None`` means tracing is off (or nothing is active) — callers ship
    the carrier with pool tasks and skip the capture machinery when it
    is absent, keeping the disabled path free.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    span = current_span()
    if span is None:
        return None
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "sampled": span.sampled,
        "detail": tracer.detail,
    }


class _CollectingExporter(SpanExporter):
    """Keeps every span in a plain list — the worker-side buffer."""

    def __init__(self, sink: List[Dict[str, object]]) -> None:
        super().__init__(capacity=1)
        self._sink = sink

    def export(self, payload, sampled: bool = True) -> bool:  # noqa: D102
        if not isinstance(payload, dict):
            payload = payload.to_dict()
        self._sink.append(payload)
        return True


@contextmanager
def capture_spans(
    carrier: Dict[str, object],
) -> Iterator[List[Dict[str, object]]]:
    """Worker-side capture: record spans under a remote parent.

    Temporarily replaces the process-global tracer with a recording one
    whose parent context comes from ``carrier``, runs the body, and
    yields the list that fills with finished span dicts.  The caller
    returns that list to the parent process, which feeds it to
    :func:`export_remote`.

    Pool workers execute one task at a time, so swapping the global is
    safe; the previous tracer (usually the disabled default) is always
    restored.
    """
    collected: List[Dict[str, object]] = []
    capture_tracer = Tracer(
        enabled=True,
        exporter=_CollectingExporter(collected),
        detail=bool(carrier.get("detail", False)),
    )
    remote_parent = Span(
        name="<remote-parent>",
        trace_id=str(carrier["trace_id"]),
        span_id=str(carrier["span_id"]),
        parent_id=None,
        sampled=bool(carrier.get("sampled", True)),
        tracer=capture_tracer,
    )
    previous = set_tracer(capture_tracer)
    token = _CURRENT.set(remote_parent)
    try:
        yield collected
    finally:
        _CURRENT.reset(token)
        set_tracer(previous)


#: HTTP header carrying a trace carrier between cluster processes.
TRACE_PARENT_HEADER = "X-Rascad-Trace-Parent"


def carrier_to_header(carrier: Dict[str, object]) -> str:
    """Serialize a :func:`current_carrier` dict for an HTTP header.

    The wire form is ``trace_id:span_id:sampled:detail`` with the two
    flags as ``0``/``1`` — the cross-*host* edition of the carrier the
    process pool already ships by pickle.
    """
    return (
        f"{carrier['trace_id']}:{carrier['span_id']}:"
        f"{1 if carrier.get('sampled', True) else 0}:"
        f"{1 if carrier.get('detail', False) else 0}"
    )


def carrier_from_header(text: str) -> Optional[Dict[str, object]]:
    """Parse a :data:`TRACE_PARENT_HEADER` value; ``None`` if invalid.

    Malformed headers are ignored rather than rejected — a bad trace
    header must never fail the request it rides on.
    """
    parts = text.strip().split(":")
    if len(parts) != 4 or not parts[0] or not parts[1]:
        return None
    return {
        "trace_id": parts[0],
        "span_id": parts[1],
        "sampled": parts[2] == "1",
        "detail": parts[3] == "1",
    }


def remote_parent_span(carrier: Dict[str, object]) -> Optional[Span]:
    """An un-entered stand-in for a span living in another process.

    Pass the result as ``parent=`` to :meth:`Tracer.start_span` so a
    locally created span links into a remote trace (the coordinator's
    ``cluster.shard`` span becomes the parent of a worker's
    ``service.request``).  The stand-in is never entered, finished, or
    exported — it only donates its ids and sampling verdict.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    return Span(
        name="<remote-parent>",
        trace_id=str(carrier["trace_id"]),
        span_id=str(carrier["span_id"]),
        parent_id=None,
        sampled=bool(carrier.get("sampled", True)),
        tracer=tracer,
    )


def export_remote(
    payloads: List[Dict[str, object]], sampled: bool = True
) -> int:
    """Feed worker-collected span dicts into this process's exporter."""
    tracer = get_tracer()
    if not tracer.enabled or not payloads:
        return 0
    kept = 0
    for payload in payloads:
        if tracer.exporter.export(payload, sampled=sampled):
            kept += 1
    return kept
