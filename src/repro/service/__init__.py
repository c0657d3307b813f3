"""Model-serving subsystem — the reproduction's RAScad web front-end.

The paper's RAScad is a web-based tool: engineers submit diagram/block
specs to a shared service and read availability results back.  This
package is that serving layer for the reproduction, built entirely on
the stdlib (asyncio HTTP/1.1) in front of the PR-1 evaluation engine:

* :mod:`.protocol` — bounded HTTP parsing and the JSON error envelope
  with stable error codes.
* :mod:`.queue` — bounded admission (``429`` backpressure), request
  deduplication by content digest, one worker-thread task per distinct
  solve, and deadline propagation.
* :mod:`.app` — the route table: ``/v1/solve``, ``/v1/sweep``,
  ``/v1/validate``, ``/v1/library``, ``/healthz``, ``/metrics``.
* :mod:`.lifecycle` — graceful startup/shutdown, signal handling,
  warm start, stats persistence; the ``rascad serve`` entry point.
* :mod:`.client` — the client half: one JSON call to a server.
"""

from .app import (
    App,
    LIBRARY_MODELS,
    measures_payload,
    render_prometheus,
    solution_payload,
)
from .client import ClientError, Reply, call
from .lifecycle import Server, ServiceConfig, serve
from .protocol import (
    ProtocolError,
    Request,
    Response,
    error_for_exception,
    error_response,
    json_response,
    read_request,
)
from .queue import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    SolveQueue,
)

__all__ = [
    "App",
    "LIBRARY_MODELS",
    "measures_payload",
    "render_prometheus",
    "solution_payload",
    "ClientError",
    "Reply",
    "call",
    "Server",
    "ServiceConfig",
    "serve",
    "ProtocolError",
    "Request",
    "Response",
    "error_for_exception",
    "error_response",
    "json_response",
    "read_request",
    "DeadlineExceededError",
    "QueueFullError",
    "ServiceClosedError",
    "SolveQueue",
]
