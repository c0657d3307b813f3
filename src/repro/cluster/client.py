"""HTTP clients for the cluster: coordinator->worker and worker->coordinator.

Workers are plain :mod:`repro.service` processes — the coordinator
drives them with the same JSON API any user would, through
:func:`repro.service.client.call` (one short-lived connection per
call, so worker death shows as an immediate socket error).

Failure classification mirrors the jobs retry policy: transport errors
and 5xx/backpressure statuses are *retryable* (the shard re-queues and
another worker picks it up); a 4xx means the request itself is bad and
retrying elsewhere would fail identically, so it is *permanent* and
fails the whole workload.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional

from ..obs import TRACE_PARENT_HEADER, get_logger
from ..service.client import ClientError, call as http_call, server_address
from .config import ClusterError
from .membership import worker_id_for

#: Statuses worth retrying on another worker (or the same one later).
_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class WorkerCallError(ClusterError):
    """One worker call failed; ``retryable`` drives shard re-queueing."""

    def __init__(
        self,
        message: str,
        retryable: bool = True,
        status: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.status = status


class _Peer:
    """A cluster peer's base URL and default timeout."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        server_address(url)  # fail fast on a URL no call could reach
        self.url = url
        self.timeout = timeout

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, object]] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One call that must answer 200; returns its JSON body.

        No answer or an undecodable one raises a retryable
        :class:`WorkerCallError`; another status raises one classified
        by :data:`_RETRYABLE_STATUSES`.
        """
        try:
            reply = http_call(
                method, self.url.rstrip("/") + path, payload,
                headers=headers, timeout=timeout or self.timeout,
            )
            body = reply.json()
        except ClientError as exc:
            raise WorkerCallError(str(exc), retryable=True) from exc
        if not isinstance(body, dict):
            body = {"body": body}
        if reply.status == 200:
            return body
        error = body.get("error")
        detail = error.get("message") if isinstance(error, Mapping) else body
        raise WorkerCallError(
            f"{self.url} answered {reply.status} on {path}: {detail}",
            retryable=reply.status in _RETRYABLE_STATUSES,
            status=reply.status,
        )


class WorkerClient(_Peer):
    """The coordinator's handle on one worker process."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        super().__init__(url, timeout)
        self.worker_id = worker_id_for(url)

    def call(
        self,
        path: str,
        payload: Mapping[str, object],
        trace_header: Optional[str] = None,
    ) -> Dict[str, object]:
        """One ``POST``; non-200 raises a classified error."""
        headers: Dict[str, str] = {}
        if trace_header:
            headers[TRACE_PARENT_HEADER] = trace_header
        return self._call("POST", path, payload, headers)

    def healthy(self) -> bool:
        try:
            self._call("GET", "/healthz", timeout=min(self.timeout, 5.0))
        except WorkerCallError:
            return False
        return True


class CoordinatorClient(_Peer):
    """What workers and the CLI use to talk *to* a coordinator."""

    def register_worker(self, worker_url: str) -> Dict[str, object]:
        return self._call(
            "POST", "/v1/cluster/workers", {"url": worker_url}
        )

    def status(self) -> Dict[str, object]:
        return self._call("GET", "/v1/cluster/status")

    def sweep(
        self, payload: Mapping[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        return self._call("POST", "/v1/sweep", payload, timeout=timeout)


class HeartbeatPusher:
    """The worker-side registration/heartbeat loop, on a daemon thread.

    ``rascad cluster worker`` starts one next to its HTTP server: it
    registers the worker's advertised URL with the coordinator, then
    re-registers every ``interval`` seconds (registration is an upsert
    that doubles as the heartbeat).  A dead coordinator only logs — the
    worker keeps serving, and the next successful push re-registers it.
    """

    def __init__(
        self,
        coordinator_url: str,
        advertise_url: str,
        interval: float = 2.0,
    ) -> None:
        self.client = CoordinatorClient(coordinator_url, timeout=5.0)
        self.advertise_url = advertise_url
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.pushes = 0
        self.failures = 0

    def push_once(self) -> bool:
        try:
            self.client.register_worker(self.advertise_url)
        except ClusterError as error:
            self.failures += 1
            get_logger("cluster").warning(
                "heartbeat push failed",
                extra={
                    "coordinator": self.client.url,
                    "error": str(error),
                },
            )
            return False
        self.pushes += 1
        return True

    def _run(self) -> None:
        while not self._stop.is_set():
            self.push_once()
            self._stop.wait(self.interval)

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="rascad-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None


def wait_until_healthy(
    url: str, timeout: float = 10.0, poll: float = 0.05
) -> bool:
    """Poll a service's ``/healthz`` until it answers or time runs out."""
    client = WorkerClient(url, timeout=min(timeout, 5.0))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.healthy():
            return True
        time.sleep(poll)
    return False
