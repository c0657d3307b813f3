"""The client half of the service's wire format: one JSON call.

:mod:`.protocol` reads a request on the server; :func:`call` is how
every Python caller sends one — sorted-key JSON (or exact ``data``
bytes) on its own ``http.client`` connection, closed on return.  See
"Clients" in ``docs/service.md``.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple
from urllib.parse import SplitResult, urlsplit

from ..errors import RascadError


class ClientError(RascadError):
    """A call to a rascad server produced no usable answer."""


def split_url(url: str) -> SplitResult:
    """``url`` split into parts, reading a bare ``host:port`` as http."""
    return urlsplit(url if "//" in url else f"http://{url}")


def server_address(url: str) -> Tuple[str, int]:
    """The ``(host, port)`` an http URL names, or :class:`ClientError`."""
    split = split_url(url)
    if split.scheme != "http":
        raise ClientError(f"server URLs must be http://, got {url!r}")
    try:
        port = split.port or 80
    except ValueError:  # a non-numeric or out-of-range port
        port = 0
    if not split.hostname or not port:
        raise ClientError(f"malformed server URL {url!r}")
    return split.hostname, port


@dataclass(frozen=True)
class Reply:
    """One answer: status, headers (case-insensitive) and raw body."""

    url: str
    status: int
    headers: http.client.HTTPMessage
    body: bytes

    def json(self) -> object:
        """The body decoded as JSON (``{}`` when empty)."""
        try:
            return json.loads(self.body) if self.body else {}
        except ValueError:
            raise ClientError(
                f"{self.url} answered {self.status} with a non-JSON "
                f"body: {self.body[:200]!r}"
            ) from None


def call(
    method: str,
    url: str,
    payload: object = None,
    *,
    data: Optional[bytes] = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: Optional[float] = 60.0,
) -> Reply:
    """One request to an absolute ``url`` on its own connection.

    The body is ``data``, else ``payload`` as JSON, else empty;
    ``timeout=None`` waits as long as the server takes.
    """
    host, port = server_address(url)
    split = split_url(url)
    target = f"{split.path or '/'}{'?' if split.query else ''}{split.query}"
    if data is None and payload is not None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            method, target, body=data or b"",
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise ClientError(
            f"{method} {url} failed: {type(exc).__name__}: {exc}"
        ) from exc
    finally:
        connection.close()
    return Reply(url, response.status, response.msg, body)
