"""Tests for the model-serving layer (:mod:`repro.service`)."""

import asyncio
import json

from repro.engine import Engine
from repro.service.app import App
from repro.service.protocol import Request
from repro.service.queue import SolveQueue


def make_request(method, path, payload=None, query=None, headers=None):
    """An in-process :class:`Request` carrying ``payload`` as JSON."""
    body = json.dumps(payload).encode() if payload is not None else b""
    return Request(
        method=method,
        path=path,
        query=dict(query or {}),
        headers=dict(headers or {}),
        body=body,
    )


def run_app(requests, engine=None, **app_kwargs):
    """Run ``requests`` in order against a fresh App in one event loop.

    Returns ``(responses, app)``; each response is a ``(status,
    payload, response)`` triple whose payload is the decoded JSON body
    (or the text of a non-JSON one).
    """

    async def go():
        eng = engine if engine is not None else Engine()
        queue = SolveQueue(eng)
        app = App(eng, queue, **app_kwargs)
        responses = []
        for request in requests:
            response = await app.handle(request)
            payload = (
                json.loads(response.body)
                if response.content_type.startswith("application/json")
                else response.body.decode()
            )
            responses.append((response.status, payload, response))
        await queue.close()
        return responses, app

    return asyncio.run(go())
