"""Tests for the model-serving layer (:mod:`repro.service`)."""

import json

from repro.service.protocol import Request


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
