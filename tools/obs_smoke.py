#!/usr/bin/env python3
"""CI smoke test: one HTTP solve produces one complete exported trace.

Exercises the observability pipeline end to end, with a real server
process:

1. Start ``rascad serve`` with ``--trace-dir`` (and ``--trace-detail``)
   on a free port, JSON logging on.
2. Solve a library model over HTTP and read the ``X-Rascad-Trace-Id``
   response header.
3. Assert ``<trace-dir>/spans.jsonl`` holds exactly that trace: a
   single ``service.request`` root, a ``service.solve`` span beneath
   it, engine solve spans beneath that, and per-block detail spans —
   with every parent link resolving inside the trace.
4. Assert ``/debug/traces`` serves the same trace from the in-memory
   ring, and ``rascad trace summary`` renders the directory.

Run from the repository root::

    PYTHONPATH=src python tools/obs_smoke.py
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from _smoke_common import get_json, run_in_workdir

from repro.obs.export import read_spans  # noqa: E402
from repro.service.client import call  # noqa: E402

STARTUP_TIMEOUT = 60.0


def wait_for_port(log_path: Path, process: subprocess.Popen) -> str:
    """The base URL, parsed from the server's startup line."""
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            sys.stdout.write(log_path.read_text())
            raise AssertionError("server exited during startup")
        match = re.search(
            r"listening on (http://\S+)", log_path.read_text()
        )
        if match:
            return match.group(1)
        time.sleep(0.05)
    raise AssertionError("server did not start within 60 s")


def smoke(base: Path) -> int:
    trace_dir = base / "traces"
    log_path = base / "serve.log"

    with log_path.open("wb") as log:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--no-cache",
                "--trace-dir", str(trace_dir),
                "--trace-detail",
                "--log-json",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    try:
        url = wait_for_port(log_path, server)
        print(f"server up at {url}")

        spec = get_json(f"{url}/v1/library/workgroup")
        reply = call("POST", f"{url}/v1/solve", {"spec": spec}, timeout=60)
        assert reply.status == 200, reply.status
        trace_id = reply.headers.get("X-Rascad-Trace-Id")
        payload = reply.json()
        assert trace_id, "solve response carried no X-Rascad-Trace-Id"
        assert 0.0 < payload["availability"] <= 1.0
        print(f"solved over HTTP, trace {trace_id}")

        # The same trace is live in the ring behind /debug/traces.
        debug = get_json(f"{url}/debug/traces?trace_id={trace_id}")
        assert debug["spans"], "/debug/traces returned no spans"
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=30)

    sys.stdout.write(log_path.read_text())

    spans = read_spans(trace_dir, trace_id=trace_id)
    names = [span["name"] for span in spans]
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        assert parent is None or parent in by_id, (
            f"span {span['name']} has dangling parent {parent}"
        )

    roots = [s for s in spans if s.get("parent_id") is None]
    assert len(roots) == 1, f"expected one root span, got {roots}"
    assert roots[0]["name"] == "service.request", roots[0]["name"]
    assert roots[0]["trace_id"] == trace_id

    for stage in ("service.solve", "engine.solve", "engine.block_solve"):
        assert stage in names, f"trace is missing a {stage} span"
    solve = next(s for s in spans if s["name"] == "service.solve")
    assert by_id[solve["parent_id"]]["name"] == "service.request"
    for span in spans:
        if span["name"] == "engine.solve":
            parent = by_id[span["parent_id"]]["name"]
            assert parent == "service.solve", (
                f"engine.solve hangs under {parent}, not service.solve"
            )
    engine_children = [n for n in names if n.startswith("engine.")]
    assert engine_children, "no engine spans beneath the request"

    summary = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "trace", "summary", str(trace_dir),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert summary.returncode == 0, summary.stderr
    assert "service.request" in summary.stdout, summary.stdout

    print(
        f"PASS: one solve exported one complete trace "
        f"({len(spans)} spans, root {roots[0]['span_id']}, "
        f"{len(engine_children)} engine spans)"
    )
    return 0


def main() -> int:
    return run_in_workdir("obs", smoke)


if __name__ == "__main__":
    sys.exit(main())
