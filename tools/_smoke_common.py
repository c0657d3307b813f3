"""Shared plumbing for the tools/*_smoke.py CI scripts.

Every smoke test spawns real ``python -m repro`` subprocesses on real
sockets; the port/spawn/wait/cleanup boilerplate lives here once.
Importing this module also puts ``src/`` on ``sys.path``, so smoke
scripts can import ``repro`` right after ``import _smoke_common``.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.service.client import call  # noqa: E402


def run_in_workdir(name: str, smoke: Callable[[Path], int]) -> int:
    """Run ``smoke`` in a fresh ``rascad-<name>-smoke-*`` temp directory.

    The directory is removed when the smoke passes (returns 0) and kept,
    its path printed again, when it fails or raises, so its logs and
    stores can be read afterwards.  Returns the smoke's exit code.
    """
    base = Path(tempfile.mkdtemp(prefix=f"rascad-{name}-smoke-"))
    print(f"workdir: {base}")
    code = 1
    try:
        code = smoke(base)
    finally:
        if code == 0:
            shutil.rmtree(base, ignore_errors=True)
        else:
            print(f"workdir kept for inspection: {base}")
    return code


def free_port() -> int:
    """An OS-assigned free TCP port on localhost."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def subprocess_env() -> dict:
    """A copy of the environment with ``src/`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def request(
    url: str, payload=None, timeout: float = 60.0
) -> Tuple[int, bytes]:
    """One HTTP exchange (POST with a payload, else GET); returns
    (status, raw_body_bytes).

    HTTP error statuses come back as values, not exceptions, so smoke
    scripts can assert on 4xx/5xx envelopes.
    """
    reply = call(
        "GET" if payload is None else "POST", url, payload, timeout=timeout
    )
    return reply.status, reply.body


def get_json(url: str, timeout: float = 30.0) -> dict:
    status, body = request(url, timeout=timeout)
    assert status == 200, (status, body)
    return json.loads(body)


def post_json(url: str, payload, timeout: float = 60.0) -> Tuple[int, dict]:
    status, body = request(url, payload, timeout=timeout)
    return status, json.loads(body)


def cli(*argv: str, env: Optional[dict] = None) -> int:
    """Run ``python -m repro <argv>`` to completion; the exit code."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env or subprocess_env(),
    ).returncode


class Fleet:
    """Spawned ``python -m repro`` server processes plus their logs.

    Use as a context manager: on exit every still-running process is
    terminated (then killed), and on failure the collected logs can be
    dumped with :meth:`dump_logs`.
    """

    def __init__(self, base: Path, env: Optional[dict] = None) -> None:
        self.base = base
        self.env = env or subprocess_env()
        self.processes: List[Tuple[str, subprocess.Popen]] = []

    def spawn(self, name: str, argv: Sequence[str]) -> subprocess.Popen:
        """Start ``python -m repro <argv>``, logging to ``<name>.log``."""
        log = (self.base / f"{name}.log").open("wb")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=self.env, stdout=log, stderr=subprocess.STDOUT,
        )
        self.processes.append((name, process))
        return process

    def spawn_server(
        self, name: str, argv: Sequence[str], timeout: float = 30.0
    ) -> str:
        """Spawn on a free port and wait for /healthz; the base URL."""
        from repro.cluster import wait_until_healthy

        port = free_port()
        url = f"http://127.0.0.1:{port}"
        self.spawn(
            name, list(argv) + ["--host", "127.0.0.1", "--port", str(port)]
        )
        if not wait_until_healthy(url, timeout=timeout):
            raise AssertionError(f"{name} never became healthy at {url}")
        return url

    def dump_logs(self) -> None:
        for name, _process in self.processes:
            path = self.base / f"{name}.log"
            if path.exists():
                sys.stdout.write(f"----- {name} -----\n")
                sys.stdout.write(path.read_text())

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *_exc) -> None:
        for _name, process in self.processes:
            if process.poll() is None:
                process.terminate()
        for _name, process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
