"""Server processes, a closed-loop HTTP client, and ``/proc`` readings.

The server under test is ``python -m repro serve`` (or the traced
launcher) in a child process with a fresh ``--cache-dir``.  The client
drives it from threads of this process, one keep-alive connection per
thread, each sending its next request only after the previous answer
arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Server:
    process: subprocess.Popen
    port: int

    def cpu_seconds(self) -> float:
        """User+system CPU of the server process, all threads."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text()
        # The command name is parenthesised and may contain spaces;
        # fields after it are space-separated (utime is field 14).
        after = fields.rsplit(")", 1)[1].split()
        return (int(after[11]) + int(after[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text(
        ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")


def start_server(
    root: Path, workdir: Path, spans_out: Optional[Path] = None
) -> Server:
    """Spawn a server on a free port and wait for a healthy ``/healthz``."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["RASCAD_CACHE_DIR"] = str(workdir / "cache")
    serve = [
        "serve", "--port", "0", "--jobs", "1",
        "--cache-dir", str(workdir / "cache"), "--log-level", "warning",
    ]
    if spans_out is None:
        command = [sys.executable, "-m", "repro", *serve]
    else:
        command = [
            sys.executable, str(Path(__file__).with_name("launcher.py")),
            str(spans_out), *serve,
        ]
    stdout_path = workdir / "server.out"
    started = time.perf_counter()
    with open(stdout_path, "wb") as stdout, open(
        workdir / "server.err", "wb"
    ) as stderr:
        process = subprocess.Popen(
            command, cwd=str(workdir), env=env,
            stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
        )
    port = None
    deadline = started + START_TIMEOUT
    while port is None:
        if process.poll() is not None:
            raise BenchError(
                f"server exited with {process.returncode}: "
                + (workdir / "server.err").read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            _kill(process)
            raise BenchError("server did not report its port in time")
        text = stdout_path.read_text(errors="replace")
        marker = "listening on http://127.0.0.1:"
        if marker in text:
            port = int(text.split(marker, 1)[1].split()[0])
        else:
            time.sleep(0.01)
    server = Server(process, port)
    status, _ = request_once(server, "GET", "/healthz")
    if status != 200:
        stop_server(server)
        raise BenchError(f"/healthz answered {status}")
    return server


def stop_server(server: Server) -> None:
    """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
    if server.process.poll() is None:
        server.process.send_signal(signal.SIGTERM)
        try:
            server.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            _kill(server.process)
            raise BenchError("server did not stop on SIGTERM") from None


def _kill(process: subprocess.Popen) -> None:
    process.kill()
    process.wait()


def request_once(
    server: Server, method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=REQUEST_TIMEOUT
    )
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(server: Server, path: str) -> Dict[str, object]:
    status, body = request_once(server, "GET", path)
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return json.loads(body)


@dataclass
class Exchange:
    """One request of the measured phase, as the client saw it."""

    connection: int
    index: int
    tag: object
    status: int
    body: bytes
    start: float
    end: float
    bytes_out: int


@dataclass
class LoopResult:
    exchanges: List[Exchange] = field(default_factory=list)
    #: ``(perf_counter time, server CPU seconds)`` when the loop
    #: started and at the end of each measurement window.
    boundaries: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def start(self) -> float:
        return self.boundaries[0][0]

    @property
    def end(self) -> float:
        return self.boundaries[-1][0]


#: A request source for one connection: index -> (tag, body).
Source = Callable[[int], Tuple[object, bytes]]


def closed_loop(
    server: Server,
    path: str,
    sources: Sequence[Source],
    window_seconds: float,
    min_windows: int,
    max_windows: int,
    enough: Callable[[LoopResult], bool],
) -> LoopResult:
    """Drive ``path`` from one thread per source, window by window.

    At each window boundary the time and the server's CPU are
    recorded.  The loop stops at the first boundary after
    ``min_windows`` where ``enough`` accepts what was collected, or
    after ``max_windows``.  Requests still in flight then complete and
    are kept, outside every window.
    """
    result = LoopResult()
    stop = threading.Event()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def drive(number: int, source: Source) -> None:
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=REQUEST_TIMEOUT
        )
        headers = {"Content-Type": "application/json"}
        index = 0
        try:
            while not stop.is_set():
                tag, body = source(index)
                start = time.perf_counter()
                connection.request("POST", path, body=body, headers=headers)
                response = connection.getresponse()
                payload = response.read()
                end = time.perf_counter()
                with lock:
                    result.exchanges.append(Exchange(
                        number, index, tag, response.status, payload,
                        start, end, len(body),
                    ))
                index += 1
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)
            stop.set()
        finally:
            connection.close()

    threads = [
        threading.Thread(target=drive, args=(number, source), daemon=True)
        for number, source in enumerate(sources)
    ]
    result.boundaries.append((time.perf_counter(), server.cpu_seconds()))
    for thread in threads:
        thread.start()
    while not stop.is_set():
        due = result.start + window_seconds * len(result.boundaries)
        while not stop.is_set() and time.perf_counter() < due:
            time.sleep(min(0.02, max(0.0, due - time.perf_counter())))
        if stop.is_set():
            break  # a connection failed; reported below
        with lock:
            result.boundaries.append(
                (time.perf_counter(), server.cpu_seconds())
            )
            windows = len(result.boundaries) - 1
            if windows >= max_windows or (
                windows >= min_windows and enough(result)
            ):
                stop.set()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT + 5)
        if thread.is_alive():
            raise BenchError("a client connection did not finish")
    if errors:
        raise BenchError(f"client connection failed: {errors[0]!r}")
    result.exchanges.sort(key=lambda e: e.start)
    return result
