"""Server lifecycle: startup, connection loop, drain, and shutdown.

:class:`Server` owns the pieces — an :class:`~repro.engine.Engine`, a
:class:`~repro.service.queue.SolveQueue`, an
:class:`~repro.service.app.App` — and runs the asyncio TCP listener
around them:

* **Startup** builds the engine from the same flags the CLI uses (so
  the server shares its persistent cache with CLI runs), optionally
  warm-starts by pre-solving the library models, and binds the socket
  (``port=0`` picks a free port, reported by :meth:`Server.start`).
  Tracing and logging are process-wide and stay with whoever embeds
  the server: the CLI configures them once, before the server exists.
* **Serving** is a keep-alive connection loop: read request, dispatch
  through the app, write response, repeat until the client closes or a
  protocol error forces the connection shut.
* **Shutdown** (SIGTERM/SIGINT or :meth:`Server.shutdown`) stops
  accepting, drains in-flight requests up to :data:`DRAIN_TIMEOUT`
  seconds, waits for the admitted solves, closes idle keep-alive
  connections and every store, and persists the final
  :class:`~repro.engine.EngineStats` snapshot so ``rascad stats``
  shows what the server did.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..engine import Engine, default_cache_dir
from ..errors import RascadError
from ..num import SolverOptions
from ..obs import get_logger
from .app import App, LIBRARY_MODELS
from .protocol import (
    MAX_HEADER_BYTES,
    ProtocolError,
    error_for_exception,
    read_request,
)
from .queue import SolveQueue

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..cluster import ClusterConfig

#: Seconds shutdown waits for in-flight requests before closing.
DRAIN_TIMEOUT = 10.0


@dataclass
class ServiceConfig:
    """The settings one :class:`Server` owns.

    ``rascad serve`` and ``rascad cluster coordinator|worker`` build
    this from their flags.  Tracing and logging are process-wide, so
    they are not here: configure them with
    :func:`repro.obs.configure_tracing` and
    :func:`repro.obs.configure_logging` before building the server.

    Attributes:
        host: Bind address.
        port: Bind port; 0 lets the OS pick (reported by ``start()``).
        jobs: Engine worker processes for sweeps, validation
            replications, jobs and studies.
        cache: False disables the solve cache entirely.
        cache_dir: Persistent cache directory shared with CLI runs.
        max_queue: Admission bound on distinct running solves.
        request_timeout: Default/maximum per-request deadline, seconds.
        warm_start: Pre-solve the library models into the cache.
        jobs_db: Job-store database path enabling the ``/v1/jobs``
            endpoints.  Defaults to ``jobs.sqlite3`` inside
            ``cache_dir`` when that is set; with neither configured
            the endpoints answer ``503 jobs_disabled`` (keeps embedded
            and test servers from writing outside their sandbox).
        default_solver: Server-wide default solver configuration
            (the ``rascad serve`` solver flags); requests override it
            per-call via their ``method`` string or ``solver`` object.
        cluster: Run as a cluster coordinator with these settings.
            ``ClusterConfig()`` names no static workers; the fleet
            then joins dynamically over ``POST /v1/cluster/workers``.
            ``None`` (the default) does not coordinate.
        registry_db: Model-registry database path.  Defaults to
            ``registry.sqlite3`` inside ``cache_dir`` when that is
            set (shared with ``rascad models`` CLI runs); with
            neither configured the registry lives in memory for the
            server's lifetime.
        registry_threshold: Regression-gate threshold, in extra
            yearly downtime minutes a tagged rollout may cost before
            publish rejects it.
        registry_seed: Publish the built-in library models into the
            registry at startup (idempotent; evaluation is lazy, so
            seeding performs no solves).
        telemetry_max_pending: Admission bound on field events admitted
            but not yet folded into estimator state; beyond it
            ``POST /v1/events`` answers ``429 backlog_full``.
        telemetry_max_batch: Cap on one ingest batch's event count.
        telemetry_window_hours: Drift-ladder window width for the
            server's rate estimator.  Telemetry state persists under
            ``cache_dir/telemetry`` when a cache directory is set,
            else in memory for the server's lifetime.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[Union[str, Path]] = None
    max_queue: int = 64
    request_timeout: float = 30.0
    warm_start: bool = False
    jobs_db: Optional[Union[str, Path]] = None
    default_solver: Optional[SolverOptions] = None
    cluster: Optional[ClusterConfig] = None
    registry_db: Optional[Union[str, Path]] = None
    registry_threshold: float = 1.0
    registry_seed: bool = True
    telemetry_max_pending: int = 10_000
    telemetry_max_batch: int = 1_024
    telemetry_window_hours: float = 168.0


class Server:
    """The asyncio HTTP server wrapping an engine-backed :class:`App`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.engine = Engine(
            jobs=self.config.jobs,
            cache=self.config.cache,
            cache_dir=self.config.cache_dir,
        )
        self.queue = SolveQueue(self.engine, max_queue=self.config.max_queue)
        self.jobs = self._build_job_store()
        self.coordinator = self._build_coordinator()
        self.registry = self._build_registry()
        self.studies = self._build_study_store()
        self.telemetry = self._build_telemetry()
        self.app = App(
            self.engine,
            self.queue,
            request_timeout=self.config.request_timeout,
            jobs=self.jobs,
            default_solver=self.config.default_solver,
            cluster=self.coordinator,
            registry=self.registry,
            studies=self.studies,
            telemetry=self.telemetry,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._closing = False
        #: Open connections' handler tasks and their writers.
        self._connections: Dict[
            "asyncio.Task[None]", asyncio.StreamWriter
        ] = {}

    def _build_job_store(self):
        """The job store behind ``/v1/jobs``, or ``None`` (disabled).

        Enabled by an explicit ``jobs_db`` path or implicitly by
        ``cache_dir`` (the store lands next to the solve cache, where
        ``rascad jobs worker --cache-dir`` finds it by default).
        """
        if self.config.jobs_db is None and self.config.cache_dir is None:
            return None
        from ..jobs import open_store

        return open_store(
            db_path=self.config.jobs_db,
            cache_dir=self.config.cache_dir,
        )

    def _build_coordinator(self):
        """The cluster coordinator, or ``None`` (not coordinating).

        The shard ledger lives in its own ``cluster.sqlite3`` beside
        the jobs database — ``cluster-ledger.sqlite3`` when the jobs
        database itself has that name, because a store file holds one
        schema — so a killed coordinator restarted against the same
        path resumes from the completed shards; without any persistent
        path the table lives in memory (embedded and test servers).
        """
        cluster_config = self.config.cluster
        if cluster_config is None:
            return None
        from ..cluster import (
            CLUSTER_DB_FILENAME,
            Coordinator,
            Membership,
            ShardStore,
        )

        if self.config.jobs_db is not None:
            jobs_db = Path(self.config.jobs_db)
            store_path = str(jobs_db.with_name(
                CLUSTER_DB_FILENAME
                if jobs_db.name != CLUSTER_DB_FILENAME
                else "cluster-ledger.sqlite3"
            ))
        elif self.config.cache_dir is not None:
            store_path = str(
                Path(self.config.cache_dir) / CLUSTER_DB_FILENAME
            )
        else:
            store_path = ":memory:"
        return Coordinator(
            Membership(lease_timeout=cluster_config.lease_timeout),
            store=ShardStore(store_path),
            config=cluster_config,
            stats=self.engine.stats,
        )

    def _build_registry(self):
        """The model registry behind ``/v1/models``.

        Every server gets one: a persistent file next to the solve
        cache when ``registry_db`` or ``cache_dir`` is configured
        (shared with ``rascad models`` CLI runs), else in-memory for
        the server's lifetime.  Seeding the library models creates
        rows only — evaluation is lazy — so startup stays solve-free
        and the engine-stats tests keep their exact counts.
        """
        from ..registry import (
            REGISTRY_DB_FILENAME,
            ModelRegistry,
            RegistryStore,
        )

        if self.config.registry_db is not None:
            store_path = str(self.config.registry_db)
        elif self.config.cache_dir is not None:
            store_path = str(
                Path(self.config.cache_dir) / REGISTRY_DB_FILENAME
            )
        else:
            store_path = ":memory:"
        registry = ModelRegistry(
            RegistryStore(store_path),
            engine=self.engine,
            default_threshold=self.config.registry_threshold,
        )
        if self.config.registry_seed:
            registry.seed_library()
        return registry

    def _build_study_store(self):
        """The study store behind ``/v1/studies``.

        Studies persist as JSON documents under ``cache_dir/studies``
        when a cache directory is configured (so ``rascad study
        status`` sees server-run studies), else in memory.
        """
        from ..studies import StudyStore

        if self.config.cache_dir is None:
            return StudyStore()
        return StudyStore(Path(self.config.cache_dir) / "studies")

    def _build_telemetry(self):
        """The telemetry hub behind ``/v1/events``.

        Every server gets one; state persists under
        ``cache_dir/telemetry`` when a cache directory is configured
        (shared with ``rascad events``/``rascad calibrate`` CLI runs),
        else in memory for the server's lifetime.
        """
        from ..telemetry import TelemetryHub

        directory = (
            Path(self.config.cache_dir) / "telemetry"
            if self.config.cache_dir is not None
            else None
        )
        return TelemetryHub(
            directory=directory,
            stats=self.engine.stats,
            max_pending=self.config.telemetry_max_pending,
            max_batch=self.config.telemetry_max_batch,
            window_hours=self.config.telemetry_window_hours,
        )

    def _shutdown_event(self) -> asyncio.Event:
        # Created lazily: on Python 3.9 an Event binds the event loop
        # at construction, so building it in __init__ would break the
        # natural construct-outside-the-loop-then-asyncio.run embedding.
        if self._shutdown_requested is None:
            self._shutdown_requested = asyncio.Event()
        return self._shutdown_requested

    # ------------------------------------------------------------------
    # startup / shutdown
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        if self._server is not None:
            raise RascadError("server already started")
        if self.config.warm_start:
            await self._warm_start()
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        sockets = self._server.sockets or ()
        host, port = self.config.host, self.config.port
        for sock in sockets:
            host, port = sock.getsockname()[:2]
            break
        return host, port

    async def _warm_start(self) -> None:
        """Pre-solve every library model into the (persistent) cache."""
        for factory in LIBRARY_MODELS.values():
            model = await asyncio.to_thread(factory)
            await self.engine.solve_async(model)
        self.engine.stats.increment(
            "service_warm_started", len(LIBRARY_MODELS)
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger one graceful shutdown."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum, self.request_shutdown
                )

    def request_shutdown(self) -> None:
        """Flag the serve loop to begin a graceful shutdown."""
        self._shutdown_event().set()

    async def serve_until_shutdown(self) -> None:
        """Block until a signal (or :meth:`request_shutdown`) arrives,
        then drain and stop."""
        await self._shutdown_event().wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, close the stores,
        persist stats."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self.app.in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self.queue.close()
        # Close idle keep-alive connections and let every handler
        # finish, so the loop has none left to cancel at exit.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=DRAIN_TIMEOUT)
        for store in (
            self.jobs,
            self.coordinator.store if self.coordinator else None,
            self.registry,
            self.studies,
            self.telemetry,
        ):
            if store is not None:
                with contextlib.suppress(Exception):
                    store.close()
        self._persist_stats()

    def _persist_stats(self) -> None:
        directory = self.config.cache_dir or default_cache_dir()
        try:
            self.engine.save_stats(directory)
        except OSError:
            pass  # stats persistence is best-effort, like the CLI's

    # ------------------------------------------------------------------
    # the connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)
        try:
            while not self._closing:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    response = error_for_exception(error)
                    response.close = True
                    self.engine.stats.record_request(
                        "(protocol)", response.status
                    )
                    writer.write(response.encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self.app.handle(request)
                if self._closing or not request.keep_alive:
                    response.close = True
                writer.write(response.encode())
                await writer.drain()
                if response.close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


async def _run_server(config: ServiceConfig) -> int:
    server = Server(config)
    host, port = await server.start()
    server.install_signal_handlers()
    print(f"rascad service listening on http://{host}:{port}", flush=True)
    get_logger("service").info(
        "listening",
        extra={"host": host, "port": port, "jobs": config.jobs},
    )
    await server.serve_until_shutdown()
    print("rascad service drained and stopped", flush=True)
    get_logger("service").info("drained and stopped")
    return 0


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Blocking entry point behind ``rascad serve``."""
    try:
        return asyncio.run(_run_server(config or ServiceConfig()))
    except KeyboardInterrupt:  # pragma: no cover - signal path
        return 0
