"""Route table and request handlers for the serving API.

The application is transport-agnostic: :meth:`App.handle` maps one
parsed :class:`~repro.service.protocol.Request` to one
:class:`~repro.service.protocol.Response`, so tests can drive it
without sockets and the lifecycle layer stays a thin connection loop.

Every route is one ``(method, template, handler)`` row of
:attr:`App.ROUTES`; docs/service.md lists them, one line per row.

The job endpoints are the online face of :mod:`repro.jobs`: the service
only enqueues, inspects, and cancels — execution belongs to
``rascad jobs worker`` processes sharing the same SQLite store.  They
answer ``503 jobs_disabled`` when the server was started without a job
store.  The cluster endpoints are the same pattern for
:mod:`repro.cluster`: they answer ``503 cluster_disabled`` unless the
server runs as a coordinator, and with a coordinator attached
``POST /v1/sweep`` fans large value lists out across the registered
fleet (clients opt out per-request with ``"cluster": false``).

With a model registry attached (every :class:`~repro.service.Server`
builds one, seeded from :mod:`repro.library`), ``/v1/solve``,
``/v1/sweep``, ``/v1/validate`` and job submissions accept
``"model_ref": "name@tag"`` / ``"name@digest"`` in place of an inline
``"spec"``.  The ref resolves exactly once, before anything digests
the document, so cache keys, shard digests and result digests are
bit-identical to inline submission — and ``/v1/library`` becomes a
thin compatibility shim over ``/v1/models``.

Untrusted payloads go through :func:`repro.spec.parse_spec` — the same
validation path the CLI uses — so every malformed spec surfaces as a
``400`` with a stable error code, never a stack trace.
"""

from __future__ import annotations

import asyncio
import math
import re
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..cluster import Coordinator
    from ..jobs import JobStore
    from ..registry import ModelRegistry
    from ..studies import StudySpec, StudyStore
    from ..telemetry import TelemetryHub

from ..core import compute_measures
from ..core.block import DiagramBlockModel
from ..core.measures import SystemMeasures
from ..core.translator import SystemSolution
from ..database import PartsDatabase, builtin_database
from ..engine import (
    Engine,
    metrics_payload,
    sweep_payload,
    validate_payload,
)
from ..engine.stats import NAMED_COUNTERS
from ..errors import SolverError
from ..library import datacenter_model, e10000_model, workgroup_model
from ..num import SolverOptions
from ..obs.clock import Stopwatch
from ..obs.trace import (
    TRACE_PARENT_HEADER,
    carrier_from_header,
    get_tracer,
    remote_parent_span,
    use_span,
)
from ..spec import model_to_spec, parse_spec
from ..units import nines
from .protocol import (
    ProtocolError,
    Request,
    Response,
    error_for_exception,
    error_response,
    json_response,
)
from .queue import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    SolveQueue,
)

#: The built-in library models served under ``/v1/library/{name}``.
LIBRARY_MODELS: Dict[str, Callable] = {
    "datacenter": datacenter_model,
    "e10000": e10000_model,
    "workgroup": workgroup_model,
}

#: Legacy ``"method"`` spellings a request may select; full control
#: (backend, representation, tolerances) goes through the ``"solver"``
#: object, validated by :class:`repro.num.SolverOptions`.
ALLOWED_METHODS = ("direct", "gth", "power")

#: Caps on the work one request may ask for.
MAX_SWEEP_VALUES = 256
MAX_REPLICATIONS = 512

#: A coordinator fans sweeps out across the fleet, so it accepts far
#: larger value lists than a single process will compute inline.
MAX_CLUSTER_SWEEP_VALUES = 4096

#: The rows a path matches, by method: ``(handler, metrics label)``.
_Served = Dict[str, Tuple[Callable, str]]


class RouteTable:
    """``(method, template, handler)`` rows, matched in one pass.

    A ``{param}`` segment of a template matches one non-empty path
    segment without a ``/`` and reaches the handler as a positional
    argument, in template order.  :meth:`match` gives a request its
    handler, path parameters and metrics label together.  A served
    request is labelled ``"{method} {template}"``; anything else is
    ``"{GET|POST|OTHER} (unmatched)"``, the method set coming from the
    rows, so a client inventing methods or paths cannot grow the route
    counters or the latency histograms without bound.  A path that
    some row serves under another method gets ``not_allowed``, any
    other path ``not_found``.
    """

    def __init__(
        self,
        rows: Tuple[Tuple[str, str, Callable], ...],
        not_allowed: Callable,
        not_found: Callable,
    ) -> None:
        self.rows = rows
        self.methods = frozenset(method for method, _, _ in rows)
        self._not_allowed = not_allowed
        self._not_found = not_found
        # Exact paths resolve with one dict lookup; templates are keyed
        # by their segments, ``None`` standing for a parameter.
        self._exact: Dict[str, _Served] = {}
        self._templates: Dict[Tuple[Optional[str], ...], _Served] = {}
        for method, template, handler in rows:
            if "{" in template:
                served = self._templates.setdefault(tuple(
                    None if part.startswith("{") else part
                    for part in template.split("/")
                ), {})
            else:
                served = self._exact.setdefault(template, {})
            served[method] = (handler, f"{method} {template}")

    def match(
        self, method: str, path: str
    ) -> Tuple[Callable, Tuple[str, ...], str]:
        """``(handler, params, label)`` for one request."""
        params: Tuple[str, ...] = ()
        served = self._exact.get(path)
        if served is None:
            served, params = self._match_template(path)
        entry = served and served.get(method)
        if entry:
            return entry[0], params, entry[1]
        if method not in self.methods:
            method = "OTHER"
        handler = self._not_allowed if served else self._not_found
        return handler, (), f"{method} (unmatched)"

    def _match_template(self, path: str):
        parts = path.split("/")
        for segments, served in self._templates.items():
            if len(segments) != len(parts):
                continue
            params = []
            for want, got in zip(segments, parts):
                if want is None and got:
                    params.append(got)
                elif want != got:
                    break
            else:
                return served, tuple(params)
        return None, ()


def _field(
    payload: Mapping[str, object],
    key: str,
    kind: type,
    required: bool = True,
    default: object = None,
) -> object:
    """One validated request field, or a 400 with a precise message."""
    if key not in payload:
        if required:
            raise ProtocolError(
                400, "invalid_request", f"missing required field {key!r}"
            )
        return default
    value = payload[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ProtocolError(
            400, "invalid_request",
            f"field {key!r} must be a {kind.__name__}, "
            f"got {type(value).__name__}",
        )
    return value


class App:
    """The serving application: routes, handlers, per-route metrics."""

    def __init__(
        self,
        engine: Engine,
        queue: SolveQueue,
        database: Optional[PartsDatabase] = None,
        request_timeout: float = 30.0,
        jobs: Optional["JobStore"] = None,
        default_solver: Optional[SolverOptions] = None,
        cluster: Optional["Coordinator"] = None,
        registry: Optional["ModelRegistry"] = None,
        studies: Optional["StudyStore"] = None,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        from ..studies import StudyStore

        self.engine = engine
        self.queue = queue
        self.database = database if database is not None else builtin_database()
        self.request_timeout = request_timeout
        self.jobs = jobs
        self.cluster = cluster
        self.registry = registry
        self.telemetry = telemetry
        # Studies are always enabled: results are JSON documents, so
        # an in-memory store costs nothing for embedded servers.
        self.studies = studies if studies is not None else StudyStore()
        self.default_solver = (
            default_solver if default_solver is not None else SolverOptions()
        )
        self.started_at = time.monotonic()
        self.in_flight = 0
        self.in_flight_peak = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Serve one request; never raises, always meters.

        With tracing enabled every request runs under a
        ``service.request`` root span whose trace id is echoed back in
        the ``X-Rascad-Trace-Id`` response header, so a caller can pull
        the full tree from ``/debug/traces`` (or the JSONL export).
        """
        handler, params, route = self.ROUTES.match(
            request.method, request.path
        )
        stats = self.engine.stats
        self.in_flight += 1
        stats.set_gauge("in_flight", self.in_flight)
        if self.in_flight > self.in_flight_peak:
            self.in_flight_peak = self.in_flight
            stats.set_gauge("in_flight_peak", self.in_flight_peak)
        # A coordinator dispatching a shard here ships its span ids in
        # the trace-parent header; adopting them as the remote parent
        # stitches this worker's request tree into the cluster trace.
        remote_parent = None
        header = request.headers.get(TRACE_PARENT_HEADER.lower())
        if header:
            carrier = carrier_from_header(header)
            if carrier is not None:
                remote_parent = remote_parent_span(carrier)
        watch = Stopwatch()
        try:
            with use_span(remote_parent), get_tracer().span(
                "service.request", route=route, method=request.method,
                path=request.path,
            ) as span:
                try:
                    response = await _maybe_await(
                        handler(self, request, *params)
                    )
                except QueueFullError as error:
                    response = error_response(
                        429, "queue_full", str(error),
                        retry_after=error.retry_after,
                    )
                except DeadlineExceededError as error:
                    response = error_response(
                        504, "deadline_exceeded", str(error)
                    )
                except ServiceClosedError as error:
                    response = error_response(
                        503, "service_unavailable", str(error)
                    )
                except Exception as error:  # noqa: BLE001 - mapped below
                    response = error_for_exception(error)
                span.set_attr("status", response.status)
                if response.status >= 500:
                    span.record_error(f"status {response.status}")
                if span.trace_id:
                    response.headers.setdefault(
                        "X-Rascad-Trace-Id", span.trace_id
                    )
        finally:
            self.in_flight -= 1
            stats.set_gauge("in_flight", self.in_flight)
        stats.record_request(route, response.status)
        stats.record_latency(route, watch.elapsed)
        return response

    def _method_not_allowed(self, request: Request) -> Response:
        return error_response(
            405, "method_not_allowed",
            f"{request.method} is not supported on {request.path!r}",
        )

    def _not_found(self, request: Request) -> Response:
        return error_response(
            404, "not_found", f"no route for {request.path!r}"
        )

    # ------------------------------------------------------------------
    # model endpoints
    # ------------------------------------------------------------------
    def _request_spec_doc(
        self, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """The request's spec document: inline, or resolved from a ref.

        ``"model_ref"`` substitutes a registry reference
        (``name@tag`` / ``name@digest``) for an inline ``"spec"``.
        Resolution happens here, exactly once, before anything digests
        the document — so engine cache keys, cluster shard digests and
        result digests are computed from the resolved spec and stay
        bit-identical to inline submission.
        """
        has_spec = "spec" in payload
        has_ref = "model_ref" in payload
        if has_spec and has_ref:
            raise ProtocolError(
                400, "invalid_request",
                "provide either 'spec' or 'model_ref', not both",
            )
        if has_ref:
            ref = _field(payload, "model_ref", str)
            return self._registry_required().resolve_spec(ref)
        return _field(payload, "spec", dict)

    async def _request_model(
        self, payload: Mapping[str, object]
    ) -> Tuple[Dict[str, object], DiagramBlockModel]:
        """The request's spec document and parsed model.

        Resolution (a registry read, which waits behind any registry
        writer) and parsing run together on one worker thread, so
        neither stalls the event loop's other connections.
        """
        return await asyncio.to_thread(self._resolve_and_parse, payload)

    def _resolve_and_parse(
        self, payload: Mapping[str, object]
    ) -> Tuple[Dict[str, object], DiagramBlockModel]:
        spec_doc = self._request_spec_doc(payload)
        return spec_doc, parse_spec(spec_doc, database=self.database)

    def _request_deadline(self, payload: Mapping[str, object]) -> float:
        timeout = _field(
            payload, "timeout_seconds", float,
            required=False, default=self.request_timeout,
        )
        timeout = min(max(float(timeout), 0.001), self.request_timeout)
        return time.monotonic() + timeout

    def _method_of(self, payload: Mapping[str, object]) -> str:
        method = _field(
            payload, "method", str, required=False, default="direct"
        )
        if method not in ALLOWED_METHODS:
            raise ProtocolError(
                400, "invalid_request",
                f"unknown method {method!r}; "
                f"expected one of {sorted(ALLOWED_METHODS)}",
            )
        return method

    def _solver_options_of(
        self, payload: Mapping[str, object]
    ) -> SolverOptions:
        """The request's solver configuration, as canonical options.

        Precedence: the request's ``solver`` object > its legacy
        ``method`` string > the server's configured default (the
        ``rascad serve`` solver flags).  Any invalid name or tolerance
        is the client's fault, so :class:`~repro.errors.SolverError`
        maps to a 400 here rather than the generic 500 a mid-solve
        failure gets.
        """
        base = self.default_solver
        if "method" in payload:
            base = base.with_changes(
                steady_method=self._method_of(payload)
            )
        solver = _field(payload, "solver", dict, required=False)
        if solver is None:
            return base
        try:
            return SolverOptions.from_dict({**base.to_dict(), **solver})
        except SolverError as exc:
            raise ProtocolError(
                400, "invalid_request", f"invalid solver options: {exc}"
            ) from exc

    async def _solve(self, request: Request) -> Response:
        payload = request.json()
        _spec_doc, model = await self._request_model(payload)
        method = self._solver_options_of(payload)
        mission = _field(payload, "mission", float, required=False)
        if mission is not None and not (math.isfinite(mission) and mission > 0):
            raise ProtocolError(
                400, "invalid_request",
                f"field 'mission' must be a positive finite number of "
                f"hours, got {mission!r}",
            )
        deadline = self._request_deadline(payload)
        measures = await self.queue.measures(
            model, method, mission, deadline
        )
        return json_response(measures_payload(model.name, measures))

    async def _sweep(self, request: Request) -> Response:
        payload = request.json()
        spec_doc, model = await self._request_model(payload)
        method = self._solver_options_of(payload)
        block = _field(payload, "block", str, required=False)
        field_name = _field(payload, "field", str)
        raw_values = _field(payload, "values", list)
        # A coordinator fans the sweep out across its fleet unless the
        # client opts out with ``"cluster": false`` (the shard requests
        # themselves carry that opt-out, so fleets of coordinators
        # cannot recurse).
        fan_out = self.cluster is not None and _field(
            payload, "cluster", bool, required=False, default=True
        )
        cap = MAX_CLUSTER_SWEEP_VALUES if fan_out else MAX_SWEEP_VALUES
        if not raw_values or len(raw_values) > cap:
            raise ProtocolError(
                400, "invalid_request",
                f"'values' must hold 1..{cap} numbers, "
                f"got {len(raw_values)}",
            )
        values: List[float] = []
        for position, value in enumerate(raw_values):
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ProtocolError(
                    400, "invalid_request",
                    f"values[{position}] must be a number",
                )
            values.append(float(value))
        if fan_out and len(values) >= self.cluster.config.fanout_threshold:
            return await self._cluster_sweep(
                payload, spec_doc, model, method, block, field_name,
                values,
            )
        if len(values) > MAX_SWEEP_VALUES:
            raise ProtocolError(
                400, "invalid_request",
                f"'values' must hold 1..{MAX_SWEEP_VALUES} numbers "
                f"without cluster fan-out, got {len(values)}",
            )
        if block is None:
            points = await asyncio.to_thread(
                self.engine.sweep_global_field,
                model, field_name, values, method,
            )
        else:
            points = await asyncio.to_thread(
                self.engine.sweep_block_field,
                model, block, field_name, values, method,
            )
        return json_response(
            sweep_payload(model.name, field_name, block, points)
        )

    async def _validate(self, request: Request) -> Response:
        payload = request.json()
        _spec_doc, model = await self._request_model(payload)
        method = self._solver_options_of(payload)
        replications = _field(
            payload, "replications", int, required=False, default=40
        )
        if not 2 <= replications <= MAX_REPLICATIONS:
            raise ProtocolError(
                400, "invalid_request",
                f"'replications' must be 2..{MAX_REPLICATIONS}",
            )
        horizon = _field(
            payload, "horizon", float, required=False, default=30_000.0
        )
        seed = _field(payload, "seed", int, required=False, default=0)
        deadline = self._request_deadline(payload)
        solution = await self.queue.solve(model, method, deadline)
        result = await asyncio.to_thread(
            self.engine.simulate_system,
            solution,
            horizon,
            replications,
            seed,
        )
        return json_response(validate_payload(
            model.name, solution.availability, result, horizon
        ))

    # ------------------------------------------------------------------
    # cluster endpoints
    # ------------------------------------------------------------------
    def _coordinator(self) -> "Coordinator":
        if self.cluster is None:
            raise ProtocolError(
                503, "cluster_disabled",
                "this server is not a cluster coordinator; start it "
                "with rascad cluster coordinator (or rascad serve "
                "with --cluster / --cluster-worker)",
            )
        return self.cluster

    async def _cluster_sweep(
        self,
        payload: Mapping[str, object],
        spec_doc: Mapping[str, object],
        model,
        method: SolverOptions,
        block: Optional[str],
        field_name: str,
        values: List[float],
    ) -> Response:
        """Fan one sweep out over the fleet and aggregate the points.

        The sweep is a jobs sweep plan, so the body is the
        ``result_digest``-stamped payload a ``rascad jobs`` sweep of
        the same request stores.  ``spec_doc`` is the already-resolved
        document (inline spec or registry ref), so shard digests never
        depend on how the client spelled the model.
        """
        from ..jobs.runner import sweep_plan
        from ..jobs.types import result_digest

        plan = sweep_plan(
            model, self.engine, spec_doc, field_name, values, block, method
        )
        timeout = _field(payload, "timeout_seconds", float, required=False)
        points = await asyncio.to_thread(
            self._coordinator().run_workload, plan, timeout
        )
        merged = plan.aggregate(points)
        merged["result_digest"] = result_digest(merged)
        self.engine.stats.increment("cluster_sweeps")
        return json_response(merged)

    def _cluster_workers(self, request: Request) -> Response:
        coordinator = self._coordinator()
        return json_response(
            {"workers": coordinator.membership.snapshot()}
        )

    def _cluster_register(self, request: Request) -> Response:
        from ..cluster import ClusterError

        coordinator = self._coordinator()
        payload = request.json()
        url = _field(payload, "url", str)
        try:
            info = coordinator.membership.register(url)
        except ClusterError as exc:
            raise ProtocolError(
                400, "invalid_request", str(exc)
            ) from exc
        self.engine.stats.increment("cluster_registrations")
        return json_response({
            "worker": info.to_dict(),
            "heartbeat_interval": coordinator.config.heartbeat_interval,
            "lease_timeout": coordinator.config.lease_timeout,
        })

    def _cluster_status(self, request: Request) -> Response:
        return json_response(self._coordinator().status())

    # ------------------------------------------------------------------
    # telemetry endpoints
    # ------------------------------------------------------------------
    def _telemetry_required(self) -> "TelemetryHub":
        if self.telemetry is None:
            raise ProtocolError(
                503, "telemetry_disabled",
                "this server was started without telemetry; "
                "rascad serve attaches a hub by default",
            )
        return self.telemetry

    async def _events_ingest(self, request: Request) -> Response:
        """Batch field-event ingest, atomic per batch.

        Malformed or out-of-order payloads answer a structured 400
        (``bad_request`` / ``out_of_order``) without touching state; a
        full admission backlog answers 429 with ``Retry-After``.
        """
        from ..telemetry import BacklogFullError

        hub = self._telemetry_required()
        payload = request.json()
        events = _field(payload, "events", list)
        try:
            result = await asyncio.to_thread(hub.ingest, events)
        except BacklogFullError as error:
            details = error.details if isinstance(
                error.details, dict
            ) else None
            return error_response(
                429, "backlog_full", str(error),
                retry_after=1.0, details=details,
            )
        return json_response(result)

    async def _calibration_status(self, request: Request) -> Response:
        hub = self._telemetry_required()
        return json_response(await asyncio.to_thread(hub.summary))

    async def _calibration_proposal(
        self, request: Request
    ) -> Response:
        hub = self._telemetry_required()
        proposal = await asyncio.to_thread(hub.require_proposal)
        return json_response({"proposal": proposal})

    async def _calibration_propose(self, request: Request) -> Response:
        """Fit, detect drift against the request's model, and build a
        calibration proposal (409 ``no_drift`` when nothing crossed)."""
        from ..telemetry import DriftConfig, TelemetryError

        hub = self._telemetry_required()
        payload = request.json()
        _spec_doc, model = await self._request_model(payload)
        options = self._solver_options_of(payload)
        drift_raw = _field(payload, "drift", dict, required=False)
        drift_config = None
        if drift_raw is not None:
            try:
                drift_config = DriftConfig(
                    window_hours=hub.estimator.window_hours,
                    **drift_raw,
                )
            except (TelemetryError, TypeError) as exc:
                raise ProtocolError(
                    400, "invalid_request",
                    f"invalid drift config: {exc}",
                ) from exc
        confidence = _field(
            payload, "confidence", float, required=False, default=0.95
        )
        proposal = await asyncio.to_thread(
            hub.propose, model, self.engine, drift_config, options,
            None, confidence,
        )
        return json_response({"proposal": proposal}, status=201)

    async def _calibration_publish(self, request: Request) -> Response:
        """Publish the stored proposal as a registry version.

        Tagging opts into the availability regression gate — a
        calibration that worsens the tag holder still gets its 409.
        """
        hub = self._telemetry_required()
        registry = self._registry_required()
        payload = request.json()
        name = _field(payload, "name", str)
        tag = _field(payload, "tag", str, required=False)
        force = _field(
            payload, "force", bool, required=False, default=False
        )
        threshold = _field(payload, "threshold", float, required=False)
        result = await asyncio.to_thread(
            hub.publish, registry, name, tag, force, threshold
        )
        return json_response(
            result.to_dict(), status=201 if result.created else 200
        )

    # ------------------------------------------------------------------
    # background-job endpoints
    # ------------------------------------------------------------------
    def _jobs_store(self) -> "JobStore":
        if self.jobs is None:
            raise ProtocolError(
                503, "jobs_disabled",
                "this server was started without a job store; "
                "run rascad serve with --jobs-db or --cache-dir",
            )
        return self.jobs

    async def _jobs_submit(self, request: Request) -> Response:
        from ..analysis import expand_values
        from ..jobs import JOB_KINDS, JobSpec

        store = self._jobs_store()
        payload = request.json()
        kind = _field(payload, "kind", str)
        if kind not in JOB_KINDS:
            raise ProtocolError(
                400, "invalid_request",
                f"unknown job kind {kind!r}; "
                f"expected one of {sorted(JOB_KINDS)}",
            )
        spec = await asyncio.to_thread(self._request_spec_doc, payload)
        params = dict(
            _field(payload, "params", dict, required=False, default={})
        )
        if kind == "sweep" and "values" in params:
            # Accept the CLI's range shorthand over HTTP too: a string
            # or a mixed token list expands to the explicit values the
            # job id digests over.
            raw = params["values"]
            tokens = [raw] if isinstance(raw, str) else raw
            if not isinstance(tokens, list):
                raise ProtocolError(
                    400, "invalid_request",
                    "params.values must be a list or a "
                    "start:stop:count string",
                )
            params["values"] = expand_values(tokens)
        if "solver" in params:
            # Reject bad solver options at submit time: a worker would
            # only discover them hours later, after the queue drains.
            try:
                SolverOptions.from_dict(params["solver"])
            except SolverError as exc:
                raise ProtocolError(
                    400, "invalid_request",
                    f"invalid params.solver: {exc}",
                ) from exc
        priority = _field(
            payload, "priority", int, required=False, default=0
        )
        max_attempts = _field(
            payload, "max_attempts", int, required=False, default=3
        )
        if not 1 <= max_attempts <= 10:
            raise ProtocolError(
                400, "invalid_request", "max_attempts must be 1..10"
            )
        job = JobSpec(
            kind=kind, spec=spec, params=params,
            priority=priority, max_attempts=max_attempts,
        )
        record, created = await asyncio.to_thread(store.submit, job)
        self.engine.stats.increment(
            "jobs_submitted" if created else "jobs_dedup_hits"
        )
        return json_response(
            {"job": record.to_dict(), "created": created},
            status=202 if created else 200,
        )

    async def _jobs_index(self, request: Request) -> Response:
        store = self._jobs_store()
        state = request.query.get("state")
        kind = request.query.get("kind")
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise ProtocolError(
                400, "invalid_request", "limit must be an integer"
            ) from None
        records = await asyncio.to_thread(
            store.list_jobs, state, kind, max(1, min(limit, 500))
        )
        return json_response({
            "jobs": [record.to_dict() for record in records],
            "counts": await asyncio.to_thread(store.counts),
        })

    @staticmethod
    async def _job_record(action: Callable, job_id: str):
        """``action(job_id)`` on a worker thread; unknown ids are 404."""
        from ..jobs import JobNotFoundError

        try:
            return await asyncio.to_thread(action, job_id)
        except JobNotFoundError as error:
            raise ProtocolError(404, "job_not_found", str(error)) from None

    async def _job(self, request: Request, job_id: str) -> Response:
        record = await self._job_record(self._jobs_store().get, job_id)
        include_spec = request.query.get("include_spec") in ("1", "true")
        return json_response(
            {"job": record.to_dict(include_spec=include_spec)}
        )

    async def _job_cancel(self, request: Request, job_id: str) -> Response:
        record = await self._job_record(self._jobs_store().cancel, job_id)
        self.engine.stats.increment("jobs_cancel_requests")
        return json_response({"job": record.to_dict()})

    # ------------------------------------------------------------------
    # design-space study endpoints
    # ------------------------------------------------------------------
    def _study_document(
        self, payload: Mapping[str, object]
    ) -> Dict[str, object]:
        """The study document with its base resolved at the front door.

        Accepts an inline ``base`` spec or a ``model_ref`` registry
        reference — resolution happens once, here, so ref-based
        studies share their study id (and every cached candidate
        solve) with inline submission of the same exploration.
        """
        from ..studies.spec import SEARCH_KEYS

        has_base = "base" in payload
        has_ref = "model_ref" in payload
        if has_base == has_ref:
            raise ProtocolError(
                400, "invalid_request",
                "provide either 'base' or 'model_ref', not "
                + ("both" if has_base else "neither"),
            )
        if has_ref:
            ref = _field(payload, "model_ref", str)
            base = self._registry_required().resolve_spec(ref)
        else:
            base = _field(payload, "base", dict)
        document: Dict[str, object] = {"base": dict(base)}
        for key in SEARCH_KEYS:
            if key in payload:
                document[key] = payload[key]
        return document

    def _study_evaluator(self, study: "StudySpec", timeout):
        """Per-round evaluation, fanned over the cluster when the
        round has enough valid candidates to be worth sharding."""
        from ..studies import round_evaluator, study_digest

        coordinator = self.cluster

        def execute(plan) -> List[float]:
            if plan.total < coordinator.config.fanout_threshold:
                return plan.solve_range(0, plan.total)
            values = coordinator.run_workload(plan, timeout)
            self.engine.stats.increment("cluster_study_rounds")
            return values

        return round_evaluator(
            self.engine,
            study,
            study_digest(study, database=self.database),
            execute,
        )

    def _run_study_sync(
        self, study: "StudySpec", use_cluster: bool, timeout
    ) -> Dict[str, object]:
        from ..studies import run_study

        evaluate = None
        if use_cluster and self.cluster is not None:
            evaluate = self._study_evaluator(study, timeout)
        return run_study(
            study,
            engine=self.engine,
            database=self.database,
            evaluate=evaluate,
        )

    def _study_admit(self, payload: Mapping[str, object]):
        """``(study, study_id, record, created)`` for a submit payload.

        Resolves, parses, digests and records the study in one go; a
        ``model_ref`` base is a registry read, so this runs on a worker
        thread, never on the event loop.
        """
        from ..studies import parse_study, study_digest

        study = parse_study(
            self._study_document(payload), database=self.database
        )
        study_id = study_digest(study, database=self.database)
        record, created = self.studies.submit(study_id, study.to_dict())
        return study, study_id, record, created

    async def _studies_submit(self, request: Request) -> Response:
        payload = request.json()
        study, study_id, record, created = await asyncio.to_thread(
            self._study_admit, payload
        )
        if not created and record.get("state") == "succeeded":
            self.engine.stats.increment("studies_dedup_hits")
            return json_response(
                {"study": record, "created": False}, status=200
            )
        use_cluster = _field(
            payload, "cluster", bool, required=False, default=True
        )
        timeout = _field(
            payload, "timeout_seconds", float, required=False
        )
        try:
            result = await asyncio.to_thread(
                self._run_study_sync, study, use_cluster, timeout
            )
        except Exception as error:
            await asyncio.to_thread(
                self.studies.fail,
                study_id,
                f"{type(error).__name__}: {error}",
            )
            self.engine.stats.increment("studies_failed")
            raise
        record = await asyncio.to_thread(
            self.studies.succeed, study_id, result
        )
        self.engine.stats.increment("studies_completed")
        return json_response(
            {"study": record, "created": created},
            status=201 if created else 200,
        )

    async def _studies_index(self, request: Request) -> Response:
        return json_response({
            "studies": await asyncio.to_thread(self.studies.list),
            "counts": await asyncio.to_thread(self.studies.counts),
        })

    async def _study(self, request: Request, study_id: str) -> Response:
        record = await asyncio.to_thread(self.studies.get, study_id)
        return json_response({"study": record})

    async def _study_result(self, study_id: str) -> Dict[str, object]:
        """A finished study's result; 409 while it has none yet."""
        record = await asyncio.to_thread(self.studies.get, study_id)
        result = record.get("result")
        if not isinstance(result, dict):
            raise ProtocolError(
                409, "study_not_finished",
                f"study {study_id} is {record.get('state')}; "
                "no result yet",
            )
        return result

    async def _study_front(
        self, request: Request, study_id: str
    ) -> Response:
        from ..studies import front_rows

        result = await self._study_result(study_id)
        return json_response({
            "study_id": study_id,
            "front": front_rows(result),
            "winner": result.get("winner"),
            "result_digest": result.get("result_digest"),
        })

    async def _study_candidate(
        self, request: Request, study_id: str, index: str
    ) -> Response:
        result = await self._study_result(study_id)
        try:
            position = int(index)
        except ValueError:
            raise ProtocolError(
                400, "invalid_request",
                "candidate index must be an integer",
            ) from None
        for row in result.get("candidates", []):
            if row.get("index") == position:
                return json_response({
                    "study_id": study_id,
                    "candidate": row,
                    "on_front": position in result.get("front", []),
                })
        return error_response(
            404, "not_found",
            f"study {study_id} has no candidate {position}",
        )

    # ------------------------------------------------------------------
    # model-registry endpoints
    # ------------------------------------------------------------------
    def _registry_required(self) -> "ModelRegistry":
        if self.registry is None:
            raise ProtocolError(
                503, "registry_disabled",
                "this server was started without a model registry; "
                "rascad serve attaches one by default",
            )
        return self.registry

    async def _models_index(self, request: Request) -> Response:
        registry = self._registry_required()
        return json_response({
            "models": await asyncio.to_thread(registry.list_models),
        })

    async def _models_publish(self, request: Request) -> Response:
        registry = self._registry_required()
        payload = request.json()
        name = _field(payload, "name", str)
        spec = _field(payload, "spec", dict)
        tag = _field(payload, "tag", str, required=False)
        force = _field(
            payload, "force", bool, required=False, default=False
        )
        threshold = _field(payload, "threshold", float, required=False)
        description = _field(
            payload, "description", str, required=False
        )
        result = await asyncio.to_thread(
            registry.publish, spec, name,
            description=description, tag=tag, force=force,
            threshold=threshold,
        )
        return json_response(
            result.to_dict(), status=201 if result.created else 200
        )

    async def _model(self, request: Request, name: str) -> Response:
        return json_response({
            "model": await asyncio.to_thread(
                self._registry_required().model_detail, name
            ),
        })

    async def _model_version(
        self, request: Request, name: str, digest: str
    ) -> Response:
        record = await asyncio.to_thread(
            self._registry_required().version_detail, name, digest
        )
        include_spec = request.query.get("include_spec") in ("1", "true")
        return json_response({
            "version": record.to_dict(include_spec=include_spec),
        })

    async def _model_tags(self, request: Request, name: str) -> Response:
        """Move a tag to a version, or roll it back one step."""
        registry = self._registry_required()
        payload = request.json()
        tag = _field(payload, "tag", str)
        rollback = _field(
            payload, "rollback", bool, required=False, default=False
        )
        if rollback:
            current, previous = await asyncio.to_thread(
                registry.rollback, name, tag
            )
            return json_response({
                "name": name,
                "tag": tag,
                "rolled_back_from": current,
                "digest": previous,
            })
        selector = _field(payload, "digest", str, required=False)
        if selector is None:
            selector = _field(payload, "ref", str, required=False)
        if selector is None:
            raise ProtocolError(
                400, "invalid_request",
                "tag moves need 'digest' (or 'ref'), or "
                "'rollback': true",
            )
        previous, digest = await asyncio.to_thread(
            registry.move_tag, name, tag, selector
        )
        return json_response({
            "name": name,
            "tag": tag,
            "previous": previous,
            "digest": digest,
        })

    # ------------------------------------------------------------------
    # library + observability endpoints
    # ------------------------------------------------------------------
    async def _library_index(self, request: Request) -> Response:
        """Library names — a compatibility shim over the registry.

        With a registry attached the index lists every registered
        model (the library seeds are published at startup); without
        one it falls back to the built-in factories.
        """
        if self.registry is not None:
            names = await asyncio.to_thread(self.registry.names)
            return json_response({"models": names})
        return json_response({"models": sorted(LIBRARY_MODELS)})

    async def _library(self, request: Request, name: str) -> Response:
        if self.registry is not None:
            spec = await asyncio.to_thread(self.registry.resolve_spec, name)
            return json_response(spec)
        factory = LIBRARY_MODELS.get(name)
        if factory is None:
            return error_response(
                404, "not_found",
                f"no library model {name!r}; "
                f"known: {sorted(LIBRARY_MODELS)}",
            )
        return json_response(model_to_spec(factory()))

    def _healthz(self, request: Request) -> Response:
        return json_response({
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started_at,
            "in_flight": self.in_flight,
            "queue_depth": self.queue.depth,
        })

    def _service_section(self) -> Dict[str, object]:
        """The loop-owned gauges of the ``service`` metrics block.

        The admission-pressure gauges operators watch during overload:
        current and peak queue depth / in-flight requests, and
        saturation as a fraction of the admission bound.  Read on the
        loop; :meth:`_metrics_document` adds the job, study and
        cluster counts on a worker thread.
        """
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "in_flight": self.in_flight,
            "in_flight_peak": self.in_flight_peak,
            "queue_depth": self.queue.depth,
            "queue_depth_peak": self.queue.depth_peak,
            "queue_saturation": self.queue.depth / self.queue.max_queue,
            "max_queue": self.queue.max_queue,
        }

    def _storage_section(self) -> Dict[str, object]:
        """Per-store database health: the ``storage`` metrics block.

        One entry per attached store, each the
        :meth:`repro.store.SqliteStore.health` payload — size,
        ``user_version``, transaction and busy-retry totals — rendered
        as ``rascad_store_*`` series in the Prometheus exposition.
        """
        stores: Dict[str, object] = {}
        if self.jobs is not None:
            stores["jobs"] = self.jobs.db.health()
        if self.cluster is not None:
            stores["cluster"] = self.cluster.store.db.health()
        if self.registry is not None:
            stores["registry"] = self.registry.store.db.health()
        stores["studies"] = self.studies.db.health()
        if self.telemetry is not None:
            stores["telemetry"] = self.telemetry.db.health()
        return stores

    def _debug_traces(self, request: Request) -> Response:
        """Recent spans from the in-memory ring, newest first.

        Query parameters: ``trace_id`` and ``name`` filter, ``limit``
        caps the result (default 100, max 1000).  Answers
        ``404 tracing_disabled`` when the process runs without tracing.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return error_response(
                404, "tracing_disabled",
                "tracing is off; start the server with --trace-dir "
                "or --trace",
            )
        try:
            limit = int(request.query.get("limit", "100"))
        except ValueError:
            raise ProtocolError(
                400, "invalid_request", "limit must be an integer"
            ) from None
        spans = tracer.exporter.recent(
            limit=max(1, min(limit, 1000)),
            trace_id=request.query.get("trace_id"),
            name=request.query.get("name"),
        )
        return json_response({
            "spans": spans,
            "buffered": len(tracer.exporter),
            "dropped": tracer.exporter.dropped,
        })

    def _metrics_document(
        self, service: Dict[str, object]
    ) -> Dict[str, object]:
        """The ``/metrics`` document around the loop's ``service`` gauges.

        Every read here may wait on a store or a lock — job and study
        counts, registry and hub counts, store health, the cache's disk
        walk — so it runs on a worker thread.
        """
        if self.jobs is not None:
            for state, count in self.jobs.counts().items():
                service[f"jobs_{state}"] = count
        for state, count in self.studies.counts().items():
            service[f"studies_{state}"] = count
        cluster = self.cluster
        if cluster is not None:
            service["cluster_workers_alive"] = len(
                cluster.membership.alive()
            )
            service["cluster_workers_known"] = len(cluster.membership)
            service["cluster_jobs_completed"] = cluster.jobs_completed
            service["cluster_shards_completed"] = cluster.shards_completed
            service["cluster_shards_stolen"] = cluster.shards_stolen
            service["cluster_shards_retried"] = cluster.shards_retried
        disk_usage = None
        if self.engine.cache is not None:
            disk_usage = self.engine.cache.disk_usage()
        payload = metrics_payload(
            self.engine.stats_snapshot(),
            disk_usage=disk_usage,
            service=service,
        )
        if self.registry is not None:
            payload["registry"] = self.registry.counts()
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.counts()
        if cluster is not None:
            payload["cluster"] = {
                "workers": cluster.membership.snapshot(),
                "totals": {
                    "jobs_completed": cluster.jobs_completed,
                    "shards_completed": cluster.shards_completed,
                    "shards_stolen": cluster.shards_stolen,
                    "shards_retried": cluster.shards_retried,
                },
            }
        payload["storage"] = self._storage_section()
        return payload

    async def _metrics(self, request: Request) -> Response:
        payload = await asyncio.to_thread(
            self._metrics_document, self._service_section()
        )
        wants_prometheus = (
            request.query.get("format") == "prometheus"
            or "text/plain" in request.headers.get("accept", "")
        )
        if not wants_prometheus:
            return json_response(payload)
        return Response(
            body=render_prometheus(payload).encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    #: Every route the service answers, one row each.
    ROUTES = RouteTable(
        (
            ("POST", "/v1/solve", _solve),
            ("POST", "/v1/sweep", _sweep),
            ("POST", "/v1/validate", _validate),
            ("POST", "/v1/jobs", _jobs_submit),
            ("GET", "/v1/jobs", _jobs_index),
            ("GET", "/v1/jobs/{id}", _job),
            ("POST", "/v1/jobs/{id}/cancel", _job_cancel),
            ("POST", "/v1/studies", _studies_submit),
            ("GET", "/v1/studies", _studies_index),
            ("GET", "/v1/studies/{id}", _study),
            ("GET", "/v1/studies/{id}/front", _study_front),
            ("GET", "/v1/studies/{id}/candidates/{index}", _study_candidate),
            ("GET", "/v1/models", _models_index),
            ("POST", "/v1/models", _models_publish),
            ("GET", "/v1/models/{name}", _model),
            ("GET", "/v1/models/{name}/versions/{digest}", _model_version),
            ("POST", "/v1/models/{name}/tags", _model_tags),
            ("GET", "/v1/library", _library_index),
            ("GET", "/v1/library/{name}", _library),
            ("POST", "/v1/cluster/workers", _cluster_register),
            ("GET", "/v1/cluster/workers", _cluster_workers),
            ("GET", "/v1/cluster/status", _cluster_status),
            ("POST", "/v1/events", _events_ingest),
            ("GET", "/v1/calibration", _calibration_status),
            ("GET", "/v1/calibration/proposal", _calibration_proposal),
            ("POST", "/v1/calibration/propose", _calibration_propose),
            ("POST", "/v1/calibration/publish", _calibration_publish),
            ("GET", "/healthz", _healthz),
            ("GET", "/metrics", _metrics),
            ("GET", "/debug/traces", _debug_traces),
        ),
        not_allowed=_method_not_allowed,
        not_found=_not_found,
    )


def solution_payload(
    solution: SystemSolution, mission: Optional[float] = None
) -> Dict[str, object]:
    """The ``POST /v1/solve`` response body for a solved model.

    Derives the same measure set the CLI prints, from the same
    :func:`repro.core.compute_measures` call — byte-for-byte the CLI's
    numbers.
    """
    return measures_payload(
        solution.model.name,
        compute_measures(solution, mission_time_hours=mission),
    )


def measures_payload(
    model_name: str, measures: SystemMeasures
) -> Dict[str, object]:
    """The ``POST /v1/solve`` response body for a model's measure set.

    A pure function of its arguments, so a cached measure set gives
    the same bytes as a freshly computed one.
    """
    return {
        "model": model_name,
        "availability": measures.availability,
        "nines": nines(measures.availability),
        "yearly_downtime_minutes": measures.yearly_downtime_minutes,
        "failures_per_year": measures.failures_per_year,
        "mean_downtime_minutes": measures.mean_downtime_hours * 60.0,
        "mission_time_hours": measures.mission_time_hours,
        "interval_availability": measures.interval_availability,
        "reliability_at_mission": measures.reliability_at_mission,
        "mttf_hours": measures.mttf_hours,
    }


#: Characters legal in a Prometheus metric name (after the first).
_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """``name`` coerced into a valid Prometheus metric name."""
    cleaned = _METRIC_NAME_RE.sub("_", name)
    if not cleaned:
        return "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """A label value escaped per the Prometheus exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping inside a quoted label value.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(value: str) -> str:
    """``# HELP`` text escaped to stay on one exposition line.

    The format escapes backslash and newline in help text; carriage
    return is escaped too so no parser ever sees a bare line break.
    """
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def format_metric_value(value: object) -> str:
    """One sample value, formatted to round-trip exactly.

    Integral values render as bare integers (``1``, not ``1.0``);
    everything else uses ``repr``'s shortest form, which ``float()``
    parses back to the identical double.
    """
    number = float(value)  # type: ignore[arg-type]
    if number != number or number in (float("inf"), float("-inf")):
        return repr(number).replace("inf", "Inf").replace("nan", "NaN")
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _MetricFamilies:
    """Accumulates samples grouped into ``# HELP``/``# TYPE`` families."""

    def __init__(self) -> None:
        # family name -> (type, help, [(suffix, labels, value), ...])
        self._families: Dict[str, tuple] = {}

    def _family(self, name: str, kind: str, help_text: str) -> list:
        entry = self._families.get(name)
        if entry is None:
            entry = (kind, help_text, [])
            self._families[name] = entry
        return entry[2]

    def add(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: object,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        family = "rascad_" + metric_name(name)
        if kind == "counter" and not family.endswith("_total"):
            family += "_total"
        self._family(family, kind, help_text).append(
            ("", dict(labels or {}), value)
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Mapping[str, str],
        summary: Mapping[str, object],
    ) -> None:
        """One serialized :class:`~repro.obs.histogram.Histogram`."""
        family = "rascad_" + metric_name(name)
        samples = self._family(family, "histogram", help_text)
        buckets = summary.get("buckets")
        if isinstance(buckets, Mapping):
            for le, count in buckets.items():
                if isinstance(count, bool) or not isinstance(
                    count, (int, float)
                ):
                    continue
                samples.append(
                    ("_bucket", {**labels, "le": str(le)}, count)
                )
        for suffix, key in (("_sum", "sum"), ("_count", "count")):
            value = summary.get(key)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            samples.append((suffix, dict(labels), value))

    def render(self) -> str:
        lines: List[str] = []
        for family, (kind, help_text, samples) in self._families.items():
            if not samples:
                continue
            lines.append(f"# HELP {family} {escape_help_text(help_text)}")
            lines.append(f"# TYPE {family} {kind}")
            for suffix, labels, value in samples:
                if labels:
                    rendered = ",".join(
                        f'{metric_name(key)}="{escape_label_value(str(val))}"'
                        for key, val in labels.items()
                    )
                    label_part = "{" + rendered + "}"
                else:
                    label_part = ""
                lines.append(
                    f"{family}{suffix}{label_part} "
                    f"{format_metric_value(value)}"
                )
        return "\n".join(lines) + "\n"


def render_prometheus(payload: Mapping[str, object]) -> str:
    """Render the JSON metrics document as Prometheus exposition text.

    Every numeric leaf of the document becomes exactly one sample in a
    ``# HELP``/``# TYPE``-announced family: monotonic counts become
    counters (``_total``), point-in-time values become gauges, and
    per-route latency becomes a native histogram
    (``_bucket``/``_sum``/``_count``) — label values escaped per the
    exposition format.
    """
    doc = _MetricFamilies()
    engine = payload.get("engine")
    if isinstance(engine, Mapping):
        for key, value in sorted(engine.items()):
            if key == "stage_seconds" and isinstance(value, Mapping):
                for stage, seconds in sorted(value.items()):
                    doc.add(
                        "engine_stage_seconds", "counter",
                        "Wall time accumulated per engine stage.",
                        seconds, {"stage": str(stage)},
                    )
            elif key == "counters" and isinstance(value, Mapping):
                for counter, count in sorted(value.items()):
                    if counter.startswith("solves_by_backend."):
                        backend = counter.split(".", 1)[1]
                        doc.add(
                            "solves_by_backend", "counter",
                            "Computed solves by numerical backend.",
                            count, {"backend": backend},
                        )
                        continue
                    doc.add(
                        counter, "counter",
                        f"Engine counter {counter}.", count,
                    )
            elif key == "gauges" and isinstance(value, Mapping):
                for gauge, reading in sorted(value.items()):
                    doc.add(
                        gauge, "gauge",
                        f"Service gauge {gauge}.", reading,
                    )
            elif key == "route_counts" and isinstance(value, Mapping):
                for route_status, count in sorted(value.items()):
                    route, _, status = route_status.rpartition(" ")
                    doc.add(
                        "requests_total", "counter",
                        "Requests served by route and status.",
                        count, {"route": route, "status": status},
                    )
            elif key == "latency" and isinstance(value, Mapping):
                for route, summary in sorted(value.items()):
                    if not isinstance(summary, Mapping):
                        continue
                    if "buckets" in summary:
                        doc.histogram(
                            "latency_seconds",
                            "Request latency by route, in seconds.",
                            {"route": str(route)}, summary,
                        )
                    else:
                        # A legacy quantile summary (pre-histogram
                        # stats.json rendered via ``rascad stats``).
                        for quantile, seconds in sorted(summary.items()):
                            doc.add(
                                "latency_seconds", "gauge",
                                "Request latency by route, in seconds.",
                                seconds,
                                {
                                    "route": str(route),
                                    "quantile": str(quantile),
                                },
                            )
            elif key in NAMED_COUNTERS:
                doc.add(
                    f"engine_{key}", "counter",
                    f"Engine counter {key}.", value,
                )
            elif key == "busy_seconds":
                doc.add(
                    "engine_busy_seconds", "counter",
                    "Summed per-task execution time.", value,
                )
            else:
                doc.add(
                    f"engine_{key}", "gauge",
                    f"Engine gauge {key}.", value,
                )
    for section in ("derived", "cache", "service", "registry", "telemetry"):
        values = payload.get(section)
        if isinstance(values, Mapping):
            for key, value in sorted(values.items()):
                doc.add(
                    f"{section}_{key}", "gauge",
                    f"{section.capitalize()} gauge {key}.", value,
                )
    cluster = payload.get("cluster")
    if isinstance(cluster, Mapping):
        workers = cluster.get("workers")
        if isinstance(workers, list):
            for row in workers:
                if not isinstance(row, Mapping):
                    continue
                labels = {"worker": str(row.get("id", ""))}
                doc.add(
                    "cluster_worker_up", "gauge",
                    "Worker liveness (1 = eligible for placement).",
                    1 if row.get("state") == "alive" else 0, labels,
                )
                doc.add(
                    "cluster_worker_in_flight", "gauge",
                    "Shards currently executing on the worker.",
                    row.get("in_flight"), labels,
                )
                for counter in (
                    "shards_done", "shards_failed", "shards_stolen"
                ):
                    doc.add(
                        f"cluster_worker_{counter}", "counter",
                        f"Per-worker {counter.replace('_', ' ')}.",
                        row.get(counter), labels,
                    )
        # Fleet totals are NOT emitted here: the coordinator's stats
        # collector already counts them (cluster_shards_completed and
        # friends render from the engine counters section), and a
        # family must not carry duplicate samples.
    storage = payload.get("storage")
    if isinstance(storage, Mapping):
        for store_name, health in sorted(storage.items()):
            if not isinstance(health, Mapping):
                continue
            labels = {"store": str(store_name)}
            doc.add(
                "store_size_bytes", "gauge",
                "Store database footprint in bytes (db + WAL + SHM).",
                health.get("size_bytes"), labels,
            )
            doc.add(
                "store_user_version", "gauge",
                "Applied schema version (PRAGMA user_version).",
                health.get("user_version"), labels,
            )
            doc.add(
                "store_transactions", "counter",
                "Committed store transactions.",
                health.get("transactions"), labels,
            )
            doc.add(
                "store_busy_retries", "counter",
                "Transaction attempts that found the database locked.",
                health.get("busy_retries"), labels,
            )
            doc.add(
                "store_txn_seconds", "counter",
                "Summed store transaction latency, in seconds.",
                health.get("txn_seconds_total"), labels,
            )
    return doc.render()


async def _maybe_await(value):
    if asyncio.iscoroutine(value):
        return await value
    return value
