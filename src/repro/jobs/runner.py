"""The worker loop: lease, execute in checkpointed chunks, resume.

Execution is *point-wise*: every job kind decomposes into an ordered
list of scalar point computations (sweep points, uncertainty samples,
simulation replications), each a pure function of the job spec and the
point index.  The runner solves points in chunks through the existing
:class:`repro.engine.Engine` (fanning out over its process pool when
``jobs > 1``), and after every chunk durably records the completed
prefix as a :class:`~repro.jobs.types.Checkpoint` in the job's row, in
the same store transaction as its heartbeat.

Because points are pure and the final aggregation is a pure function of
the *complete* value list, a run that crashes (SIGKILL) or is preempted
(SIGTERM) and later resumed by any worker produces a result payload
bit-identical to an uninterrupted run — and re-solves only the points
past the last checkpoint.

A :class:`Plan` is each kind's one definition, and it has two
executors.  ``solve_range`` computes a ``[lo, hi)`` range of points in
process; kinds a :class:`repro.cluster.Coordinator` can shard (sweeps
here, study rounds in :func:`repro.studies.round_plan`) also name
their workload for its digest and compute the same range over the
worker HTTP routes with ``fleet_range``.  Either way the points go
through the one ``aggregate``, so a ``rascad jobs`` sweep result and a
coordinator-merged ``/v1/sweep`` body are the same bytes by
construction.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..core.block import DiagramBlockModel
from ..engine import (
    Engine,
    default_cache_dir,
    draw_variants,
    sweep_payload,
    sweep_points,
    uncertainty_summary,
    validate_payload,
)
from ..errors import SolverError, SpecError, StoreBusyError
from ..num import SolverOptions, as_options
from ..obs import get_logger, get_tracer
from ..spec import parse_spec
from .retry import backoff_delay, classify, is_permanent
from .store import JOBS_DB_FILENAME, JobStore
from .types import (
    Checkpoint,
    JobRecord,
    JobSpec,
    distribution_from_dict,
    result_digest,
    workload_digest,
)

#: Points solved between durable checkpoints (and heartbeats).
DEFAULT_CHECKPOINT_EVERY = 25


#: One worker ``POST``: ``call(path, payload)`` answers the JSON body.
WorkerCall = Callable[[str, Dict[str, object]], Mapping[str, object]]


@dataclass
class Plan:
    """A job decomposed into point computations plus an aggregation.

    ``solve_range(lo, hi)`` may return fewer than ``hi - lo`` values —
    adaptive kinds (studies) clamp chunks to their round boundaries,
    and the runner simply keeps calling until ``total`` values exist.
    ``resume``, when set, is called once with the checkpointed value
    prefix before any solving, so plans that carry internal search
    state (again: studies) can replay it.

    Shardable kinds also set ``workload``, the document their
    :attr:`digest` covers (built on demand: in-process runs never need
    it), and ``fleet_range(call, lo, hi)``, which computes exactly
    ``solve_range(lo, hi)``'s values through worker routes.
    """

    total: int
    solve_range: Callable[[int, int], List[float]]
    aggregate: Callable[[List[float]], Any]
    resume: Optional[Callable[[List[float]], None]] = None
    workload: Optional[Callable[[], Dict[str, object]]] = None
    fleet_range: Optional[Callable[[WorkerCall, int, int], List[float]]] = (
        None
    )

    @cached_property
    def digest(self) -> str:
        """The workload digest shard ids derive from (``wl-...``)."""
        return workload_digest(self.workload())


def _require(params, key: str, kind_name: str):
    if key not in params:
        raise SpecError(f"{kind_name} job requires params.{key}")
    return params[key]


def _solver_options(params, kind_name: str) -> SolverOptions:
    """The job's solver configuration from ``params``.

    ``params.solver`` (a full options object) wins over the legacy
    ``params.method`` string.  Both live in the job's persisted,
    digested parameters, so a resumed job re-plans with exactly the
    backend it started with.  Bad names or tolerances are the
    submitter's fault — a permanent :class:`~repro.errors.SpecError`,
    not a retryable solver failure.
    """
    raw = params.get("solver")
    if raw is None:
        raw = str(params.get("method", "direct"))
    try:
        return as_options(raw)
    except SolverError as exc:
        raise SpecError(
            f"{kind_name} job has invalid params.solver: {exc}"
        ) from exc


def _number(params, key: str, default, cast, kind_name: str):
    """``cast(params[key])``; an unparseable value is a permanent
    :class:`~repro.errors.SpecError`, not a retryable ``ValueError``."""
    raw = params.get(key, default)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"{kind_name} job has invalid params.{key}: {raw!r}"
        ) from exc


def _float_list(raw: object, label: str) -> List[float]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SpecError(f"{label} must be a non-empty list of numbers")
    values: List[float] = []
    for position, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{label}[{position}] must be a number")
        values.append(float(value))
    return values


def plan_job(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    """Validate a job's parameters and build its execution plan.

    Parameter problems raise :class:`~repro.errors.SpecError` —
    permanent failures, classified as such by the retry policy.
    """
    if spec.kind == "sweep":
        return _plan_sweep(spec, model, engine)
    if spec.kind == "uncertainty":
        return _plan_uncertainty(spec, model, engine)
    if spec.kind == "validate":
        return _plan_validate(spec, model, engine)
    if spec.kind == "study":
        return _plan_study(spec, model, engine)
    if spec.kind == "calibration":
        return _plan_calibration(spec, model, engine)
    raise SpecError(f"unknown job kind {spec.kind!r}")


def _plan_sweep(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    params = spec.params
    return sweep_plan(
        model,
        engine,
        spec.spec,
        str(_require(params, "field", "sweep")),
        _float_list(_require(params, "values", "sweep"), "params.values"),
        params.get("block"),
        _solver_options(params, "sweep"),
    )


def sweep_plan(
    model: DiagramBlockModel,
    engine: Engine,
    spec_doc: Mapping[str, object],
    field: str,
    values: List[float],
    block: Optional[str],
    method: SolverOptions,
) -> Plan:
    """A sweep of one field: a point per value, its availability.

    The fleet executor sends one ``/v1/sweep`` per range with the
    value slice and the fully resolved solver pinned, so every worker
    computes with the same numerics.  ``spec_doc`` is the model's
    resolved document, so the digest never depends on how a client
    spelled the model.
    """
    solver = method.to_dict()

    def solve_range(lo: int, hi: int) -> List[float]:
        return engine.sweep_availabilities(
            model, block, field, values[lo:hi], method
        )

    def fleet_range(call: WorkerCall, lo: int, hi: int) -> List[float]:
        payload: Dict[str, object] = {
            "spec": spec_doc,
            "field": field,
            "values": values[lo:hi],
            "solver": solver,
            # Shard requests never fan out again, even if the worker
            # happens to be a coordinator itself.
            "cluster": False,
        }
        if block is not None:
            payload["block"] = block
        points = call("/v1/sweep", payload).get("points")
        if not isinstance(points, list) or len(points) != hi - lo:
            count = len(points) if isinstance(points, list) else 0
            raise SpecError(
                f"worker returned {count} points for range [{lo}, {hi})"
            )
        return [float(point["availability"]) for point in points]

    def aggregate(availabilities: List[float]) -> Dict[str, object]:
        return {
            "kind": "sweep",
            **sweep_payload(
                model.name, field, block,
                sweep_points(values, availabilities),
            ),
        }

    def workload() -> Dict[str, object]:
        return {
            "kind": "sweep", "spec": spec_doc, "field": field,
            "block": block, "values": values, "solver": solver,
        }

    return Plan(
        len(values), solve_range, aggregate,
        workload=workload, fleet_range=fleet_range,
    )


def _plan_uncertainty(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    from ..analysis.uncertainty import UncertainField

    params = spec.params
    samples = _number(params, "samples", 100, int, "uncertainty")
    if samples < 2:
        raise SpecError(f"need at least 2 samples, got {samples}")
    method = _solver_options(params, "uncertainty")
    entries = _require(params, "uncertain", "uncertainty")
    if not isinstance(entries, (list, tuple)) or not entries:
        raise SpecError("params.uncertain must be a non-empty list")
    uncertain = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpecError("each uncertain entry must be an object")
        uncertain.append(UncertainField(
            str(_require(entry, "path", "uncertainty")),
            str(_require(entry, "field", "uncertainty")),
            distribution_from_dict(
                _require(entry, "distribution", "uncertainty")
            ),
        ))
    # The draw of Engine.propagate_uncertainty, so the variants (and
    # hence the results) match an online run of the same spec.
    variants = draw_variants(model, uncertain, samples, params.get("seed"))

    def solve_range(lo: int, hi: int) -> List[float]:
        return engine.variant_availabilities(variants[lo:hi], method)

    def aggregate(availabilities: List[float]) -> Dict[str, object]:
        return {
            "kind": "uncertainty",
            "model": model.name,
            "samples": samples,
            **uncertainty_summary(availabilities),
        }

    return Plan(samples, solve_range, aggregate)


def _plan_validate(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    from ..semimarkov.simulation import _summarize

    params = spec.params
    replications = _number(params, "replications", 40, int, "validate")
    if replications < 2:
        raise SpecError(
            f"need at least 2 replications, got {replications}"
        )
    horizon = _number(params, "horizon", 30_000.0, float, "validate")
    # Resumes must be seeded: a missing or null seed is seed 0.
    seed = (
        0 if params.get("seed") is None
        else _number(params, "seed", 0, int, "validate")
    )
    method = _solver_options(params, "validate")
    solution = engine.solve(model, method)

    def solve_range(lo: int, hi: int) -> List[float]:
        return engine.replication_samples(solution, horizon, seed, lo, hi)

    def aggregate(samples: List[float]) -> Dict[str, object]:
        result = _summarize(np.asarray(samples, dtype=float), 0.95)
        return {
            "kind": "validate",
            **validate_payload(
                model.name, solution.availability, result, horizon
            ),
        }

    return Plan(replications, solve_range, aggregate)


def _plan_study(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    """A checkpointed, resumable design-space study.

    The study document is the job spec's model document as ``base``
    plus the search parameters from ``params``.  Strategy rounds are a
    pure function of the availability prefix, so the checkpointed
    scalar list *is* the whole search state: ``resume`` replays it,
    ``solve_range`` evaluates the current round's remainder (clamped
    to the chunk), and ``aggregate`` recomputes everything else.
    """
    from ..database import builtin_database
    from ..studies import (
        aggregate_study,
        make_strategy,
        parse_study,
        replay,
    )
    from ..studies.runner import evaluate_candidates
    from ..studies.spec import SEARCH_KEYS

    params = spec.params
    document: Dict[str, object] = {"base": dict(spec.spec)}
    for key in SEARCH_KEYS:
        if key in params:
            document[key] = params[key]
    database = builtin_database()
    study = parse_study(document, database=database)
    strategy = make_strategy(study, model, database)
    history: List[float] = []

    def resume(values: List[float]) -> None:
        history[:] = list(values)

    def solve_range(lo: int, hi: int) -> List[float]:
        if len(history) != lo:
            raise SolverError(
                f"study plan out of sync: history has {len(history)} "
                f"values, runner asked for range [{lo}, {hi})"
            )
        _trace, pending = replay(strategy, history)
        chunk = pending[:hi - lo]
        availabilities = evaluate_candidates(engine, chunk, study.method)
        history.extend(availabilities)
        return availabilities

    def aggregate(availabilities: List[float]) -> Dict[str, object]:
        return aggregate_study(
            study, strategy, availabilities, database=database
        )

    return Plan(strategy.total(), solve_range, aggregate, resume=resume)


def _plan_calibration(
    spec: JobSpec, model: DiagramBlockModel, engine: Engine
) -> Plan:
    """A checkpointed, resumable field-data calibration fit.

    The event stream is a pure function of the job's parameters —
    either regenerated synthetically from ``(spec, seed, window,
    shifts)`` or carried verbatim in ``params.source.events`` — so a
    point is simply "ingest chunk *i*" and its checkpointed scalar is
    the accepted-event count.  ``resume`` re-ingests the checkpointed
    prefix chunks into a fresh estimator (pure replay, like the study
    plan's history), which is why a SIGKILL'd fit resumes to the
    bit-identical estimator state, fitted rates, and proposal digest.
    """
    from ..telemetry import (
        DriftConfig,
        NoDriftError,
        OutOfOrderError,
        RateEstimator,
        TelemetryError,
        build_proposal,
        parse_events,
        synthetic_field_events,
    )

    params = spec.params
    source = _require(params, "source", "calibration")
    if not isinstance(source, dict) or "kind" not in source:
        raise SpecError(
            "params.source must be an object with a 'kind' key"
        )
    chunk_events = _number(params, "chunk_events", 256, int, "calibration")
    if chunk_events < 1:
        raise SpecError(
            f"chunk_events must be >= 1, got {chunk_events}"
        )
    window_hours = _number(
        params, "window_hours", 168.0, float, "calibration"
    )
    confidence = _number(params, "confidence", 0.95, float, "calibration")
    drift_raw = params.get("drift")
    if drift_raw is not None and not isinstance(drift_raw, dict):
        raise SpecError("params.drift must be an object")
    try:
        drift_config = DriftConfig(
            window_hours=window_hours, **(drift_raw or {})
        )
    except (TelemetryError, TypeError) as exc:
        raise SpecError(
            f"calibration job has invalid params.drift: {exc}"
        ) from exc
    options = _solver_options(params, "calibration")

    source_kind = source["kind"]
    if source_kind == "synthetic":
        try:
            events = synthetic_field_events(
                model,
                window_hours=float(
                    source.get("window_hours", 10_950.0)
                ),
                seed=int(source.get("seed", 0)),
                server=str(source.get("server", "server-A")),
                mtbf_shifts=source.get("shifts"),
            )
        except TelemetryError as exc:
            raise SpecError(
                f"calibration job has a bad synthetic source: {exc}"
            ) from exc
    elif source_kind == "events":
        try:
            events = parse_events(
                _require(source, "events", "calibration")
            )
            # Dry-run the full stream now so ordering problems are
            # permanent submission errors, not worker retries.
            probe = RateEstimator(window_hours=window_hours)
            probe.ingest_many(events)
        except OutOfOrderError as exc:
            raise SpecError(
                f"calibration job events are out of order: {exc}"
            ) from exc
        except TelemetryError as exc:
            raise SpecError(
                f"calibration job has malformed events: {exc}"
            ) from exc
    else:
        raise SpecError(
            f"unknown calibration source kind {source_kind!r}; "
            "known: ['synthetic', 'events']"
        )

    chunks = [
        events[lo:lo + chunk_events]
        for lo in range(0, len(events), chunk_events)
    ] or [[]]
    estimator = RateEstimator(window_hours=window_hours)
    ingested = [0]  # chunks folded into ``estimator`` so far

    def resume(values: List[float]) -> None:
        for index in range(len(values)):
            estimator.ingest_many(chunks[index])
        ingested[0] = len(values)

    def solve_range(lo: int, hi: int) -> List[float]:
        if ingested[0] != lo:
            raise SolverError(
                f"calibration plan out of sync: {ingested[0]} chunks "
                f"ingested, runner asked for range [{lo}, {hi})"
            )
        accepted: List[float] = []
        for index in range(lo, hi):
            count, _duplicates = estimator.ingest_many(chunks[index])
            accepted.append(float(count))
            ingested[0] = index + 1
        return accepted

    def aggregate(values: List[float]) -> Dict[str, object]:
        fitted = estimator.fit(confidence=confidence)
        try:
            proposal: Optional[Dict[str, object]] = build_proposal(
                estimator,
                model,
                engine,
                drift_config=drift_config,
                options=options,
                confidence=confidence,
            )
        except NoDriftError:
            proposal = None
        payload: Dict[str, object] = {
            "kind": "calibration",
            "model": model.name,
            "events_total": len(events),
            "accepted": int(sum(values)),
            "chunks": len(chunks),
            "state_digest": estimator.state_digest(),
            "event_window": estimator.event_window(),
            "fitted": fitted.to_dict(),
            "drifted": proposal is not None,
            "proposal": proposal,
        }
        return payload

    return Plan(len(chunks), solve_range, aggregate, resume=resume)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

#: Outcomes :func:`execute_job` can report.
SUCCEEDED = "succeeded"
RELEASED = "released"
CANCELLED = "cancelled"


def execute_job(
    record: JobRecord,
    store: JobStore,
    engine: Engine,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    should_stop: Optional[Callable[[], bool]] = None,
) -> str:
    """Run one leased job to completion, preemption, or cancellation.

    Raises on failure — the caller (the worker loop) owns the retry
    bookkeeping.  Between chunks the runner checks for a stop request
    (graceful preemption: release the lease, whose last chunk is
    already checkpointed, and exit) and for cancellation; after every
    chunk one store transaction checkpoints, heartbeats and reads the
    cancel flag.
    """
    spec = record.spec
    model = parse_spec(dict(spec.spec), database=store.database)
    plan = plan_job(spec, model, engine)
    stats = engine.stats

    checkpoint = store.load_checkpoint(record.id)
    if checkpoint is not None and (
        checkpoint.kind != spec.kind or checkpoint.total != plan.total
    ):
        checkpoint = None  # stale checkpoint from an older spec format
    values = list(checkpoint.values) if checkpoint is not None else []
    if values:
        stats.increment("jobs_points_resumed", len(values))
    if plan.resume is not None:
        plan.resume(list(values))

    tracer = get_tracer()
    log = get_logger("jobs")
    with tracer.span(
        "jobs.execute",
        job_id=record.id,
        kind=spec.kind,
        total=plan.total,
        resumed=len(values),
    ) as job_span:
        log.info(
            "executing job",
            extra={
                "job_id": record.id, "kind": spec.kind,
                "total": plan.total, "resumed": len(values),
            },
        )
        cancel = record.cancel_requested
        with stats.timer("jobs"):
            while len(values) < plan.total:
                if should_stop is not None and should_stop():
                    store.release(record.id)
                    stats.increment("jobs_released")
                    job_span.set_attr("outcome", RELEASED)
                    return RELEASED
                if cancel:
                    store.mark_cancelled(record.id)
                    stats.increment("jobs_cancelled")
                    job_span.set_attr("outcome", CANCELLED)
                    return CANCELLED
                lo = len(values)
                hi = min(lo + max(1, checkpoint_every), plan.total)
                # One span per chunk: a resumed job's trace starts at
                # the first un-checkpointed chunk, so the chunk spans
                # of one job across restarts tile its point range.
                with tracer.span(
                    "jobs.chunk", job_id=record.id, lo=lo, hi=hi
                ):
                    values.extend(plan.solve_range(lo, hi))
                cancel = store.save_checkpoint(
                    Checkpoint(record.id, spec.kind, plan.total, values)
                )
                stats.increment("jobs_points_completed", hi - lo)

        payload = plan.aggregate(values)
        payload["result_digest"] = result_digest(payload)
        store.succeed(record.id, payload)
        stats.increment("jobs_succeeded")
        job_span.set_attr("outcome", SUCCEEDED)
        log.info(
            "job succeeded",
            extra={"job_id": record.id, "kind": spec.kind},
        )
    return SUCCEEDED


@dataclass
class WorkerConfig:
    """Everything ``rascad jobs worker`` can configure.

    Attributes:
        name: Worker identity recorded on leased jobs.
        poll_interval: Seconds between lease attempts when idle.
        lease_timeout: Heartbeat age after which a running job is
            presumed crashed and reclaimed.
        checkpoint_every: Points per checkpoint/heartbeat chunk.
        once: Drain the queue, then exit instead of polling.
        max_jobs: Stop after this many processed jobs (None = no cap).
    """

    name: str = ""
    poll_interval: float = 0.2
    lease_timeout: float = 60.0
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    once: bool = False
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{socket.gethostname()}:{os.getpid()}"


class Worker:
    """The lease/execute/retry loop around one engine and one store."""

    def __init__(
        self,
        store: JobStore,
        engine: Engine,
        config: Optional[WorkerConfig] = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.config = config or WorkerConfig()
        self._stop = False

    def request_stop(self) -> None:
        """Finish and checkpoint the current chunk, release, and exit."""
        self._stop = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT become graceful preemption."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(
                    signum, lambda *_: self.request_stop()
                )
            except ValueError:  # pragma: no cover - non-main thread
                pass

    def process(self, record: JobRecord) -> str:
        """Execute one leased job, mapping failures through the retry
        policy; returns the outcome state."""
        try:
            return execute_job(
                record,
                self.store,
                self.engine,
                checkpoint_every=self.config.checkpoint_every,
                should_stop=lambda: self._stop,
            )
        except Exception as error:  # noqa: BLE001 - classified below
            retryable = not is_permanent(error)
            delay = (
                backoff_delay(record.attempts, key=record.id)
                if retryable
                else 0.0
            )
            state = self.store.fail(
                record.id,
                f"{classify(error)}: {type(error).__name__}: {error}",
                retryable=retryable,
                backoff=delay,
            )
            self.engine.stats.increment(
                "jobs_retried" if state == "queued" else "jobs_failed"
            )
            get_logger("jobs").warning(
                "job failed",
                extra={
                    "job_id": record.id,
                    "error_class": classify(error),
                    "retryable": retryable,
                    "state": state,
                },
            )
            return state

    def run(self) -> int:
        """The worker main loop; returns the number of processed jobs."""
        processed = 0
        config = self.config
        while not self._stop:
            try:
                record = self.store.lease(
                    worker=config.name, lease_timeout=config.lease_timeout
                )
            except StoreBusyError as busy:
                # Contention on the shared database is transient by
                # construction — wait out the hint and re-poll rather
                # than crashing the worker.
                get_logger("jobs").warning(
                    "job store busy; backing off",
                    extra={"retry_after": busy.retry_after},
                )
                time.sleep(max(busy.retry_after, config.poll_interval))
                continue
            if record is None:
                if config.once:
                    break
                time.sleep(config.poll_interval)
                continue
            self.process(record)
            processed += 1
            if config.max_jobs is not None and processed >= config.max_jobs:
                break
        return processed


def open_store(
    db_path: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    database=None,
) -> JobStore:
    """The job store the CLI and service share.

    Defaults to ``<cache-dir>/jobs.sqlite3`` so CLI workers and the
    HTTP service coordinate through the same file out of the box.
    """
    if db_path:
        return JobStore(Path(db_path).expanduser(), database=database)
    base = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
    return JobStore(base / JOBS_DB_FILENAME, database=database)
