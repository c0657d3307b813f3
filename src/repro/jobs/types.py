"""Job, checkpoint, and result types for the background-job subsystem.

A *job* is one offline batch workload — a parametric sweep, an
uncertainty propagation, or a Monte-Carlo validation — expressed as a
model spec plus kind-specific parameters.  Jobs are identified by a
**content digest**: the id hashes the parsed model (via
:func:`repro.engine.keys.model_digest`, so two spec documents that parse
to the same model share an id regardless of key order or spelled-out
defaults) together with the kind and canonicalized parameters.
Resubmitting an identical job therefore *is* the original job — the
store dedups on the primary key instead of enqueuing duplicate work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..database import PartsDatabase
from ..engine.keys import model_digest
from ..ident import content_digest, digest_id
from ..errors import SpecError
from ..semimarkov.distributions import (
    Distribution,
    Erlang,
    Lognormal,
    Uniform,
    Weibull,
)
from ..spec import parse_spec

#: Workload kinds the runner knows how to execute.
JOB_KINDS = ("sweep", "uncertainty", "validate", "study", "calibration")

#: Job state machine.  ``queued -> running -> succeeded | failed |
#: cancelled``; a transient failure or an expired lease moves a running
#: job back to ``queued`` until its attempt budget runs out.
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_STATES = (QUEUED, RUNNING, SUCCEEDED, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})

#: Distribution constructors an uncertainty job may name.
_DISTRIBUTIONS = {
    "uniform": Uniform,
    "lognormal": Lognormal,
    "weibull": Weibull,
    "erlang": Erlang,
}


def distribution_from_dict(payload: Mapping[str, object]) -> Distribution:
    """Build a sampling distribution from its JSON description.

    ``{"type": "uniform", "low": 2e4, "high": 8e4}`` and friends; the
    non-``type`` keys are the constructor's keyword arguments.
    """
    if not isinstance(payload, Mapping) or "type" not in payload:
        raise SpecError(
            "distribution must be an object with a 'type' key, "
            f"got {payload!r}"
        )
    kind = payload["type"]
    factory = _DISTRIBUTIONS.get(kind)  # type: ignore[arg-type]
    if factory is None:
        raise SpecError(
            f"unknown distribution type {kind!r}; "
            f"known: {sorted(_DISTRIBUTIONS)}"
        )
    kwargs = {k: v for k, v in payload.items() if k != "type"}
    try:
        return factory(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise SpecError(
            f"bad arguments for {kind!r} distribution: {exc}"
        ) from exc


@dataclass(frozen=True)
class JobSpec:
    """What a job should compute — the durable, hashable submission.

    Attributes:
        kind: One of :data:`JOB_KINDS`.
        spec: The model spec document (the ``repro.spec`` JSON format).
        params: Kind-specific parameters:

            * ``sweep`` — ``field`` (required), ``values`` (list of
              numbers, required), ``block`` (path; omit for a global
              field), ``method``.
            * ``uncertainty`` — ``uncertain`` (list of ``{path, field,
              distribution}``), ``samples``, ``seed``.
            * ``validate`` — ``replications``, ``horizon``, ``seed``,
              ``method``.
            * ``study`` — the study document minus ``base`` (``spec``
              is the base model): ``variables`` (required),
              ``strategy``, ``options``, ``constraints``, ``method``,
              ``name``.
            * ``calibration`` — ``source`` (required; ``{"kind":
              "synthetic", seed, window_hours, server, shifts}`` or
              ``{"kind": "events", "events": [...]}``),
              ``chunk_events``, ``window_hours``, ``drift`` (the
              detector config), ``confidence``, ``method``.
        priority: Higher runs first among queued jobs.
        max_attempts: Execution attempts before a transient failure
            becomes permanent.
    """

    kind: str
    spec: Mapping[str, object]
    params: Mapping[str, object] = field(default_factory=dict)
    priority: int = 0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise SpecError(
                f"unknown job kind {self.kind!r}; known: {list(JOB_KINDS)}"
            )
        if self.max_attempts < 1:
            raise SpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "spec": self.spec,
                "params": self.params,
                "priority": self.priority,
                "max_attempts": self.max_attempts,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        payload = json.loads(text)
        return cls(
            kind=payload["kind"],
            spec=payload["spec"],
            params=payload.get("params", {}),
            priority=int(payload.get("priority", 0)),
            max_attempts=int(payload.get("max_attempts", 3)),
        )


def job_digest(
    spec: JobSpec, database: Optional[PartsDatabase] = None
) -> str:
    """The content-digest job id for a submission.

    Parses the model spec (validating it in the process — a malformed
    spec fails *here*, at submission, not in a worker) and hashes the
    parsed model's engine digest with the kind and canonical-JSON
    parameters.  Two submissions share an id exactly when they describe
    the same computation.
    """
    model = parse_spec(dict(spec.spec), database=database)
    method = str(spec.params.get("method", "direct"))
    document = {
        "kind": spec.kind,
        "model": model_digest(model, method),
        "params": spec.params,
    }
    return digest_id("job", document, 32)


@dataclass(frozen=True)
class JobRecord:
    """One job's durable row: spec, state machine position, telemetry.

    Attributes mirror the SQLite schema; ``result`` is the payload of a
    succeeded job (including its ``result_digest``) and ``error`` the
    last failure message.
    """

    id: str
    kind: str
    state: str
    priority: int
    attempts: int
    max_attempts: int
    submitted_at: float
    updated_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    heartbeat_at: Optional[float]
    not_before: float
    cancel_requested: bool
    worker: Optional[str]
    error: Optional[str]
    spec_json: str
    result: Optional[Dict[str, object]]

    @property
    def spec(self) -> JobSpec:
        return JobSpec.from_json(self.spec_json)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_spec: bool = False) -> Dict[str, object]:
        """The API/CLI view of the record."""
        payload: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "heartbeat_at": self.heartbeat_at,
            "cancel_requested": self.cancel_requested,
            "worker": self.worker,
            "error": self.error,
            "result": self.result,
        }
        if include_spec:
            payload["spec"] = json.loads(self.spec_json)
        return payload


@dataclass
class Checkpoint:
    """A durable prefix of a job's computed point values.

    Stored in the job's row every ``checkpoint_every`` points, in the
    transaction that heartbeats the job, so after a crash the runner
    re-solves only points past the last checkpoint.  ``values`` is
    positional: index ``i`` holds point ``i``'s scalar result, and the
    aggregation over the *complete* list is a pure function — a resumed
    run is bit-identical to an uninterrupted one.
    """

    job_id: str
    kind: str
    total: int
    values: List[float] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "job_id": self.job_id,
                "kind": self.kind,
                "total": self.total,
                "values": self.values,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        payload = json.loads(text)
        return cls(
            job_id=payload["job_id"],
            kind=payload["kind"],
            total=int(payload["total"]),
            values=[float(v) for v in payload["values"]],
        )


def result_digest(payload: Mapping[str, object]) -> str:
    """Content digest of a result payload, for bit-identity checks."""
    return content_digest(payload)


def workload_digest(document: Mapping[str, object]) -> str:
    """The ``wl-`` id of a shardable workload document; cluster shard
    ids derive from it."""
    return digest_id("wl", document, 32)


def job_counts(records: "List[JobRecord]") -> Dict[str, int]:
    """Per-state totals for a record list (metrics helper)."""
    counts = {state: 0 for state in JOB_STATES}
    for record in records:
        counts[record.state] = counts.get(record.state, 0) + 1
    return counts
