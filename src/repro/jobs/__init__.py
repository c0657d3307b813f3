"""Durable background jobs — the offline half of the serving stack.

The online service (:mod:`repro.service`) answers interactive solves in
milliseconds; design-space studies are a different shape of work: a
5,000-point sweep or a long uncertainty run must survive process death,
not hold an HTTP connection open.  This package runs those workloads as
**durable jobs**:

* :mod:`.types` — job/checkpoint/result dataclasses and content-digest
  job ids (resubmitting an identical spec dedups to the original job).
* :mod:`.store` — the SQLite-backed job store: state machine,
  priorities, attempt budgets, heartbeat leases, and each job's
  checkpoint in its own row.
* :mod:`.retry` — permanent/transient failure classification over the
  :mod:`repro.errors` hierarchy; exponential backoff with
  deterministic jitter.
* :mod:`.runner` — the worker loop: lease, execute through the
  :mod:`repro.engine` pool in checkpointed chunks, resume after crash
  or SIGTERM with bit-identical results.

Semantics are **at-least-once**: a job may execute partially more than
once (a crash mid-chunk re-runs the points past its last checkpoint),
but checkpoints make re-execution cheap and the result is
deterministic, so duplicated work is invisible in the output.
"""

from .retry import backoff_delay, classify, is_permanent
from .runner import (
    Plan,
    Worker,
    WorkerConfig,
    execute_job,
    open_store,
    plan_job,
)
from .store import JOBS_DB_FILENAME, JobNotFoundError, JobStore
from .types import (
    CANCELLED,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    Checkpoint,
    JobRecord,
    JobSpec,
    distribution_from_dict,
    job_digest,
    result_digest,
)

__all__ = [
    "JobSpec",
    "JobRecord",
    "Checkpoint",
    "job_digest",
    "result_digest",
    "distribution_from_dict",
    "JOB_KINDS",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "JobStore",
    "JobNotFoundError",
    "JOBS_DB_FILENAME",
    "Plan",
    "Worker",
    "WorkerConfig",
    "execute_job",
    "plan_job",
    "open_store",
    "backoff_delay",
    "classify",
    "is_permanent",
]
