"""Shared builder for the golden-output fixture.

Where ``golden_digests.json`` pins the ids the system mints, this
fixture pins what it *answers*: the full result payload of every job
kind (run through :func:`repro.jobs.execute_job` at ``jobs=1`` and
``jobs=2``), the first checkpoint each kind writes, and the
``/v1/sweep``, ``/v1/validate`` and coordinator-merged sweep bodies of
an in-process :class:`repro.service.app.App`.  Every entry is a SHA-256
of canonical JSON (or of the raw response bytes), so a refactor that
moves a kind's math can never silently change an answer.

Regenerate (only when an output change is intentional) with::

    PYTHONPATH=src python tests/ident/_golden_outputs.py > \
        tests/ident/golden_outputs.json
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

OS_BLOCK = "Workgroup Server/Operating System"
FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"
SWEEP_VALUES = [5e4, 1e5, 1.5e5, 2e5, 2.5e5]

#: Kind -> job params over the workgroup spec; small and fully seeded.
JOB_PARAMS: Dict[str, Dict[str, object]] = {
    "sweep": {
        "field": "mtbf_hours", "block": OS_BLOCK, "values": SWEEP_VALUES,
    },
    "uncertainty": {
        "uncertain": [{
            "path": OS_BLOCK,
            "field": "mtbf_hours",
            "distribution": {"type": "uniform", "low": 1e5, "high": 5e5},
        }],
        "samples": 5,
        "seed": 11,
    },
    "validate": {"replications": 5, "horizon": 2_000.0, "seed": 7},
    "study": {
        "name": "wg",
        "strategy": "descent",
        "variables": [
            {"path": FAN, "field": "quantity", "values": [2, 3]},
            {"path": PSU, "field": "quantity", "values": [1, 2]},
        ],
    },
    "calibration": {
        "source": {
            "kind": "synthetic",
            "seed": 3,
            "window_hours": 10_950.0,
            "shifts": {OS_BLOCK: 0.01},
        },
        "chunk_events": 16,
    },
}

#: Points per chunk — small, so every kind runs several chunks.
CHECKPOINT_EVERY = 2


def _job_spec(kind: str):
    from repro.jobs import JobSpec
    from repro.library import workgroup_model
    from repro.spec import model_to_spec

    return JobSpec(
        kind=kind,
        spec=model_to_spec(workgroup_model()),
        params=JOB_PARAMS[kind],
    )


def _run_job(kind: str, jobs: int, root: Path) -> Dict[str, object]:
    """One uninterrupted run plus one preempted after its first chunk."""
    from repro.engine import Engine
    from repro.ident import content_digest
    from repro.jobs import JobStore, execute_job

    tag = f"{kind}-{jobs}"
    store = JobStore(root / f"{tag}.sqlite3")
    engine = Engine(jobs=jobs, cache_dir=root / f"{tag}-cache")
    record, _ = store.submit(_job_spec(kind))
    leased = store.lease("golden")
    outcome = execute_job(
        leased, store, engine, checkpoint_every=CHECKPOINT_EVERY,
    )
    result = store.get(record.id).result
    entry: Dict[str, object] = {
        "job_id": record.id,
        "outcome": outcome,
        "result_digest": result["result_digest"],
        "payload_digest": content_digest(result),
    }

    # The same job, preempted once its first chunk is checkpointed.
    stop_store = JobStore(root / f"{tag}-stop.sqlite3")
    stop_store.submit(_job_spec(kind))
    leased = stop_store.lease("golden")
    calls = {"n": 0}

    def should_stop() -> bool:
        calls["n"] += 1
        return calls["n"] > 1

    execute_job(
        leased, stop_store,
        Engine(jobs=jobs, cache_dir=root / f"{tag}-stop-cache"),
        checkpoint_every=CHECKPOINT_EVERY,
        should_stop=should_stop,
    )
    with stop_store.db.connection() as conn:
        (text,) = conn.execute(
            "SELECT checkpoint FROM jobs WHERE id = ?", (record.id,)
        ).fetchone()
    entry["checkpoint_digest"] = content_digest(json.loads(text))
    return entry


def _post(path: str, payload: Dict[str, object]):
    from repro.service.protocol import Request

    return Request(
        method="POST", path=path, query={}, headers={},
        body=json.dumps(payload).encode(),
    )


class _InProcessWorker:
    """A cluster worker client that calls a worker App without sockets."""

    def __init__(self, url: str, app) -> None:
        from repro.cluster.membership import worker_id_for

        self.url = url
        self.worker_id = worker_id_for(url)
        self._app = app

    def call(self, path, payload, trace_header=None):
        response = asyncio.run(self._app.handle(_post(path, payload)))
        if response.status != 200:
            raise RuntimeError(response.body.decode())
        return json.loads(response.body)


def _service_bodies() -> Dict[str, object]:
    from repro.cluster import ClusterConfig, Coordinator, Membership
    from repro.engine import Engine
    from repro.ident import sha256_hex
    from repro.library import workgroup_model
    from repro.service.app import App
    from repro.service.queue import SolveQueue
    from repro.spec import model_to_spec

    spec = model_to_spec(workgroup_model())
    sweep = {
        "spec": spec, "field": "mtbf_hours", "block": OS_BLOCK,
        "values": SWEEP_VALUES,
    }
    validate = {
        "spec": spec, "replications": 6, "horizon": 2_000.0, "seed": 5,
    }
    worker_app = App(Engine(), SolveQueue(Engine()))
    config = ClusterConfig(
        workers=("http://golden-worker:1",), shard_size=2,
        heartbeat_interval=0.01,
    )
    coordinator = Coordinator(
        Membership(lease_timeout=config.lease_timeout),
        config=config,
        client_factory=lambda url, timeout=None: _InProcessWorker(
            url, worker_app
        ),
    )

    async def go() -> Dict[str, object]:
        engine = Engine()
        queue = SolveQueue(engine)
        app = App(engine, queue)
        cluster_engine = Engine()
        cluster_queue = SolveQueue(cluster_engine)
        cluster_app = App(cluster_engine, cluster_queue, cluster=coordinator)
        bodies: Dict[str, object] = {}
        try:
            for name, target, path, payload in (
                ("sweep", app, "/v1/sweep", sweep),
                ("validate", app, "/v1/validate", validate),
                ("cluster_sweep", cluster_app, "/v1/sweep", sweep),
            ):
                response = await target.handle(_post(path, payload))
                bodies[name] = {
                    "status": response.status,
                    "body_digest": sha256_hex(response.body),
                }
        finally:
            await queue.close()
            await cluster_queue.close()
        return bodies

    return asyncio.run(go())


def compute_golden_outputs() -> Dict[str, object]:
    golden: Dict[str, object] = {"jobs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for kind in JOB_PARAMS:
            golden["jobs"][kind] = {
                f"jobs{jobs}": _run_job(kind, jobs, root)
                for jobs in (1, 2)
            }
    golden["service"] = _service_bodies()
    return golden


if __name__ == "__main__":
    sys.stdout.write(
        json.dumps(compute_golden_outputs(), indent=2, sort_keys=True)
        + "\n"
    )
