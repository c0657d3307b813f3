"""A sharded kind's two executors answer the same bytes.

A sweep and a study each have one plan definition run two ways: in
process by :func:`repro.jobs.execute_job` (``rascad jobs``), and over
the fleet by a :class:`repro.cluster.Coordinator` behind an
in-process :class:`repro.service.app.App`.  The job result must equal
the coordinator-merged ``/v1/sweep`` body and ``POST /v1/studies``
result byte for byte, with 1, 2 and 4 workers.
"""

import asyncio
import json

import pytest

from ._golden_outputs import (
    CHECKPOINT_EVERY,
    JOB_PARAMS,
    OS_BLOCK,
    SWEEP_VALUES,
    _InProcessWorker,
    _job_spec,
    _post,
)


@pytest.fixture(scope="module")
def job_results(tmp_path_factory):
    """Each kind's ``rascad jobs`` result, as the job store holds it."""
    from repro.engine import Engine
    from repro.jobs import JobStore, execute_job

    root = tmp_path_factory.mktemp("jobs")
    store = JobStore(root / "jobs.sqlite3")
    results = {}
    for kind in ("sweep", "study"):
        record, _ = store.submit(_job_spec(kind))
        execute_job(
            store.lease("identity"), store,
            Engine(jobs=1, cache_dir=root / f"{kind}-cache"),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        results[kind] = store.get(record.id).result
    store.close()
    return results


def _fleet_post(workers: int, path: str, payload):
    """``POST path`` to a coordinator fronting ``workers`` workers;
    returns the response and the coordinator engine's counters."""
    from repro.cluster import ClusterConfig, Coordinator, Membership
    from repro.engine import Engine
    from repro.service.app import App
    from repro.service.queue import SolveQueue

    urls = tuple(f"http://identity-worker-{i}:1" for i in range(workers))
    apps = {url: App(Engine(), SolveQueue(Engine())) for url in urls}
    config = ClusterConfig(
        workers=urls, shard_size=1, fanout_threshold=1,
        heartbeat_interval=0.01,
    )
    coordinator = Coordinator(
        Membership(lease_timeout=config.lease_timeout),
        config=config,
        client_factory=lambda url, timeout=None: _InProcessWorker(
            url, apps[url]
        ),
    )
    engine = Engine()

    async def go():
        queue = SolveQueue(engine)
        app = App(engine, queue, cluster=coordinator)
        try:
            return await app.handle(_post(path, payload))
        finally:
            await queue.close()

    response = asyncio.run(go())
    assert response.status in (200, 201), response.body.decode()
    return response, engine.stats.snapshot().counters


def _body(document) -> bytes:
    """A document as the service encodes a JSON body."""
    return json.dumps(document, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sweep_job_equals_the_merged_sweep_body(job_results, workers):
    from repro.library import workgroup_model
    from repro.spec import model_to_spec

    response, counters = _fleet_post(workers, "/v1/sweep", {
        "spec": model_to_spec(workgroup_model()),
        "field": "mtbf_hours", "block": OS_BLOCK, "values": SWEEP_VALUES,
    })
    assert counters["cluster_sweeps"] == 1
    assert response.body == _body(job_results["sweep"])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_study_job_equals_the_merged_study_result(job_results, workers):
    from repro.library import workgroup_model
    from repro.spec import model_to_spec

    response, counters = _fleet_post(workers, "/v1/studies", {
        "base": model_to_spec(workgroup_model()), **JOB_PARAMS["study"],
    })
    assert counters["cluster_study_rounds"] >= 1
    result = json.loads(response.body)["study"]["result"]
    assert _body(result) == _body(job_results["study"])
