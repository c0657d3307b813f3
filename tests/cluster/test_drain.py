"""SIGTERM drain of a jobs worker while a cluster shard is in flight.

The scenario: a worker node is executing one cluster shard as a
checkpointed jobs run when the process receives SIGTERM.  The drain
must (1) release the job at a chunk boundary, (2) give the shard lease
back so the coordinator can re-assign it, and (3) never produce
duplicate results — whichever node's completion commits first wins,
and the merged payload is bit-identical to an uninterrupted run.
"""

import signal

import pytest

from repro.cluster.coordinator import ShardStore
from repro.cluster.merge import merge_points
from repro.cluster.sharding import plan_shards
from repro.engine import Engine
from repro.jobs import (
    JobSpec,
    JobStore,
    Worker,
    WorkerConfig,
    execute_job,
)
from repro.jobs.runner import sweep_plan
from repro.library import e10000_model
from repro.num import as_options
from repro.spec import model_to_spec

BLOCK = "E10000 Server/Operating System"
FIELD = "mtbf_hours"
VALUES = [1e5 + 1e5 * i for i in range(8)]


class SigtermAfterFirstChunk(JobStore):
    """Delivers a real SIGTERM right after the first durable chunk —
    the deterministic stand-in for an operator draining the node."""

    def __init__(self, path):
        super().__init__(path)
        self.fired = False

    def save_checkpoint(self, checkpoint, now=None):
        cancel = super().save_checkpoint(checkpoint, now)
        if not self.fired:
            self.fired = True
            signal.raise_signal(signal.SIGTERM)
        return cancel


@pytest.fixture
def preserved_handlers():
    originals = {
        signum: signal.getsignal(signum)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    yield
    for signum, handler in originals.items():
        signal.signal(signum, handler)


def sweep(engine):
    """The sweep's one plan, solving in process on ``engine``."""
    return sweep_plan(
        e10000_model(), engine, model_to_spec(e10000_model()), FIELD,
        VALUES, BLOCK, as_options("direct"),
    )


def test_drained_shard_is_released_and_finished_elsewhere(
    tmp_path, preserved_handlers
):
    workload = sweep(Engine(jobs=1, cache_dir=tmp_path / "cache-ref"))
    shards = plan_shards(workload.digest, workload.total, 4)
    shard_store = ShardStore(str(tmp_path / "cluster.sqlite3"))
    shard_store.plan(workload.digest, shards)

    # Node A leases the first shard and starts it as a jobs run.
    first = shards[0]
    assert shard_store.lease(first.id, "node-a:8100") == 1
    job_store = SigtermAfterFirstChunk(tmp_path / "jobs.sqlite3")
    job_spec = JobSpec(
        kind="sweep",
        spec=model_to_spec(e10000_model()),
        params={
            "field": FIELD,
            "block": BLOCK,
            "values": VALUES[first.lo:first.hi],
        },
    )
    record, _ = job_store.submit(job_spec)
    worker_a = Worker(
        job_store,
        Engine(jobs=1, cache_dir=tmp_path / "cache-a"),
        WorkerConfig(name="node-a", once=True, checkpoint_every=1),
    )
    worker_a.install_signal_handlers()
    worker_a.run()

    # The SIGTERM landed mid-job: the run stopped at a chunk boundary
    # with a durable checkpoint, well short of the full shard.
    assert job_store.fired
    checkpoint = job_store.load_checkpoint(record.id)
    assert checkpoint is not None
    assert 0 < len(checkpoint.values) < first.size
    assert job_store.get(record.id).state == "queued"  # released

    # Node A's drain handler gives the shard lease back.
    assert shard_store.release(first.id, worker="node-a:8100") is True
    rows = {row["id"]: row for row in shard_store.rows(workload.digest)}
    assert rows[first.id]["state"] == "pending"

    # The shard is re-assignable: node B leases it (attempt 2) and
    # resumes the released job from node A's checkpoint.
    assert shard_store.lease(first.id, "node-b:8100") == 2
    engine_b = Engine(jobs=1, cache_dir=tmp_path / "cache-b")
    resumed = job_store.lease("node-b")
    assert resumed.id == record.id
    assert execute_job(resumed, job_store, engine_b) == "succeeded"
    finished = [
        point["availability"]
        for point in job_store.get(record.id).result["points"]
    ]
    assert shard_store.complete(first.id, finished) is True

    # Node A comes back from the dead with a stale duplicate: it loses.
    assert shard_store.complete(first.id, finished) is False

    # Node B finishes the remaining shard and the merge is
    # bit-identical to an uninterrupted single-process run.
    second = shards[1]
    assert shard_store.lease(second.id, "node-b:8100") == 1
    assert shard_store.complete(
        second.id, sweep(engine_b).solve_range(second.lo, second.hi)
    ) is True
    payload = workload.aggregate(
        merge_points(shards, shard_store.results(workload.digest))
    )

    reference = workload.aggregate(workload.solve_range(0, workload.total))
    assert payload == reference
    shard_store.close()
