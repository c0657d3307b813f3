"""E11 — the durable job subsystem: throughput and resume overhead.

Runs the same sweep job three ways on pristine stores and caches:

* **uninterrupted** — submit, lease, execute to completion; the
  baseline points/sec of checkpointed execution (one store
  transaction writes the checkpoint and heartbeat every chunk).
* **engine direct** — the identical points through
  ``Engine.sweep_block_field`` (the same point math the job planner
  calls) with no checkpoint/store machinery; the difference to
  the uninterrupted run is the durability overhead.
* **interrupted + resumed** — preempt the job at the halfway
  checkpoint (the SIGTERM path: stop at a checkpointed chunk
  boundary, release), then resume it
  with a *fresh* engine.  The headline claims: the resumed payload is
  bit-identical (same ``result_digest``), only the tail re-solves
  (engine ``system_solves`` = points past the checkpoint), and resume
  overhead stays a small fraction of the saved work.

Results also land in ``BENCH_e11_jobs.json`` at the repository root so
the durability numbers travel with the code.
"""

import json
import time
from pathlib import Path

from repro.engine import Engine
from repro.jobs import JobSpec, JobStore, execute_job
from repro.library import e10000_model
from repro.spec import model_to_spec

from ._report import emit_table

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e11_jobs.json"

POINTS = 60
CHECKPOINT_EVERY = 10


def _job_spec():
    start, stop = 1e5, 1e6
    step = (stop - start) / (POINTS - 1)
    return JobSpec(
        kind="sweep",
        spec=model_to_spec(e10000_model()),
        params={
            "field": "mtbf_hours",
            "block": "E10000 Server/Operating System",
            "values": [start + step * i for i in range(POINTS)],
        },
    )


def _uninterrupted(base):
    store = JobStore(base / "ref.sqlite3")
    engine = Engine(jobs=1, cache_dir=base / "ref-cache")
    record, _ = store.submit(_job_spec())
    leased = store.lease("bench")
    start = time.perf_counter()
    outcome = execute_job(
        leased, store, engine, checkpoint_every=CHECKPOINT_EVERY
    )
    elapsed = time.perf_counter() - start
    assert outcome == "succeeded"
    return elapsed, store.get(record.id).result


def _engine_direct(base):
    engine = Engine(jobs=1, cache_dir=base / "direct-cache")
    spec = _job_spec()
    start = time.perf_counter()
    engine.sweep_block_field(
        e10000_model(),
        str(spec.params["block"]),
        str(spec.params["field"]),
        list(spec.params["values"]),
    )
    return time.perf_counter() - start


def _interrupted_then_resumed(base):
    store = JobStore(base / "main.sqlite3")
    engine = Engine(jobs=1, cache_dir=base / "main-cache")
    record, _ = store.submit(_job_spec())
    leased = store.lease("bench-first")

    chunks = []
    target = POINTS // (2 * CHECKPOINT_EVERY)  # stop at the halfway mark

    start = time.perf_counter()
    outcome = execute_job(
        leased, store, engine, checkpoint_every=CHECKPOINT_EVERY,
        should_stop=lambda: len(chunks) >= target or chunks.append(None),
    )
    first_leg = time.perf_counter() - start
    assert outcome == "released"
    completed = len(store.load_checkpoint(record.id).values)

    fresh = Engine(jobs=1, cache_dir=base / "resume-cache")
    resumed = store.lease("bench-second")
    start = time.perf_counter()
    outcome = execute_job(
        resumed, store, fresh, checkpoint_every=CHECKPOINT_EVERY
    )
    second_leg = time.perf_counter() - start
    assert outcome == "succeeded"

    tail_solves = fresh.stats.snapshot().system_solves
    return (
        first_leg, second_leg, completed, tail_solves,
        store.get(record.id).result,
    )


def _run(tmp_base):
    ref_elapsed, ref_result = _uninterrupted(tmp_base / "a")
    direct_elapsed = _engine_direct(tmp_base / "b")
    (first_leg, second_leg, completed, tail_solves,
     resumed_result) = _interrupted_then_resumed(tmp_base / "c")

    assert resumed_result == ref_result
    assert tail_solves == POINTS - completed
    return {
        "ref_elapsed": ref_elapsed,
        "direct_elapsed": direct_elapsed,
        "first_leg": first_leg,
        "second_leg": second_leg,
        "completed": completed,
        "tail_solves": tail_solves,
        "digest": ref_result["result_digest"],
    }


def bench_e11_jobs_resume(benchmark, tmp_path_factory):
    run = benchmark.pedantic(
        lambda: _run(tmp_path_factory.mktemp("e11")),
        rounds=3,
        iterations=1,
    )

    points_per_sec = POINTS / run["ref_elapsed"]
    durability_overhead = run["ref_elapsed"] / run["direct_elapsed"] - 1.0
    tail = POINTS - run["completed"]
    # Overhead of resuming vs. just having kept going: the second leg
    # solved `tail` points; at the uninterrupted rate those cost
    # tail / points_per_sec seconds.
    resume_overhead = run["second_leg"] - tail / points_per_sec

    emit_table(
        f"E11: durable jobs, {POINTS}-point E10000 sweep "
        f"(checkpoint every {CHECKPOINT_EVERY})",
        ["metric", "value"],
        [
            ["throughput", f"{points_per_sec:.1f} points/s"],
            ["durability overhead",
             f"{durability_overhead:+.1%} vs. bare engine sweep"],
            ["preempted at", f"{run['completed']}/{POINTS} points"],
            ["tail re-solved", f"{run['tail_solves']} points "
             "(= points past the checkpoint)"],
            ["resume overhead", f"{resume_overhead * 1e3:+.1f} ms"],
            ["bit-identical", f"yes ({run['digest'][:16]}...)"],
        ],
    )

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "e11_jobs_resume",
        "points": POINTS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "points_per_sec": round(points_per_sec, 2),
        "durability_overhead_frac": round(durability_overhead, 4),
        "preempted_at_points": run["completed"],
        "tail_resolved_points": run["tail_solves"],
        "resume_overhead_seconds": round(resume_overhead, 4),
        "result_digest": run["digest"],
    }, indent=2, sort_keys=True) + "\n")
