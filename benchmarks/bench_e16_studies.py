"""E16 — the studies layer: bit-identity and warm-cache economics.

A study's whole value proposition is that design-space search is
cheap *because* every candidate solve flows through the engine's
content-addressed cache, and safe *because* every execution path —
direct, clustered, killed-and-resumed — produces the byte-identical
Pareto front.  This benchmark measures and asserts both:

* **Bit-identity** — the same grid study is run four ways: single
  process, through a real 2-worker :class:`Coordinator` fan-out
  (engine-backed worker clients), and as a checkpointed study job
  that is preempted mid-search and resumed by a fresh engine.  All
  four ``result_digest`` values must be equal.
* **Warm-cache skip ratio** — re-running the study against the first
  run's solve cache must skip at least **90%** of candidate solves
  (it skips all of them: the study id and every candidate digest are
  content-addressed, so a re-run is pure cache traffic).
* **Throughput** — cold vs warm wall-clock, candidates per second.

Results land in ``BENCH_e16_studies.json`` at the repository root.
``python benchmarks/bench_e16_studies.py --quick`` shrinks the grid
for CI.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import ClusterConfig, Coordinator, Membership  # noqa: E402
from repro.cluster.membership import worker_id_for  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.jobs import JobSpec, JobStore, execute_job  # noqa: E402
from repro.library import workgroup_model  # noqa: E402
from repro.num import SolverOptions  # noqa: E402
from repro.spec import model_to_spec, parse_spec  # noqa: E402
from repro.studies import parse_study, round_evaluator, run_study  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e16_studies.json"

FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"
OS = "Workgroup Server/Operating System"
SKIP_FLOOR = 0.90


def study_document(quick):
    fan = [2, 3] if quick else [2, 3, 4, 5]
    psu = [1, 2] if quick else [1, 2, 3]
    mtbf = [120_000.0] if quick else [120_000.0, 240_000.0]
    return {
        "name": "e16-sizing",
        "base": model_to_spec(workgroup_model()),
        "strategy": "grid",
        "variables": [
            {"path": FAN, "field": "quantity", "values": fan},
            {"path": PSU, "field": "quantity", "values": psu},
            {"path": OS, "field": "mtbf_hours", "values": mtbf},
        ],
    }


def study_for(quick):
    return parse_study(study_document(quick))


class EngineClient:
    """A cluster worker client that answers ``/v1/solve`` on a local
    engine."""

    def __init__(self, url, engine):
        self.url = url
        self.worker_id = worker_id_for(url)
        self.engine = engine

    def call(self, path, payload, trace_header=None):
        model = parse_spec(dict(payload["spec"]))
        solution = self.engine.solve(
            model, SolverOptions.from_dict(payload["solver"])
        )
        return {"model": model.name, "availability": solution.availability}


def clustered_run(quick, worker_count):
    """The study evaluated round-by-round through a real Coordinator."""
    urls = [f"http://worker-{i}:1" for i in range(worker_count)]
    config = ClusterConfig(
        workers=tuple(urls), shard_size=2, fanout_threshold=1,
    )
    engine = Engine(jobs=1)
    coordinator = Coordinator(
        Membership(lease_timeout=config.lease_timeout),
        config=config,
        client_factory=lambda url, timeout=None: EngineClient(url, engine),
    )
    study = study_for(quick)
    evaluate = round_evaluator(
        engine, study, "bench-e16",
        lambda plan: coordinator.run_workload(plan, timeout=300),
    )

    start = time.perf_counter()
    result = run_study(study, evaluate=evaluate)
    return result, time.perf_counter() - start


def preempted_job_run(quick, base):
    """The study as a job, SIGKILL-style preemption, fresh-engine resume."""
    spec_doc = study_document(quick)
    job = JobSpec(
        kind="study",
        spec=spec_doc["base"],
        params={
            key: value
            for key, value in spec_doc.items()
            if key != "base"
        },
    )
    store = JobStore(base / "jobs.sqlite3")
    record, _ = store.submit(job)

    first = Engine(jobs=1, cache_dir=base / "w1-cache")
    chunks = []
    outcome = execute_job(
        store.lease("w1"), store, first, checkpoint_every=3,
        should_stop=lambda: len(chunks) >= 1 or chunks.append(None),
    )
    assert outcome == "released", outcome
    solved_before_kill = first.stats.snapshot().system_solves

    # The successor process: fresh engine, no shared cache.
    fresh = Engine(jobs=1, cache_dir=base / "w2-cache")
    outcome = execute_job(
        store.lease("w2"), store, fresh, checkpoint_every=3,
    )
    assert outcome == "succeeded", outcome
    result = store.get(record.id).result
    return result, solved_before_kill, fresh.stats.snapshot().system_solves


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    study = study_for(args.quick)

    # Cold single-process run.
    cold_engine = Engine(jobs=1)
    start = time.perf_counter()
    reference = run_study(study, engine=cold_engine)
    cold_seconds = time.perf_counter() - start
    evaluated = reference["evaluated"]
    cold_solves = cold_engine.stats.snapshot().system_solves

    # Warm re-run against the same cache: the skip-ratio claim.
    warm_engine = Engine(jobs=1, cache=cold_engine.cache)
    start = time.perf_counter()
    warm = run_study(study_for(args.quick), engine=warm_engine)
    warm_seconds = time.perf_counter() - start
    warm_stats = warm_engine.stats.snapshot()
    skipped = 1.0 - (
        warm_stats.system_solves / evaluated if evaluated else 0.0
    )
    assert warm == reference, "warm re-run is not bit-identical"
    assert skipped >= SKIP_FLOOR, (
        f"warm re-run skipped only {skipped:.0%} of {evaluated} solves "
        f"(floor {SKIP_FLOOR:.0%})"
    )

    # 2-worker cluster fan-out.
    clustered, cluster_seconds = clustered_run(args.quick, worker_count=2)
    assert clustered == reference, "clustered study is not bit-identical"

    # Preempt-and-resume job.
    with tempfile.TemporaryDirectory(prefix="bench-e16-") as tmp:
        resumed, before_kill, after_kill = preempted_job_run(
            args.quick, Path(tmp)
        )
    assert resumed == reference, "resumed study is not bit-identical"
    assert after_kill < evaluated, (
        "resume re-solved the whole study instead of the tail"
    )

    digest = reference["result_digest"]
    payload = {
        "benchmark": "e16_studies",
        "quick": bool(args.quick),
        "study": {
            "strategy": "grid",
            "candidates": evaluated,
            "front": reference["front"],
            "winner": reference["winner"],
            "result_digest": digest,
        },
        "bit_identity": {
            "single_process_digest": digest,
            "two_worker_cluster_digest": clustered["result_digest"],
            "preempt_resume_digest": resumed["result_digest"],
            "identical": True,  # asserted above
        },
        "warm_cache": {
            "cold_solves": cold_solves,
            "warm_solves": warm_stats.system_solves,
            "warm_cache_hits": warm_stats.system_cache_hits,
            "skip_ratio": round(skipped, 4),
            "skip_floor": SKIP_FLOOR,
        },
        "resume": {
            "solves_before_kill": before_kill,
            "solves_after_resume": after_kill,
            "total_candidates": evaluated,
        },
        "timing": {
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "cluster_seconds": round(cluster_seconds, 3),
            "cold_candidates_per_second": round(
                evaluated / cold_seconds, 1
            ),
            "warmup_speedup": round(cold_seconds / warm_seconds, 1),
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"candidates evaluated : {evaluated}")
    print(f"front / winner       : {reference['front']} / "
          f"{reference['winner']}")
    print(f"digest (all 3 paths) : {digest[:24]}...")
    print(f"warm-cache skip      : {skipped:.0%} "
          f"({warm_stats.system_solves}/{evaluated} re-solved)")
    print(f"resume re-solved     : {after_kill}/{evaluated} "
          f"(killed after {before_kill})")
    print(f"cold {cold_seconds:.2f}s / warm {warm_seconds:.2f}s / "
          f"2-worker {cluster_seconds:.2f}s")
    print(f"wrote {RESULT_PATH.name}")


if __name__ == "__main__":
    main()
