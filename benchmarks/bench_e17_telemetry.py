"""E17 — the telemetry layer: ingest throughput and resume identity.

The estimator's claims are operational, so the benchmark measures
them operationally:

* **Ingest throughput** — events per second, one call per event vs
  batched ``ingest_many``, on a long synthetic field trace; plus the
  idempotent-replay rate (a full duplicate pass must be cheap and
  change nothing).
* **Merge scaling** — the same trace split into per-unit shards and
  merged back must land on the single-pass digest, and folding the
  shards may cost at most twice the batched ingest of the whole trace
  (merges copy resting entries, not objects).
* **Checkpoint-resume identity** — a ``kind="calibration"`` job is
  preempted mid-ingest and resumed by a fresh engine; the resumed
  proposal digest and state digest must equal the uninterrupted
  reference (the SIGKILL guarantee, measured rather than assumed).

Results land in ``BENCH_e17_telemetry.json`` at the repository root.
``python benchmarks/bench_e17_telemetry.py --quick`` shrinks the
trace for CI.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import Engine  # noqa: E402
from repro.jobs import JobSpec, JobStore, execute_job  # noqa: E402
from repro.library import e10000_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402
from repro.telemetry import (  # noqa: E402
    RateEstimator,
    synthetic_field_events,
)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e17_telemetry.json"

BOOT_DISK = "E10000 Server/Boot Disk"
SEED = 3

#: Largest allowed ratio of merging the per-unit shards to ingesting
#: the whole trace in one batch.
MAX_MERGE_TO_INGEST = 2.0


def trace(quick):
    window = 100_000.0 if quick else 500_000.0
    return window, synthetic_field_events(
        e10000_model(), window_hours=window, seed=SEED,
        mtbf_shifts={BOOT_DISK: 0.01},
    )


def timed_ingest(events, batched):
    estimator = RateEstimator(window_hours=168.0)
    start = time.perf_counter()
    if batched:
        estimator.ingest_many(events)
    else:
        for event in events:
            estimator.ingest(event)
    return estimator, time.perf_counter() - start


def preempted_calibration(window, base):
    """Reference vs killed-and-resumed calibration job digests."""
    spec = JobSpec(
        kind="calibration",
        spec=model_to_spec(e10000_model()),
        params={
            "source": {
                "kind": "synthetic",
                "seed": SEED,
                "window_hours": window,
                "shifts": {BOOT_DISK: 0.01},
            },
            "chunk_events": 64,
        },
    )

    ref_store = JobStore(base / "ref.sqlite3")
    record, _ = ref_store.submit(spec)
    execute_job(
        ref_store.lease("ref"), ref_store,
        Engine(jobs=1, cache_dir=base / "ref-cache"), checkpoint_every=1,
    )
    reference = ref_store.get(record.id).result

    store = JobStore(base / "jobs.sqlite3")
    record, _ = store.submit(spec)
    chunks = []
    outcome = execute_job(
        store.lease("w1"), store,
        Engine(jobs=1, cache_dir=base / "w1-cache"), checkpoint_every=1,
        should_stop=lambda: len(chunks) >= 2 or chunks.append(None),
    )
    assert outcome == "released", outcome
    killed_after = len(store.load_checkpoint(record.id).values)

    start = time.perf_counter()
    outcome = execute_job(
        store.lease("w2"), store,
        Engine(jobs=1, cache_dir=base / "w2-cache"), checkpoint_every=1,
    )
    resume_seconds = time.perf_counter() - start
    assert outcome == "succeeded", outcome
    resumed = store.get(record.id).result
    return reference, resumed, killed_after, resume_seconds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    window, events = trace(args.quick)
    count = len(events)

    single, single_seconds = timed_ingest(events, batched=False)
    batched, batched_seconds = timed_ingest(events, batched=True)
    assert batched.state_digest() == single.state_digest()

    # Idempotent replay of the full trace against the warm state.
    start = time.perf_counter()
    accepted, duplicates = batched.ingest_many(events)
    replay_seconds = time.perf_counter() - start
    assert (accepted, duplicates) == (0, count)

    # Per-unit shards merged back to the single-pass state.
    shards = {}
    for event in events:
        shards.setdefault(event.unit, []).append(event)
    shard_estimators = []
    for shard_events in shards.values():
        estimator = RateEstimator(window_hours=168.0)
        estimator.ingest_many(shard_events)
        shard_estimators.append(estimator)
    start = time.perf_counter()
    merged = shard_estimators[0]
    for estimator in shard_estimators[1:]:
        merged = merged.merge(estimator)
    merge_seconds = time.perf_counter() - start
    assert merged.state_digest() == single.state_digest()
    assert merge_seconds <= MAX_MERGE_TO_INGEST * batched_seconds, (
        f"merging {len(shard_estimators)} shards took "
        f"{merge_seconds:.4f} s, over {MAX_MERGE_TO_INGEST}x the "
        f"{batched_seconds:.4f} s batched ingest"
    )

    with tempfile.TemporaryDirectory(prefix="bench-e17-") as tmp:
        reference, resumed, killed_after, resume_seconds = (
            preempted_calibration(window, Path(tmp))
        )
    assert resumed == reference, "resumed calibration differs"
    proposal_digest = reference["proposal"]["proposal_digest"]

    payload = {
        "benchmark": "e17_telemetry",
        "quick": bool(args.quick),
        "trace": {
            "window_hours": window,
            "events": count,
            "units": len(shards),
            "state_digest": single.state_digest(),
        },
        "ingest": {
            "single_seconds": round(single_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "single_events_per_second": round(count / single_seconds),
            "batched_events_per_second": round(count / batched_seconds),
            "batched_speedup": round(single_seconds / batched_seconds, 2),
            "replay_seconds": round(replay_seconds, 4),
            "replay_events_per_second": round(count / replay_seconds),
        },
        "merge": {
            "shards": len(shard_estimators),
            "merge_seconds": round(merge_seconds, 4),
            "merge_to_batched_ingest": round(
                merge_seconds / batched_seconds, 2
            ),
            "digest_matches_single_pass": True,  # asserted above
        },
        "resume": {
            "chunks_before_kill": killed_after,
            "resume_seconds": round(resume_seconds, 3),
            "proposal_digest": proposal_digest,
            "state_digest": reference["state_digest"],
            "bit_identical": True,  # asserted above
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"trace                : {count} events over {window:.0f} h "
          f"({len(shards)} units)")
    print(f"ingest single/batched: {count / single_seconds:,.0f} / "
          f"{count / batched_seconds:,.0f} events/s "
          f"(x{single_seconds / batched_seconds:.1f})")
    print(f"idempotent replay    : {count / replay_seconds:,.0f} events/s")
    print(f"merge {len(shard_estimators):>3} shards     : "
          f"{merge_seconds * 1000:.1f} ms, digest matches single pass")
    print(f"calibration resume   : killed after {killed_after} chunks, "
          f"bit-identical (proposal {proposal_digest[:16]}...)")
    print(f"wrote {RESULT_PATH.name}")


if __name__ == "__main__":
    main()
