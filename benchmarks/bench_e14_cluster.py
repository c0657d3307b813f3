"""E14 — the cluster layer: fleet speedup at identical answers.

The cluster's two headline claims, measured with real worker
processes and real sockets:

* **Horizontal speedup** — the same sweep fanned over 1, 2, and 4
  worker processes by an in-process :class:`repro.cluster.Coordinator`
  (static membership, fresh in-memory shard table per fleet, every
  fleet on pristine no-cache workers, so nothing is amortized across
  runs).  Where the process may use at least 3 CPUs (two workers
  plus the in-process coordinator) the 2-worker fleet must clear a
  1.7x speedup over the 1-worker fleet; with fewer, the workers and
  the coordinator share CPUs, so the ratio is reported as unmeasured
  and not asserted.
* **Bit-identity** — every fleet's merged payload carries the same
  ``result_digest`` as the single-process engine run, whatever the
  placement did.

Results also land in ``BENCH_e14_cluster.json`` at the repository
root so the scale-out numbers travel with the code.  ``python
benchmarks/bench_e14_cluster.py --quick`` runs a reduced sweep for CI.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from _smoke_common import Fleet  # noqa: E402

from repro.cluster import ClusterConfig, Coordinator, Membership  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.jobs import JobSpec, plan_job, result_digest  # noqa: E402
from repro.library import datacenter_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e14_cluster.json"

POINTS = 360
QUICK_POINTS = 120
SHARD_SIZE = 15
BLOCK = "Data Center System/Server Box/System Board"
FIELD = "mtbf_hours"
FLEETS = [1, 2, 4]
QUICK_FLEETS = [1, 2]
SPEEDUP_FLOOR = 1.7
#: CPUs the floor needs: two workers plus the in-process coordinator.
FLOOR_CPUS = 3


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _values(points):
    start, stop = 1e5, 1e6
    step = (stop - start) / (points - 1)
    return [start + step * i for i in range(points)]


def _plan(spec, values):
    """The jobs sweep plan; its in-process engine is single-threaded."""
    return plan_job(
        JobSpec(
            kind="sweep",
            spec=spec,
            params={"field": FIELD, "block": BLOCK, "values": values},
        ),
        datacenter_model(),
        Engine(jobs=1, cache=False),
    )


def _reference_digest(spec, values):
    """The single-process run's result digest."""
    plan = _plan(spec, values)
    return result_digest(plan.aggregate(plan.solve_range(0, plan.total)))


def _fleet_run(count, spec, values):
    """One timed sweep over a fresh ``count``-worker fleet of pristine
    no-cache worker processes."""
    with tempfile.TemporaryDirectory() as logs, Fleet(Path(logs)) as fleet:
        try:
            workers = tuple(
                fleet.spawn_server(
                    f"worker-{index}",
                    ["serve", "--jobs", "1", "--no-cache"],
                    timeout=60.0,
                )
                for index in range(count)
            )
            config = ClusterConfig(
                workers=workers,
                shard_size=SHARD_SIZE,
                steal_after=120.0,  # no speculative re-execution in timings
                call_timeout=300.0,
            )
            coordinator = Coordinator(Membership(), config=config)
            plan = _plan(spec, values)
            start = time.perf_counter()
            merged = plan.aggregate(
                coordinator.run_workload(plan, timeout=600.0)
            )
            elapsed = time.perf_counter() - start
            merged["result_digest"] = result_digest(merged)
            return elapsed, merged
        except BaseException:
            fleet.dump_logs()
            raise


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep and fleet ladder for CI",
    )
    args = parser.parse_args()

    points = QUICK_POINTS if args.quick else POINTS
    fleets = QUICK_FLEETS if args.quick else FLEETS
    cpus = _usable_cpus()
    spec = model_to_spec(datacenter_model())
    values = _values(points)

    reference = _reference_digest(spec, values)
    print(f"single-process digest: {reference}")
    print(f"{points}-point datacenter sweep, shard size {SHARD_SIZE}, "
          f"{cpus} CPUs")

    rows = []
    for count in fleets:
        elapsed, merged = _fleet_run(count, spec, values)
        digest = merged["result_digest"]
        assert digest == reference, (count, digest, reference)
        assert len(merged["points"]) == points
        rows.append({
            "workers": count,
            "elapsed_seconds": round(elapsed, 3),
            "points_per_sec": round(points / elapsed, 1),
            "result_digest": digest,
        })
        print(f"  {count} worker(s): {elapsed:6.2f} s "
              f"({points / elapsed:7.1f} points/s)  digest ok")

    base = rows[0]["elapsed_seconds"]
    speedups = {
        row["workers"]: round(base / row["elapsed_seconds"], 2)
        for row in rows
    }
    for workers, speedup in speedups.items():
        if workers > 1:
            print(f"  speedup x{workers} workers: {speedup:.2f}")

    # The parallelism claim only holds where parallelism exists.
    asserted = cpus >= FLOOR_CPUS and 2 in speedups
    reason = None
    if asserted:
        assert speedups[2] >= SPEEDUP_FLOOR, (
            f"2-worker speedup {speedups[2]:.2f} below "
            f"{SPEEDUP_FLOOR} with {cpus} usable CPUs"
        )
    elif 2 in speedups:
        reason = (
            f"{cpus} usable CPU(s); two workers plus the coordinator "
            f"need {FLOOR_CPUS}"
        )
        print(f"  speedup unmeasured, {SPEEDUP_FLOOR}x floor not "
              f"asserted: {reason}")

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "e14_cluster_speedup",
        "points": points,
        "shard_size": SHARD_SIZE,
        "cpu_count": cpus,
        "quick": args.quick,
        "fleets": rows,
        "speedups": {str(k): v for k, v in speedups.items()},
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": asserted,
        "speedup_unasserted_reason": reason,
        "result_digest": reference,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULT_PATH}")
    print("PASS: every fleet bit-identical to the single-process run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
