#!/usr/bin/env python3
"""CI smoke test: SIGKILL a cluster worker mid-sweep, merge bit-identically.

Exercises the cluster layer's fault-tolerance guarantee end to end,
with real processes and real sockets:

1. Compute the uninterrupted single-process reference payload for a
   200-point E10000 sweep: the jobs sweep plan solved in process and
   stamped with its ``result_digest``, as a jobs run stores it.
2. Start a real coordinator subprocess (``rascad cluster
   coordinator``) and two real worker subprocesses (``rascad cluster
   worker``) that register dynamically and heartbeat.
3. POST the sweep to the coordinator and, as soon as the shard table
   shows progress, SIGKILL one worker — no graceful shutdown, the
   hard-crash path.  Its in-flight shard re-queues and the survivor
   finishes the job.
4. Assert the merged payload — including its ``result_digest`` — is
   identical to the reference, and that the coordinator noticed the
   death (the killed worker leaves placement).

Run from the repository root::

    PYTHONPATH=src python tools/cluster_smoke.py
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from pathlib import Path

from _smoke_common import Fleet, free_port, run_in_workdir, subprocess_env

from repro.analysis import expand_values  # noqa: E402
from repro.cluster import CoordinatorClient  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.jobs import JobSpec, plan_job, result_digest  # noqa: E402
from repro.library import e10000_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402

POINTS = 200
SHARD_SIZE = 4  # 50 shards: plenty of chances to die mid-run
BLOCK = "E10000 Server/Operating System"
FIELD = "mtbf_hours"
SWEEP_TIMEOUT = 300.0
LEASE_TIMEOUT = 4.0


def reference_payload(base: Path, spec: dict, values: list) -> dict:
    """The single-process run: the jobs sweep plan, solved in process."""
    plan = plan_job(
        JobSpec(
            kind="sweep",
            spec=spec,
            params={"field": FIELD, "block": BLOCK, "values": values},
        ),
        e10000_model(),
        Engine(jobs=1, cache_dir=base / "ref-cache"),
    )
    payload = plan.aggregate(plan.solve_range(0, plan.total))
    payload["result_digest"] = result_digest(payload)
    return payload


def smoke(base: Path) -> int:
    spec = model_to_spec(e10000_model())
    values = expand_values([f"1e5:1e6:{POINTS}"])
    reference = reference_payload(base, spec, values)
    print(f"reference digest: {reference['result_digest']}")

    coordinator_port = free_port()
    coordinator_url = f"http://127.0.0.1:{coordinator_port}"

    with Fleet(base, env=subprocess_env()) as fleet:
        fleet.spawn("coordinator", [
            "cluster", "coordinator",
            "--host", "127.0.0.1", "--port", str(coordinator_port),
            "--jobs-db", str(base / "cluster.sqlite3"),
            "--cache-dir", str(base / "coordinator-cache"),
            "--shard-size", str(SHARD_SIZE),
            "--lease-timeout", str(LEASE_TIMEOUT),
            "--steal-after", "2.0",
        ])
        from repro.cluster import wait_until_healthy
        if not wait_until_healthy(coordinator_url, timeout=30.0):
            print("FAIL: coordinator never became healthy")
            return 1

        workers = []
        for index in range(2):
            port = free_port()
            workers.append((f"http://127.0.0.1:{port}", fleet.spawn(
                f"worker-{index}", [
                    "cluster", "worker",
                    "--host", "127.0.0.1", "--port", str(port),
                    "--coordinator", coordinator_url,
                    "--cache-dir", str(base / f"worker-{index}-cache"),
                    "--heartbeat-interval", "0.5",
                ],
            )))
        for url, _ in workers:
            if not wait_until_healthy(url, timeout=30.0):
                print(f"FAIL: worker {url} never became healthy")
                return 1

        client = CoordinatorClient(coordinator_url, timeout=30.0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            fleet = client.status()["workers"]
            if sum(1 for row in fleet if row["state"] == "alive") >= 2:
                break
            time.sleep(0.05)
        else:
            print("FAIL: workers never registered with the coordinator")
            return 1
        print(f"fleet up: coordinator {coordinator_url}, 2 workers")

        outcome: dict = {}

        def run_sweep() -> None:
            try:
                outcome["merged"] = client.sweep({
                    "spec": spec,
                    "block": BLOCK,
                    "field": FIELD,
                    "values": values,
                    "timeout_seconds": SWEEP_TIMEOUT,
                }, timeout=SWEEP_TIMEOUT)
            except Exception as error:  # surfaced after the join
                outcome["error"] = error

        sweep_thread = threading.Thread(target=run_sweep)
        sweep_thread.start()

        # Wait for the shard table to show progress, then kill a
        # worker without ceremony while the sweep is in flight.
        victim_url, victim = workers[1]
        total_shards = (POINTS + SHARD_SIZE - 1) // SHARD_SIZE
        deadline = time.monotonic() + 120.0
        progress = None
        while time.monotonic() < deadline:
            if not sweep_thread.is_alive():
                print("FAIL: sweep finished before the kill landed")
                if "error" in outcome:
                    print(f"sweep error: {outcome['error']}")
                return 1
            active = client.status().get("active", [])
            done = sum(int(entry.get("done", 0)) for entry in active)
            if active and 0 < done < total_shards - SHARD_SIZE:
                progress = done
                break
            time.sleep(0.02)
        else:
            print("FAIL: no shard progress within 120 s")
            return 1
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(
            f"SIGKILLed {victim_url} after {progress}/{total_shards} "
            "shards"
        )

        sweep_thread.join(timeout=SWEEP_TIMEOUT)
        if sweep_thread.is_alive():
            print("FAIL: sweep did not complete after the kill")
            return 1
        if "error" in outcome:
            print(f"FAIL: sweep raised: {outcome['error']}")
            return 1
        merged = outcome["merged"]

        assert len(merged["points"]) == POINTS, len(merged["points"])
        assert merged["points"] == reference["points"], (
            "merged points differ from the single-process run"
        )
        assert (
            merged["result_digest"] == reference["result_digest"]
        ), (merged["result_digest"], reference["result_digest"])

        status = client.status()
        totals = status["totals"]
        assert totals["jobs_completed"] == 1, totals
        assert totals["shards_completed"] >= total_shards, totals

        # The coordinator noticed the death: the victim left placement
        # (marked dead by a failed dispatch, or its lease expired).
        victim_state = None
        deadline = time.monotonic() + LEASE_TIMEOUT + 10.0
        while time.monotonic() < deadline:
            fleet = client.status()["workers"]
            victim_state = next(
                (row["state"] for row in fleet
                 if row["url"] == victim_url), None,
            )
            if victim_state in ("dead", "lease_expired"):
                break
            time.sleep(0.1)
        assert victim_state in ("dead", "lease_expired"), victim_state

        print(
            "PASS: kill-one-worker sweep is bit-identical "
            f"(digest {merged['result_digest'][:16]}..., "
            f"victim ended {victim_state}, "
            f"{totals['shards_retried']} shard retries)"
        )
        return 0


def main() -> int:
    return run_in_workdir("cluster", smoke)


if __name__ == "__main__":
    sys.exit(main())
