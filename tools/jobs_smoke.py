#!/usr/bin/env python3
"""CI smoke test: SIGKILL a job worker mid-sweep, resume bit-identically.

Exercises the durability guarantees end to end, with real processes:

1. Run a 200-point E10000 sweep job to completion on a pristine store —
   the uninterrupted reference result.
2. Submit the identical job to a second store and start a real
   ``rascad jobs worker`` subprocess on it.
3. SIGKILL the worker as soon as the job's row holds a checkpoint
   (no graceful shutdown, no atexit — the hard-crash path).
4. Start a fresh worker with a short lease timeout: it reclaims the
   stale lease and resumes from the checkpoint.
5. Assert the resumed result payload — including its
   ``result_digest`` — is byte-identical to the reference, and that
   the resumed worker re-solved *only* the points past the checkpoint
   (via its engine's ``system_solves`` count).  No checkpoint file
   or ``checkpoints/`` directory is written anywhere along the way.

Run from the repository root::

    PYTHONPATH=src python tools/jobs_smoke.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from _smoke_common import run_in_workdir, subprocess_env

from repro.analysis import expand_values  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.jobs import (  # noqa: E402
    JobSpec,
    JobStore,
    Worker,
    WorkerConfig,
)
from repro.library import e10000_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402

POINTS = 200
CHECKPOINT_EVERY = 10
LEASE_TIMEOUT = 2.0


def job_spec() -> JobSpec:
    return JobSpec(
        kind="sweep",
        spec=model_to_spec(e10000_model()),
        params={
            "field": "mtbf_hours",
            "block": "E10000 Server/Operating System",
            "values": expand_values([f"1e5:1e6:{POINTS}"]),
        },
    )


def reference_run(base: Path) -> dict:
    """The uninterrupted run: submit and drain on a pristine store."""
    store = JobStore(base / "ref.sqlite3")
    record, _ = store.submit(job_spec())
    worker = Worker(
        store,
        Engine(jobs=1, cache_dir=base / "ref-cache"),
        WorkerConfig(once=True, checkpoint_every=CHECKPOINT_EVERY),
    )
    worker.run()
    done = store.get(record.id)
    assert done.state == "succeeded", done.state
    return done.result


def smoke(base: Path) -> int:
    reference = reference_run(base)
    print(f"reference digest: {reference['result_digest']}")

    store = JobStore(base / "jobs.sqlite3")
    record, _ = store.submit(job_spec())

    env = subprocess_env()
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "jobs", "worker",
            "--db", str(store.path),
            "--cache-dir", str(base / "crash-cache"),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--poll", "0.1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )

    # Wait for durable progress, then kill without ceremony.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        checkpoint = store.load_checkpoint(record.id)
        if checkpoint is not None:
            break
        if worker.poll() is not None:
            print("FAIL: worker exited before checkpointing")
            return 1
        time.sleep(0.02)
    else:
        print("FAIL: no checkpoint appeared within 120 s")
        return 1
    worker.send_signal(signal.SIGKILL)
    worker.wait()

    checkpoint = store.load_checkpoint(record.id)
    completed = len(checkpoint.values)
    print(f"SIGKILLed worker after {completed}/{POINTS} durable points")
    assert 0 < completed < POINTS, completed
    crashed = store.get(record.id)
    assert crashed.state == "running", crashed.state  # lease left behind

    # A fresh worker with a short lease timeout reclaims and resumes.
    resumed = subprocess.run(
        [
            sys.executable, "-m", "repro", "jobs", "worker",
            "--db", str(store.path),
            "--cache-dir", str(base / "resume-cache"),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--lease-timeout", str(LEASE_TIMEOUT),
            "--poll", "0.1",
            "--max-jobs", "1",
        ],
        env=env,
        timeout=300,
    )
    assert resumed.returncode == 0, resumed.returncode

    final = store.get(record.id)
    assert final.state == "succeeded", (final.state, final.error)
    assert final.result == reference, "resumed payload differs"
    assert (
        final.result["result_digest"] == reference["result_digest"]
    ), (final.result["result_digest"], reference["result_digest"])

    # Resume efficiency: the second worker solved only the tail.  Its
    # engine persisted a stats snapshot into its own cache dir.
    stats = json.loads(
        (base / "resume-cache" / "stats.json").read_text()
    )
    tail = POINTS - completed
    solves = stats["system_solves"]
    print(f"resume re-solved {solves} points (tail was {tail})")
    assert solves == tail, (solves, tail)

    assert store.load_checkpoint(record.id) is None
    strays = sorted(str(path) for path in base.rglob("checkpoints"))
    assert not strays, strays

    print(
        "PASS: resumed run is bit-identical "
        f"(digest {final.result['result_digest'][:16]}..., "
        f"{completed} checkpointed + {tail} re-solved points)"
    )
    return 0


def main() -> int:
    return run_in_workdir("jobs", smoke)


if __name__ == "__main__":
    sys.exit(main())
