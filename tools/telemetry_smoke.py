#!/usr/bin/env python3
"""CI smoke test: the field-telemetry loop end to end, with real processes.

1. Render a deterministic field trace with ``rascad events replay``
   (Boot Disk at 1 % of its datasheet MTBF) and ingest it over HTTP
   into a live ``rascad serve`` — twice, asserting the replay is fully
   deduplicated.  Then SIGTERM the server and start a new one on the
   same ``--cache-dir``: its ``state_digest`` must equal the one before
   the restart and the in-process reference, and a third ingest must
   again be fully deduplicated.
2. Run an uninterrupted ``kind="calibration"`` job on a much longer
   trace as the reference, then SIGKILL a real ``rascad jobs worker``
   subprocess mid-ingest and resume it with a fresh worker: the
   resumed result — proposal digest and estimator state digest — must
   be byte-identical to the reference.
3. Drive the HTTP calibration routes: propose (digest must match the
   direct in-process proposal for the same events), publish untagged
   with calibration provenance, and watch the regression gate 409 a
   tagged publish against the better datasheet model.

Run from the repository root::

    PYTHONPATH=src python tools/telemetry_smoke.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from _smoke_common import (
    Fleet,
    cli,
    get_json,
    post_json,
    run_in_workdir,
    subprocess_env,
)

from repro.engine import Engine  # noqa: E402
from repro.jobs import (  # noqa: E402
    JobSpec,
    JobStore,
    Worker,
    WorkerConfig,
)
from repro.library import e10000_model  # noqa: E402
from repro.registry import open_registry  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402
from repro.telemetry import (  # noqa: E402
    RateEstimator,
    build_proposal,
    synthetic_field_events,
)

BOOT_DISK = "E10000 Server/Boot Disk"
TRACE_WINDOW = 10_950.0      # the 15-month HTTP trace (40 events)
JOB_WINDOW = 200_000.0       # the long trace the crash test chunks
SEED = 3


def calibration_job_spec(spec: dict) -> JobSpec:
    return JobSpec(
        kind="calibration",
        spec=spec,
        params={
            "source": {
                "kind": "synthetic",
                "seed": SEED,
                "window_hours": JOB_WINDOW,
                "shifts": {BOOT_DISK: 0.01},
            },
            "chunk_events": 1,
        },
    )


def reference_run(base: Path, spec: dict) -> dict:
    store = JobStore(base / "ref.sqlite3")
    record, _ = store.submit(calibration_job_spec(spec))
    Worker(
        store,
        Engine(jobs=1, cache_dir=base / "ref-cache"),
        WorkerConfig(once=True, checkpoint_every=1),
    ).run()
    done = store.get(record.id)
    assert done.state == "succeeded", done.state
    return done.result


def crash_and_resume(base: Path, spec: dict, reference: dict) -> None:
    store = JobStore(base / "jobs.sqlite3")
    record, _ = store.submit(calibration_job_spec(spec))
    env = subprocess_env()

    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "jobs", "worker",
            "--db", str(store.path),
            "--cache-dir", str(base / "crash-cache"),
            "--checkpoint-every", "1",
            "--poll", "0.1",
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )

    # Wait for a few durable chunks, then kill without ceremony.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        checkpoint = store.load_checkpoint(record.id)
        if checkpoint is not None and len(checkpoint.values) >= 5:
            break
        if worker.poll() is not None:
            raise AssertionError("worker exited before checkpointing")
        time.sleep(0.005)
    else:
        raise AssertionError("no checkpoint progress within 120 s")
    worker.send_signal(signal.SIGKILL)
    worker.wait()

    completed = len(store.load_checkpoint(record.id).values)
    total = reference["events_total"]
    print(f"SIGKILLed worker after {completed}/{total} durable chunks")
    assert 0 < completed < total, completed
    assert store.get(record.id).state == "running"  # lease left behind

    resumed = subprocess.run(
        [
            sys.executable, "-m", "repro", "jobs", "worker",
            "--db", str(store.path),
            "--cache-dir", str(base / "resume-cache"),
            "--checkpoint-every", "1",
            "--lease-timeout", "2.0",
            "--poll", "0.1",
            "--max-jobs", "1",
        ],
        env=env, timeout=300,
    )
    assert resumed.returncode == 0, resumed.returncode

    final = store.get(record.id)
    assert final.state == "succeeded", (final.state, final.error)
    assert final.result == reference, "resumed payload differs"
    assert (
        final.result["proposal"]["proposal_digest"]
        == reference["proposal"]["proposal_digest"]
    )
    assert final.result["state_digest"] == reference["state_digest"]
    print(
        "resume bit-identical: proposal "
        f"{final.result['proposal']['proposal_digest'][:16]}..., state "
        f"{final.result['state_digest'][:16]}..."
    )


def ingest_output(trace_path: Path, url: str) -> str:
    """``rascad events ingest`` over HTTP; its stdout."""
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "events", "ingest",
            str(trace_path), "--url", url, "--batch-size", "7",
        ],
        env=subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, (done.returncode, done.stderr)
    return done.stdout


def smoke(base: Path) -> int:
    spec = model_to_spec(e10000_model())
    spec_path = base / "model.json"
    spec_path.write_text(json.dumps(spec))

    # The direct in-process proposal for the 15-month trace — the
    # digest every other path must reproduce.
    events = synthetic_field_events(
        e10000_model(), window_hours=TRACE_WINDOW, seed=SEED,
        mtbf_shifts={BOOT_DISK: 0.01},
    )
    estimator = RateEstimator(window_hours=168.0)
    estimator.ingest_many(events)
    engine = Engine(jobs=1, cache_dir=base / "direct-cache")
    direct = build_proposal(estimator, e10000_model(), engine)
    print(f"direct proposal digest: {direct['proposal_digest'][:16]}...")

    # Seed the registry's prod tag with the (much better) datasheet
    # model, so the gate has something to defend.
    registry_db = base / "registry.sqlite3"
    registry = open_registry(db_path=registry_db, engine=engine)
    registry.publish(spec, "e10000", tag="prod")
    registry.close()

    with Fleet(base) as fleet:
        try:
            server_argv = [
                "serve", "--jobs", "1",
                "--cache-dir", str(base / "server-cache"),
                "--registry-db", str(registry_db),
            ]
            url = fleet.spawn_server("server", server_argv)

            # 1. Replay a trace to a file, ingest it over HTTP, twice.
            trace_path = base / "trace.json"
            rc = cli(
                "events", "replay", str(spec_path),
                "--window", str(TRACE_WINDOW), "--seed", str(SEED),
                "--shift", f"{BOOT_DISK}=0.01",
                "--out", str(trace_path),
            )
            assert rc == 0, rc
            for attempt in ("ingest", "replay"):
                rc = cli(
                    "events", "ingest", str(trace_path),
                    "--url", url, "--batch-size", "7",
                )
                assert rc == 0, (attempt, rc)
            status_doc = get_json(f"{url}/v1/calibration")
            assert status_doc["events_total"] == len(events), status_doc
            print(
                f"HTTP ingest: {status_doc['events_total']} events, "
                "replay fully deduplicated"
            )

            # 1b. Restart on the same cache dir: the state survives.
            server = fleet.processes[-1][1]
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0, server.returncode
            url = fleet.spawn_server("server-restarted", server_argv)
            restarted = get_json(f"{url}/v1/calibration")
            assert restarted["state_digest"] == status_doc["state_digest"], (
                restarted["state_digest"], status_doc["state_digest"]
            )
            assert restarted["state_digest"] == estimator.state_digest()
            assert restarted["events_total"] == len(events), restarted
            output = ingest_output(trace_path, url)
            assert (
                f"ingested 0 event(s) into {url} "
                f"({len(events)} duplicate(s) skipped)"
            ) in output, output
            print(
                "restart: state digest "
                f"{restarted['state_digest'][:16]}... survives, "
                "re-ingest fully deduplicated"
            )

            # 2. The crash test on the long trace.
            reference = reference_run(base, spec)
            crash_and_resume(base, spec, reference)

            # 3. HTTP propose/publish and the regression gate.
            status, body = post_json(
                f"{url}/v1/calibration/propose", {"spec": spec}
            )
            assert status == 201, (status, body)
            proposal = body["proposal"]
            assert proposal["proposal_digest"] == direct["proposal_digest"], (
                proposal["proposal_digest"], direct["proposal_digest"]
            )
            print("HTTP proposal digest matches the direct path")

            status, body = post_json(
                f"{url}/v1/calibration/publish", {"name": "e10000"}
            )
            assert status == 201, (status, body)
            assert body["created"] is True, body
            assert body["version"]["source"]["source"] == "calibration"
            print(
                "published calibration version "
                f"{body['version']['digest'][:12]} (untagged)"
            )

            status, body = post_json(
                f"{url}/v1/calibration/publish",
                {"name": "e10000", "tag": "prod"},
            )
            assert status == 409, (status, body)
            assert body["error"]["code"] == "regression_detected", body
            print("regression gate 409'd the tagged publish, as it must")
        except BaseException:
            fleet.dump_logs()
            raise

    print(
        "PASS: ingest idempotent, SIGKILL resume bit-identical, "
        "proposal digests agree on every path, gate enforced"
    )
    return 0


def main() -> int:
    return run_in_workdir("telemetry", smoke)


if __name__ == "__main__":
    sys.exit(main())
