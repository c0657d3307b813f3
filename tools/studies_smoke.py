#!/usr/bin/env python3
"""CI smoke test: a clustered study end to end, bit-identical.

Real processes, real sockets:

1. Solve a small grid study in process — the single-process
   reference payload and its ``result_digest``.
2. Start a coordinator and two workers, POST the same study document
   to ``/v1/studies`` — candidate rounds fan out across the fleet,
   and the merged result must be **byte-identical** to the reference
   (same ``result_digest``).
3. Re-POST the document: the content-digest study id deduplicates to
   the stored record (``200``, ``created: false``).
4. Read the front and the winner's detail over HTTP.
5. ``rascad study publish`` the winner from the server's study store
   into a registry, and confirm the version's ``source`` provenance
   names the study.

Run from the repository root::

    PYTHONPATH=src python tools/studies_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from _smoke_common import (
    Fleet,
    cli,
    free_port,
    get_json,
    post_json,
    run_in_workdir,
)

from repro.cluster import wait_until_healthy  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.library import workgroup_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402
from repro.studies import parse_study, run_study  # noqa: E402

FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"


def study_document() -> dict:
    return {
        "name": "smoke-sizing",
        "base": model_to_spec(workgroup_model()),
        "strategy": "grid",
        "variables": [
            {"path": FAN, "field": "quantity", "values": [2, 3, 4]},
            {"path": PSU, "field": "quantity", "values": [1, 2]},
        ],
    }


def smoke(base: Path) -> int:
    cache_dir = base / "coordinator-cache"
    registry_db = base / "registry.sqlite3"

    # 1. The single-process reference.
    reference = run_study(
        parse_study(study_document()), engine=Engine(jobs=1)
    )
    print(
        f"reference: {reference['evaluated']} candidates, "
        f"front {reference['front']}, "
        f"digest {reference['result_digest'][:16]}..."
    )

    with Fleet(base) as fleet:
        coordinator_port = free_port()
        url = f"http://127.0.0.1:{coordinator_port}"
        fleet.spawn("coordinator", [
            "cluster", "coordinator",
            "--host", "127.0.0.1", "--port", str(coordinator_port),
            "--jobs-db", str(base / "cluster.sqlite3"),
            "--cache-dir", str(cache_dir),
            "--shard-size", "2",
            "--fanout-threshold", "2",
        ])
        if not wait_until_healthy(url, timeout=30.0):
            print("FAIL: coordinator never became healthy")
            fleet.dump_logs()
            return 1
        for index in range(2):
            worker_url = fleet.spawn_server(f"worker-{index}", [
                "cluster", "worker",
                "--coordinator", url,
                "--cache-dir", str(base / f"worker-{index}-cache"),
                "--heartbeat-interval", "0.5",
            ])
            print(f"worker up at {worker_url}")

        # 2. The clustered study: merged front must be bit-identical.
        status, payload = post_json(
            f"{url}/v1/studies", study_document(), timeout=300.0
        )
        if status != 201:
            print(f"FAIL: study submit answered {status}: {payload}")
            fleet.dump_logs()
            return 1
        record = payload["study"]
        study_id = record["study_id"]
        assert record["state"] == "succeeded", record["state"]
        assert record["result"] == reference, (
            "clustered study differs from the single-process run"
        )
        print(
            f"clustered run bit-identical: {study_id} "
            f"digest {record['result']['result_digest'][:16]}..."
        )

        metrics = get_json(f"{url}/metrics")
        rounds = metrics["engine"]["counters"].get(
            "cluster_study_rounds", 0
        )
        assert rounds >= 1, (
            f"study never fanned out (cluster_study_rounds={rounds})"
        )
        assert metrics["service"]["studies_succeeded"] == 1, metrics[
            "service"
        ]
        print(f"fan-out confirmed: {rounds} clustered round(s)")

        # 3. Dedup: same document, same id, no re-run.
        status, payload = post_json(
            f"{url}/v1/studies", study_document(), timeout=60.0
        )
        assert status == 200 and payload["created"] is False, (
            status, payload,
        )
        print("resubmission deduplicated")

        # 4. Front + winner detail over HTTP.
        front = get_json(f"{url}/v1/studies/{study_id}/front")
        assert front["front"], front
        winner = front["winner"]
        detail = get_json(
            f"{url}/v1/studies/{study_id}/candidates/{winner}"
        )
        assert detail["on_front"] is True, detail
        print(
            f"winner #{winner}: cost {detail['candidate']['cost']}, "
            f"{detail['candidate']['yearly_downtime_minutes']:.1f} "
            "min/yr"
        )

    # 5. Publish the winner from the server's persisted study store.
    code = cli(
        "study", "publish", study_id,
        "--name", "smoke-winner", "--tag", "prod",
        "--studies-dir", str(cache_dir / "studies"),
        "--registry-db", str(registry_db),
        "--cache-dir", str(base / "publish-cache"),
    )
    if code != 0:
        print(f"FAIL: study publish exited {code}")
        return 1
    from repro.registry import open_registry

    registry = open_registry(db_path=registry_db)
    version = registry.resolve("smoke-winner@prod")
    assert version.source["study_id"] == study_id, version.source
    assert version.source["candidate"] == winner, version.source
    print(
        f"published smoke-winner@prod = {version.digest[:12]} "
        f"(provenance: {version.source['study_id']})"
    )

    print("PASS: clustered study bit-identical, deduplicated, published")
    return 0


def main() -> int:
    return run_in_workdir("studies", smoke)


if __name__ == "__main__":
    sys.exit(main())
