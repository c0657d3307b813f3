"""SIGKILL a writer mid-transaction against every store; reopen clean.

Each case spawns a subprocess that hammers one store's public write
API in a tight loop, kills it with SIGKILL once it has committed at
least one record, then reopens the database through the same store
class and asserts the three durability invariants:

* ``PRAGMA integrity_check`` says ``ok``;
* ``user_version`` is at the schema's current version (the kill
  cannot leave a half-migrated header);
* no partial rows — every committed record still satisfies the
  store's own consistency rules (JSON columns parse, cross-table
  references resolve, multi-row writes are all-or-nothing).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.store import db_check

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Writer subprocesses; each prints ``ready`` after its first commit
#: and then loops until killed.  ``sys.argv[1]`` is the scratch dir.
WRITERS = {
    "jobs": """
import sys
from repro.jobs import JobSpec, JobStore
from repro.library import workgroup_model
from repro.spec import model_to_spec
store = JobStore(sys.argv[1] + "/jobs.sqlite3")
spec = model_to_spec(workgroup_model())
index = 0
while True:
    store.submit(JobSpec(
        kind="sweep",
        spec=spec,
        params={"field": "mtbf_hours", "values": [float(index)]},
    ))
    if index == 0:
        print("ready", flush=True)
    index += 1
""",
    "registry": """
import sys
from repro.registry.store import RegistryStore
store = RegistryStore(sys.argv[1] + "/registry.sqlite3")
store.upsert_model("crash", "crash fixture")
index = 0
while True:
    digest = f"{index:064d}"
    store.insert_version(
        "crash", digest, {"model": {"name": f"m{index}"}}, None, [], None
    )
    store.set_tag("crash", "prod", digest)
    if index == 0:
        print("ready", flush=True)
    index += 1
""",
    "cluster": """
import sys
from repro.cluster.coordinator import ShardStore
from repro.cluster.sharding import Shard, shard_id
store = ShardStore(sys.argv[1] + "/cluster.sqlite3")
index = 0
while True:
    digest = f"wl-{index:08d}"
    shards = [
        Shard(id=shard_id(digest, j * 10, j * 10 + 10),
              index=j, lo=j * 10, hi=j * 10 + 10)
        for j in range(4)
    ]
    store.plan(f"job-{index:08d}", shards)
    if index == 0:
        print("ready", flush=True)
    index += 1
""",
    "studies": """
import sys
from repro.studies.store import StudyStore
store = StudyStore(sys.argv[1] + "/studies")
index = 0
while True:
    study_id = f"study-{index:032d}"
    store.submit(study_id, {"name": f"s{index}", "variables": []})
    store.succeed(study_id, {"evaluated": index, "front": []})
    if index == 0:
        print("ready", flush=True)
    index += 1
""",
    "telemetry": """
import sys
from repro.telemetry.hub import TelemetryHub
hub = TelemetryHub(sys.argv[1] + "/telemetry")
index = 0
while True:
    # Each batch saves its touched units' rows and the config.
    hub.ingest([
        {"part": part, "unit": f"u#{(index + k) % 7}",
         "kind": ("failure", "repair")[index // 7 % 2],
         "time_hours": float(index + 1)}
        for k, part in enumerate(("Sys/Disk", "Sys/CPU", "Sys/PSU"))
    ])
    if index == 0:
        print("ready", flush=True)
    index += 1
""",
}


def run_writer_and_kill(tmp_path, name: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", WRITERS[name], str(tmp_path)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        if line.strip() != b"ready":
            stderr = proc.stderr.read().decode()
            raise AssertionError(
                f"{name} writer never became ready: {stderr}"
            )
        time.sleep(0.25)  # land the kill somewhere mid-write
        assert proc.poll() is None, "writer died before the kill"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL


class TestCrashSafety:
    def test_jobs_store_survives_sigkill(self, tmp_path):
        from repro.jobs import JobStore
        from repro.jobs.store import JOBS_SCHEMA

        run_writer_and_kill(tmp_path, "jobs")
        store = JobStore(tmp_path / "jobs.sqlite3")
        records = store.list_jobs(limit=100_000)
        assert records, "at least the first commit must survive"
        for record in records:
            assert record.id.startswith("job-")
            assert record.spec.kind == "sweep"
        assert store.db.user_version() == JOBS_SCHEMA.version
        store.close()
        assert db_check(tmp_path / "jobs.sqlite3")["ok"]

    def test_registry_store_survives_sigkill(self, tmp_path):
        from repro.registry.store import REGISTRY_SCHEMA, RegistryStore

        run_writer_and_kill(tmp_path, "registry")
        store = RegistryStore(tmp_path / "registry.sqlite3")
        with store.db.connection() as conn:
            digests = {
                row["digest"]
                for row in conn.execute(
                    "SELECT digest FROM registry_versions"
                )
            }
            assert digests, "at least the first version must survive"
            for row in conn.execute(
                "SELECT spec FROM registry_versions"
            ):
                json.loads(row["spec"])
            for row in conn.execute(
                "SELECT digest FROM registry_tags "
                "UNION SELECT digest FROM registry_tag_history"
            ):
                # tags always follow their version's commit, so a tag
                # pointing at a missing digest would be a torn write
                assert row["digest"] in digests
        assert store.db.user_version() == REGISTRY_SCHEMA.version
        store.close()
        assert db_check(tmp_path / "registry.sqlite3")["ok"]

    def test_cluster_store_survives_sigkill(self, tmp_path):
        from repro.cluster.coordinator import CLUSTER_SCHEMA, ShardStore

        run_writer_and_kill(tmp_path, "cluster")
        store = ShardStore(str(tmp_path / "cluster.sqlite3"))
        with store.db.connection() as conn:
            rows = conn.execute(
                "SELECT job, COUNT(*) AS n FROM cluster_shards "
                "GROUP BY job"
            ).fetchall()
            assert rows, "at least the first plan must survive"
            for row in rows:
                # plan() writes a job's shards in one transaction —
                # a job has all four shards or none at all
                assert row["n"] == 4
        assert store.db.user_version() == CLUSTER_SCHEMA.version
        store.close()
        assert db_check(tmp_path / "cluster.sqlite3")["ok"]

    def test_studies_store_survives_sigkill(self, tmp_path):
        from repro.studies.store import (
            STUDIES_SCHEMA,
            STUDY_STATES,
            StudyStore,
        )

        run_writer_and_kill(tmp_path, "studies")
        store = StudyStore(tmp_path / "studies")
        ids = store.ids()
        assert ids, "at least the first submit must survive"
        for study_id in ids:
            record = store.get(study_id)  # JSON columns must parse
            assert record["state"] in STUDY_STATES
            if record["state"] == "succeeded":
                assert "evaluated" in record["result"]
        assert store.db.user_version() == STUDIES_SCHEMA.version
        store.close()
        assert db_check(tmp_path / "studies" / "studies.sqlite3")["ok"]

    def test_telemetry_store_survives_sigkill(self, tmp_path):
        from repro.telemetry.hub import TELEMETRY_SCHEMA, TelemetryHub

        from repro.telemetry import RateEstimator

        run_writer_and_kill(tmp_path, "telemetry")
        hub = TelemetryHub(tmp_path / "telemetry")  # reload parses rows
        with hub.db.connection() as conn:
            rows = conn.execute(
                "SELECT key, value FROM telemetry_kv"
            ).fetchall()
            assert rows, "at least the first save must survive"
            documents = {
                row["key"]: json.loads(row["value"]) for row in rows
            }
            units = conn.execute(
                "SELECT part, unit, state FROM telemetry_units"
            ).fetchall()
        assert units, "at least the first batch's rows must survive"
        state = dict(documents["config"], units={})
        for row in units:
            state["units"].setdefault(row["part"], {})[row["unit"]] = (
                json.loads(row["state"])
            )
        expected = RateEstimator.from_dict(state)
        assert hub.estimator.state_digest() == expected.state_digest()
        assert hub.estimator.events_total == expected.events_total > 0
        assert hub.db.user_version() == TELEMETRY_SCHEMA.version
        hub.close()
        assert db_check(
            tmp_path / "telemetry" / "telemetry.sqlite3"
        )["ok"]
