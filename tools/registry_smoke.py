#!/usr/bin/env python3
"""CI smoke test: the registry's gated-rollout lifecycle, end to end.

Real processes, real sockets, one shared ``registry.sqlite3``:

1. ``rascad models publish`` a workgroup v1 straight to ``prod``
   (CLI side of the registry).
2. ``rascad models check`` a degraded v2 against ``prod`` — the
   dry-run gate must answer REJECT (exit 1).
3. Start a real ``rascad serve`` subprocess on the same registry
   file and POST the degraded v2 to ``prod`` — the publish gate must
   answer ``409 regression_detected`` with structured details.
4. ``"force": true`` pushes it through, with the override recorded.
5. Roll ``prod`` back over HTTP and confirm v1 holds the tag again.
6. Throughout: ``"model_ref"`` solves and sweeps must be
   byte-identical to the same requests with the spec inlined.

Run from the repository root::

    PYTHONPATH=src python tools/registry_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from _smoke_common import Fleet, cli, request, run_in_workdir, subprocess_env

from repro.library import workgroup_model  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402

BLOCK = "Workgroup Server/Operating System"
SWEEP_VALUES = [1e5 + 1.8e4 * i for i in range(50)]


def smoke(base: Path) -> int:
    registry_db = base / "registry.sqlite3"
    cache_dir = base / "cache"

    good = model_to_spec(workgroup_model())
    bad = model_to_spec(workgroup_model())
    for block in bad["diagram"]["blocks"]:
        if block["name"] == "Operating System":
            block["mtbf_hours"] = 3_000.0
    good_path = base / "wg.json"
    bad_path = base / "wg_bad.json"
    good_path.write_text(json.dumps(good))
    bad_path.write_text(json.dumps(bad))

    env = subprocess_env()

    # 1. CLI publish v1 to prod.
    code = cli(
        "models", "publish", str(good_path), "--name", "smoke",
        "--tag", "prod", "--registry-db", str(registry_db),
        "--cache-dir", str(cache_dir), env=env,
    )
    if code != 0:
        print(f"FAIL: CLI publish exited {code}")
        return 1

    # 2. CLI dry-run gate on the degraded candidate: must REJECT.
    code = cli(
        "models", "check", str(bad_path), "--name", "smoke",
        "--tag", "prod", "--registry-db", str(registry_db),
        "--cache-dir", str(cache_dir), env=env,
    )
    if code != 1:
        print(f"FAIL: check exited {code}, expected the REJECT exit 1")
        return 1
    print("CLI publish + gate dry-run OK")

    # 3-6. The HTTP side, on the same registry file.
    with Fleet(base, env=env) as fleet:
        url = fleet.spawn_server("server", [
            "serve",
            "--registry-db", str(registry_db),
            "--cache-dir", str(cache_dir),
        ])

        # The CLI-published version is visible over HTTP.
        status, body = request(f"{url}/v1/models/smoke")
        assert status == 200, (status, body)
        detail = json.loads(body)["model"]
        v1_digest = detail["tags"]["prod"]
        print(f"server sees smoke@prod = {v1_digest[:12]}")

        # 3. The degraded publish is rejected with structured details.
        status, body = request(f"{url}/v1/models", {
            "name": "smoke", "spec": bad, "tag": "prod",
        })
        envelope = json.loads(body)
        assert status == 409, (status, body)
        assert envelope["error"]["code"] == "regression_detected", envelope
        details = envelope["error"]["details"]
        assert details["baseline_digest"] == v1_digest, details
        assert details["downtime_delta_minutes"] > details[
            "threshold_minutes"
        ], details
        print(
            "gate rejected the rollout: "
            f"{details['downtime_delta_minutes']:+.3f} min/yr"
        )

        # 4. Force pushes it through, recorded.
        status, body = request(f"{url}/v1/models", {
            "name": "smoke", "spec": bad, "tag": "prod", "force": True,
        })
        forced = json.loads(body)
        assert status in (200, 201), (status, body)
        assert forced["gate"]["forced"] is True, forced
        v2_digest = forced["version"]["digest"]
        print(f"forced through: smoke@prod = {v2_digest[:12]}")

        # 5. Rollback restores v1.
        status, body = request(
            f"{url}/v1/models/smoke/tags",
            {"tag": "prod", "rollback": True},
        )
        rolled = json.loads(body)
        assert status == 200, (status, body)
        assert rolled["digest"] == v1_digest, rolled
        assert rolled["rolled_back_from"] == v2_digest, rolled
        print(f"rolled back: smoke@prod = {v1_digest[:12]}")

        # 6. Ref-based solving is byte-identical to inline.
        status_inline, inline = request(f"{url}/v1/solve", {
            "spec": good,
        })
        status_ref, ref = request(f"{url}/v1/solve", {
            "model_ref": "smoke@prod",
        })
        assert status_inline == status_ref == 200
        assert inline == ref, "ref solve differs from inline solve"

        sweep = {"field": "mtbf_hours", "block": BLOCK,
                 "values": SWEEP_VALUES}
        status_inline, inline = request(
            f"{url}/v1/sweep", {**sweep, "spec": good}
        )
        status_ref, ref = request(
            f"{url}/v1/sweep", {**sweep, "model_ref": "smoke@prod"}
        )
        assert status_inline == status_ref == 200
        assert inline == ref, "ref sweep differs from inline sweep"
        points = len(json.loads(inline)["points"])
        assert points == len(SWEEP_VALUES), points

        print(
            "PASS: gated rollout lifecycle OK; ref solve and "
            f"{points}-point ref sweep byte-identical to inline"
        )
        return 0


def main() -> int:
    return run_in_workdir("registry", smoke)


if __name__ == "__main__":
    sys.exit(main())
