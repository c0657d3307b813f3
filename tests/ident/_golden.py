"""Shared builder for the golden-digest fixture.

The fixture freezes every content-identity the system mints — job ids,
shard ids, workload digests, registry spec digests, study ids, field
event ids, estimator state digests, engine cache keys, and the derived
deterministic integers (task seeds, rendezvous scores, backoff jitter)
— over a fixed set of inputs.  ``golden_digests.json`` was generated
by :func:`compute_golden` *before* the digest machinery moved into
:mod:`repro.ident`; the test recomputes through the current code and
asserts bit-identity, so the refactor can never silently fork an id.

Regenerate (only when an identity change is intentional) with::

    PYTHONPATH=src python tests/ident/_golden.py > \
        tests/ident/golden_digests.json
"""

from __future__ import annotations

import json
from typing import Dict


def compute_golden() -> Dict[str, object]:
    from repro.cluster.sharding import (
        plan_shards,
        rendezvous_score,
        shard_id,
    )
    from repro.engine.keys import (
        block_digest,
        chain_digest,
        model_digest,
        task_seed,
    )
    from repro.jobs.retry import backoff_delay
    from repro.jobs.types import (
        JobSpec,
        job_digest,
        result_digest,
        workload_digest,
    )
    from repro.library import e10000_model, workgroup_model
    from repro.registry.types import spec_digest
    from repro.spec import model_to_spec
    from repro.studies import parse_study, study_digest
    from repro.telemetry.estimator import RateEstimator
    from repro.telemetry.events import FieldEvent

    model = workgroup_model()
    spec_doc = model_to_spec(model)
    e10000 = e10000_model()

    golden: Dict[str, object] = {}

    # engine cache keys
    golden["model_digest_workgroup_direct"] = model_digest(model)
    golden["model_digest_e10000_gth"] = model_digest(e10000, "gth")
    block = next(b for b in model.root if not b.has_subdiagram)
    golden["block_digest_first_leaf"] = block_digest(
        block.parameters, model.global_parameters
    )
    from repro.markov.chain import MarkovChain

    chain = MarkovChain("pair")
    chain.add_state("Ok", reward=1.0)
    chain.add_state("Down", reward=0.0)
    chain.add_transition("Ok", "Down", 0.001)
    chain.add_transition("Down", "Ok", 0.5)
    golden["chain_digest_pair"] = chain_digest(chain)
    golden["task_seed_42_7"] = task_seed(42, 7)

    # jobs
    job = JobSpec(
        kind="sweep",
        spec=spec_doc,
        params={"field": "mtbf_hours", "block": None,
                "values": [1000.0, 2000.0, 3000.0]},
        priority=2,
        max_attempts=3,
    )
    golden["job_digest_sweep"] = job_digest(job)
    golden["result_digest_simple"] = result_digest(
        {"points": [1.0, 2.0], "model": "workgroup"}
    )
    golden["backoff_delay_job_3"] = backoff_delay(3, key="job-abcdef")

    # cluster
    golden["shard_id_wl_0_16"] = shard_id("wl-0123456789abcdef", 0, 16)
    golden["plan_shards_100_16"] = [
        shard.id for shard in plan_shards("wl-0123456789abcdef", 100, 16)
    ]
    golden["rendezvous_score_s_w"] = rendezvous_score(
        "shard-aaaa", "worker-1"
    )
    # A sweep plan's workload document, here without a pinned solver.
    golden["workload_digest_sweep"] = workload_digest({
        "kind": "sweep", "spec": spec_doc, "field": "mtbf_hours",
        "block": None, "values": [1000.0, 2000.0, 3000.0], "solver": None,
    })

    # registry
    golden["spec_digest_workgroup"] = spec_digest(model)
    golden["spec_digest_e10000"] = spec_digest(e10000)

    # studies
    study = parse_study({
        "base": spec_doc,
        "variables": [
            {"path": None, "field": "mttm_hours",
             "values": [2.0, 4.0]},
        ],
        "strategy": "grid",
    })
    golden["study_digest_grid"] = study_digest(study)

    # telemetry
    events = [
        FieldEvent("server.disk", "u1", "failure", 10.0),
        FieldEvent("server.disk", "u1", "repair", 12.0),
        FieldEvent("server.cpu", "u2", "failure", 100.5),
    ]
    golden["event_ids"] = [event.event_id for event in events]
    estimator = RateEstimator(start_hours=0.0, window_hours=168.0)
    estimator.ingest_many(events)
    golden["estimator_state_digest"] = estimator.state_digest()
    golden["fit_digest"] = estimator.fit(
        window_end_hours=200.0, confidence=0.95
    ).digest()

    return golden


if __name__ == "__main__":
    print(json.dumps(compute_golden(), indent=2, sort_keys=True))
