"""Golden-output lock: job results, checkpoints and service bodies.

``golden_outputs.json`` was generated by
:func:`._golden_outputs.compute_golden_outputs` before the batch kinds'
math was consolidated into :mod:`repro.engine`; recomputing through the
current code and asserting equality proves every job payload,
checkpoint and HTTP body came out bit-identical.
"""

import json
from pathlib import Path

from ._golden_outputs import JOB_PARAMS, compute_golden_outputs

FIXTURE = Path(__file__).parent / "golden_outputs.json"


def test_every_output_is_bit_identical():
    assert compute_golden_outputs() == json.loads(FIXTURE.read_text())


def test_fixture_covers_every_job_kind_and_body():
    golden = json.loads(FIXTURE.read_text())
    from repro.jobs.types import JOB_KINDS

    assert set(golden["jobs"]) == set(JOB_KINDS) == set(JOB_PARAMS)
    for runs in golden["jobs"].values():
        assert set(runs) == {"jobs1", "jobs2"}
        # A job's answer never depends on the worker count.
        assert runs["jobs1"] == runs["jobs2"]
    assert set(golden["service"]) == {"sweep", "validate", "cluster_sweep"}
