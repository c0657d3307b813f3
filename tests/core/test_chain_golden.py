"""Generated chains stay bit-identical to the committed golden fixture.

Each case first generates a chain at a sibling parameter set P with
the same structure (same type, N, K, scenarios and zero pattern, but
other rates and another block name), then at the golden set P'.  The
second chain must match the golden record array for array: so a chain
built from structure cached at P and refilled with P' rates can never
drift from what the per-call generator returned.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import BlockParameters, GlobalParameters, generate_block_chain

from ._chain_golden import chain_record, decode

FIXTURE = Path(__file__).parent / "chain_golden.json"
GOLDEN = json.loads(FIXTURE.read_text())


def sibling_fields(block: dict) -> dict:
    """Other rates and name, same structure signature as ``block``."""
    fields = dict(block, name=f"sibling of {block['name']}")
    for key in (
        "mtbf_hours", "transient_fit", "diagnosis_minutes",
        "corrective_minutes", "verification_minutes", "mttdlf_hours",
        "ar_time_minutes", "spf_recovery_minutes", "reintegration_minutes",
    ):
        fields[key] = fields[key] * 1.37
    for key in ("p_latent_fault", "p_spf", "p_correct_diagnosis"):
        if 0.0 < fields[key] < 1.0:
            fields[key] = 0.25 + 0.5 * fields[key]
    tresp = fields["service_response_hours"]
    fields["service_response_hours"] = tresp * (0.4 if tresp < 1e-9 else 1.5)
    return fields


def sibling_globals(globals_: dict) -> dict:
    defaults = dataclasses.asdict(GlobalParameters())
    return {key: value * 1.2 for key, value in dict(defaults, **globals_).items()}


def assert_matches(record: dict, golden: dict, case: str) -> None:
    if "error" in golden:
        assert record == golden, case
        return
    assert record["name"] == golden["name"], case
    assert record["states"] == golden["states"], case
    for key in ("sources", "targets", "rates", "exit_rates"):
        assert np.array_equal(
            decode(record, key), decode(golden, key)
        ), f"{case}: {key}"
    assert record["annotations"] == golden["annotations"], case


def test_fixture_spans_every_type_and_zero_pattern():
    blocks = [case["block"] for case in GOLDEN.values()]
    assert len(GOLDEN) >= 200
    assert {
        (b["quantity"] > b["min_required"], b.get("recovery"), b.get("repair"))
        for b in blocks
    } >= {
        (False, None, None),
        (True, "transparent", "transparent"),
        (True, "transparent", "nontransparent"),
        (True, "nontransparent", "transparent"),
        (True, "nontransparent", "nontransparent"),
    }
    for key, patterns in (
        ("p_latent_fault", ("zero", "interior", "one")),
        ("p_spf", ("zero", "interior", "one")),
        ("p_correct_diagnosis", ("zero", "interior", "one")),
    ):
        seen = {
            "zero" if b[key] == 0.0 else "one" if b[key] == 1.0 else "interior"
            for b in blocks
        }
        assert seen == set(patterns), key
    assert {b["transient_fit"] > 0.0 for b in blocks} == {True, False}
    assert {b["mtbf_hours"] == float("inf") for b in blocks} == {True, False}
    assert {
        "zero" if b["service_response_hours"] == 0.0
        else "tiny" if b["service_response_hours"] < 1e-9 else "positive"
        for b in blocks
    } == {"zero", "tiny", "positive"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_chain_after_a_sibling_matches_golden(case):
    entry = GOLDEN[case]
    sibling = generate_block_chain(
        BlockParameters(**sibling_fields(entry["block"])),
        GlobalParameters(**sibling_globals(entry["globals"])),
    )
    assert sibling.name.startswith("sibling of ")
    assert_matches(
        chain_record(entry["block"], entry["globals"]), entry["chain"], case
    )


def test_mutating_a_chain_leaves_its_siblings_untouched():
    case = "E10000 Server/CPU Module"
    entry = GOLDEN[case]
    parameters = BlockParameters(**entry["block"])
    globals_ = GlobalParameters(**entry["globals"])
    first = generate_block_chain(parameters, globals_)
    second = generate_block_chain(parameters, globals_)
    first.add_state("Extra", reward=0.0)
    first.add_transition("Ok", "Extra", 1.0, label="mutation")
    first.add_transition("Ok", first.state_names[1], 2.0, label="mutation")
    assert "Extra" not in second
    assert "mutation" not in " ".join(second._labels.values())
    record = chain_record(entry["block"], entry["globals"])
    assert_matches(record, entry["chain"], case)
    assert np.array_equal(
        second.arcs().rates, decode(entry["chain"], "rates")
    )
    assert second.n_states == len(entry["chain"]["states"])
