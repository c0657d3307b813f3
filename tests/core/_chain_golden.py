"""Shared builder for the block-chain golden fixture.

The fixture freezes what :func:`repro.core.generate_block_chain`
returns — the arc arrays of ``chain.arcs()`` (sources, targets and the
raw bytes of the rates), the state names with their rewards and meta,
the arc labels, the per-state exit rates (which depend on the order
parallel arcs were accumulated in) and any error raised — for every
chain-backed block of the library models and for 200 seeded parameter
sets.  The seeded sets cycle through the five model types and draw
every field whose zero pattern shapes the chain from all of its
patterns: ``plf`` and ``pspf`` in {0, (0, 1), 1}, ``pcd`` in
{1, (0, 1), 0}, a zero or positive transient rate, an infinite or
finite MTBF (a zero or positive permanent rate) and a service response
time that is zero, below the 1e-9 h cut-off, or positive.

``chain_golden.json`` was generated by :func:`compute_golden` on the
per-call generator, before chains were filled from cached structure
templates; the tests rebuild through the current code and compare.

Regenerate (only when a chain change is intentional) with::

    PYTHONPATH=src python tests/core/_chain_golden.py > \
        tests/core/chain_golden.json
"""

from __future__ import annotations

import base64
import dataclasses
import json
import random
from typing import Dict, List, Tuple

import numpy as np

SEED = 20261019
SEEDED_CASES = 200

#: Field value pools; ``None`` marks "draw a fresh interior value".
_PROBABILITY_PATTERNS = (0.0, None, 1.0)
_PCD_PATTERNS = (1.0, None, 0.0)
_TRESP_PATTERNS = (0.0, 5e-10, None)
_SCENARIOS = {
    1: ("transparent", "transparent"),
    2: ("transparent", "nontransparent"),
    3: ("nontransparent", "transparent"),
    4: ("nontransparent", "nontransparent"),
}


def _interior(rng: random.Random) -> float:
    return rng.uniform(0.001, 0.999)


def seeded_parameter_fields(count: int = SEEDED_CASES) -> List[Dict]:
    """``count`` BlockParameters field dicts from one seeded stream."""
    rng = random.Random(SEED)
    cases = []
    for index in range(count):
        model_type = index % 5
        k = rng.randint(1, 3)
        n = k if model_type == 0 else k + rng.randint(1, 4)
        plf = rng.choice(_PROBABILITY_PATTERNS)
        pspf = rng.choice(_PROBABILITY_PATTERNS)
        pcd = rng.choice(_PCD_PATTERNS)
        tresp = rng.choice(_TRESP_PATTERNS)
        fields = {
            "name": f"case{index:03d}",
            "quantity": n,
            "min_required": k,
            "mtbf_hours": (
                float("inf") if rng.random() < 0.15
                else 10 ** rng.uniform(3.0, 6.0)
            ),
            "transient_fit": (
                0.0 if rng.random() < 0.4 else 10 ** rng.uniform(2.0, 4.5)
            ),
            "diagnosis_minutes": rng.uniform(0.0, 60.0),
            "corrective_minutes": rng.uniform(1.0, 120.0),
            "verification_minutes": rng.uniform(0.0, 60.0),
            "service_response_hours": (
                rng.uniform(0.5, 24.0) if tresp is None else tresp
            ),
            "p_correct_diagnosis": _interior(rng) if pcd is None else pcd,
            "p_latent_fault": _interior(rng) if plf is None else plf,
            "mttdlf_hours": rng.uniform(1.0, 100.0),
            "ar_time_minutes": rng.uniform(0.5, 30.0),
            "p_spf": _interior(rng) if pspf is None else pspf,
            "spf_recovery_minutes": rng.uniform(5.0, 90.0),
            "reintegration_minutes": rng.uniform(1.0, 30.0),
        }
        if model_type:
            fields["recovery"], fields["repair"] = _SCENARIOS[model_type]
        cases.append(fields)
    return cases


def _block_fields(parameters) -> Dict[str, object]:
    fields = {}
    for field in dataclasses.fields(parameters):
        value = getattr(parameters, field.name)
        fields[field.name] = getattr(value, "value", value)
    return fields


def library_cases() -> List[Tuple[str, Dict, Dict]]:
    """(path, block fields, global fields) of every library chain."""
    from repro.core import translate
    from repro.library import datacenter_model, e10000_model, workgroup_model

    cases = []
    for factory in (datacenter_model, e10000_model, workgroup_model):
        model = factory()
        globals_ = dataclasses.asdict(model.global_parameters)
        for path, solved in translate(model).by_path.items():
            if solved.chain is not None:
                cases.append((path, _block_fields(solved.effective), globals_))
    return cases


def all_cases() -> List[Tuple[str, Dict, Dict]]:
    """Every (case id, block fields, global fields) the fixture pins."""
    seeded = [
        (fields["name"], fields, {}) for fields in seeded_parameter_fields()
    ]
    return library_cases() + seeded


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype).tobytes()).decode()


def chain_record(block_fields: Dict, global_fields: Dict) -> Dict[str, object]:
    """What the generator returns for one parameter set, as JSON data."""
    from repro.core import BlockParameters, GlobalParameters, generate_block_chain
    from repro.errors import ModelError
    from repro.ident import canonical_json, sha256_hex

    parameters = BlockParameters(**block_fields)
    globals_ = GlobalParameters(**global_fields)
    try:
        chain = generate_block_chain(parameters, globals_)
    except ModelError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    view = chain.arcs()
    names = chain.state_names
    labels = [
        chain._labels.get((names[s], names[t]), "")
        for s, t in zip(view.sources.tolist(), view.targets.tolist())
    ]
    annotations = [[state.reward, dict(state.meta)] for state in chain]
    return {
        "name": chain.name,
        "states": names,
        "sources": view.sources.tolist(),
        "targets": view.targets.tolist(),
        "rates": _b64(view.rates, "<f8"),
        "exit_rates": _b64(
            np.array(list(chain.exit_rates().values()), float), "<f8"
        ),
        # Rewards, meta and labels are pinned by digest to keep the
        # fixture small; a mismatch names the case.
        "annotations": sha256_hex(canonical_json([annotations, labels])),
    }


def decode(record: Dict[str, object], key: str) -> np.ndarray:
    """The array a record stores under ``key``."""
    if key in ("rates", "exit_rates"):
        return np.frombuffer(base64.b64decode(record[key]), dtype="<f8")
    return np.array(record[key], dtype=np.intp)


def compute_golden() -> Dict[str, object]:
    return {
        case_id: {
            "block": block_fields,
            "globals": global_fields,
            "chain": chain_record(block_fields, global_fields),
        }
        for case_id, block_fields, global_fields in all_cases()
    }


if __name__ == "__main__":
    # One case per line keeps the fixture small and its diffs readable.
    golden = compute_golden()
    lines = [
        f"{json.dumps(case_id)}:{json.dumps(golden[case_id], sort_keys=True)}"
        for case_id in sorted(golden)
    ]
    print("{\n" + ",\n".join(lines) + "\n}")
