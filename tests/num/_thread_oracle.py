"""Block-solve answers that must not depend on the BLAS thread count.

Run as a script, this prints one JSON document of exact answers (floats
as ``float.hex``, steady-state vectors as SHA-256 digests of their
bytes): every block of every library diagram model, the library's
primary/standby cluster chain, and the E10000 CPU Module at
``min_required`` values that give 100, 148, 208 and 268 states, each
at fixed ``mtbf_hours`` values.  ``test_thread_invariance`` runs it
under ``OPENBLAS_NUM_THREADS`` 1, 2 and 4 and requires identical
output.

``--measures`` adds ``compute_measures`` of the E10000 model with its
CPU Module at 208 states.  Those measures also read dense ``expm`` and
``absorption_times``, which the steady-state routing does not cover,
so the test leaves them out; compare them by hand::

    for t in 1 2; do
        OPENBLAS_NUM_THREADS=$t PYTHONPATH=src \\
            python tests/num/_thread_oracle.py --measures > oracle-$t.json
    done
    diff oracle-1.json oracle-2.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - run as a subprocess
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np

from repro.core import compute_measures, solve_block_chain, translate
from repro.library import (
    ClusterParameters,
    cluster_chain,
    datacenter_model,
    e10000_model,
    workgroup_model,
)
from repro.num import solve_steady

CPU_BLOCK = "E10000 Server/CPU Module"

#: ``min_required`` of the 64-CPU block -> state count: 48 -> 100,
#: 40 -> 148, 30 -> 208, 20 -> 268.
CPU_MIN_REQUIRED = (48, 40, 30, 20)

#: Fixed sweep points; a handful per size is enough for dense LAPACK's
#: thread-dependent rounding to show at 100 states and above.
MTBF_HOURS = (
    20_000.0, 35_000.0, 50_000.01, 71_000.0, 100_000.0,
    150_000.0, 230_000.0, 400_000.0, 650_000.0, 1_000_000.0,
)

#: The CPU Module's ``min_required`` for the ``--measures`` section.
MEASURES_MIN_REQUIRED = 30


def _vector_digest(values) -> str:
    vector = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return hashlib.sha256(vector.tobytes()).hexdigest()[:16]


def _answer(availability: float, frequency: float, pi) -> list:
    return [availability.hex(), frequency.hex(), _vector_digest(pi)]


def library_answers() -> dict:
    """Every library model's block answers and system availability."""
    answers = {}
    for build in (datacenter_model, e10000_model, workgroup_model):
        solution = translate(build())
        for path, block in solution.by_path.items():
            answers[path] = _answer(
                block.availability,
                block.failure_frequency,
                list(block.steady_state.values()),
            )
        answers[solution.model.name] = solution.availability.hex()
    pi = solve_steady(cluster_chain(ClusterParameters()))
    answers["cluster"] = _vector_digest(pi)
    return answers


def cpu_answers() -> dict:
    """The CPU Module's block answers at 100 to 268 states."""
    model = e10000_model()
    parameters = model.find(CPU_BLOCK).parameters
    answers = {}
    for min_required in CPU_MIN_REQUIRED:
        for mtbf in MTBF_HOURS:
            solved = solve_block_chain(
                parameters.with_changes(
                    min_required=min_required, mtbf_hours=mtbf
                ),
                model.global_parameters,
            )
            answers[f"{solved.n_states}@{mtbf!r}"] = _answer(
                solved.availability,
                solved.failure_frequency,
                list(solved.steady_state.values()),
            )
    return answers


def measures_answers() -> dict:
    """``compute_measures`` with the CPU Module at 208 states."""
    model = e10000_model()
    block = model.find(CPU_BLOCK)
    block.parameters = block.parameters.with_changes(
        min_required=MEASURES_MIN_REQUIRED
    )
    measures = compute_measures(translate(model))
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(measures).items()
    }


def oracle(measures: bool = False) -> dict:
    document = {"library": library_answers(), "cpu": cpu_answers()}
    if measures:
        document["measures"] = measures_answers()
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--measures", action="store_true",
        help="also print compute_measures of the 208-state CPU Module",
    )
    args = parser.parse_args(argv)
    json.dump(oracle(args.measures), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - run as a subprocess
    sys.exit(main())
