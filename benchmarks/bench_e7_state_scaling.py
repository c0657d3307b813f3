"""E7 — Section 4: automatic state generation for larger N and K.

The paper: "For larger N and K values, more states are needed and
these states are all generated automatically in RAScad" and "if
N-K > 1, states TF1, AR1, PF1 and Latent1 will be repeated in the
model."  This benchmark sweeps the redundancy depth, reports the state
and transition counts plus generation/solve time, and asserts the
linear growth the repetition rule implies — in states, and in
generation time (doubling the depth may grow it at most 2.8x).

It also breaks one cold block solve of the 208-state CPU block that
perfbench's ``sweep_cold`` workload sweeps into its stages (template
fill, operator, steady solve, crossing frequency), times the one-off
template build ("generate") and the engine's persistent layer below
them ("persist": encode and atomic write of the block record;
"disk_hit": read, decode and chain regeneration) beside them, and
writes the breakdown to ``BENCH_e7_state_scaling.json`` at the
repository root.
"""

import itertools
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import BlockParameters, GlobalParameters, generate_block_chain
from repro.core.generator import ChainTemplates
from repro.core.translator import solve_block_chain
from repro.engine import SolveCache, block_digest
from repro.engine.engine import _chain_solve_record, _regenerated_solve
from repro.markov import crossing_frequency, steady_state_availability
from repro.num import GeneratorOperator, as_operator, as_options, solve_steady
from tests.markov.test_arc_view import SWEEP_BLOCK, sweep_block
from tests.markov.test_linear_time import MAX_DOUBLING_RATIO, best_seconds

from ._report import emit, emit_table

RESULT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_e7_state_scaling.json"
)

DEPTHS = [1, 2, 4, 8, 16, 32, 64, 128, 256]


def parameters(n, k):
    return BlockParameters(
        name="FRU",
        quantity=n,
        min_required=k,
        mtbf_hours=50_000.0,
        transient_fit=10_000.0,
        p_latent_fault=0.05,
        p_spf=0.02,
        p_correct_diagnosis=0.95,
        recovery="nontransparent",
        repair="nontransparent",
    )


def bench_e7_state_space_scaling(benchmark):
    g = GlobalParameters()

    def generate_all():
        return {
            depth: generate_block_chain(parameters(depth + 1, 1), g)
            for depth in DEPTHS
        }

    chains = benchmark(generate_all)

    # Template builds: generate_block_chain refills a cached template
    # after its first call, so time the build on an empty cache.
    generate_s = best_seconds([
        lambda depth=depth: ChainTemplates().chain(parameters(depth + 1, 1), g)
        for depth in DEPTHS
    ])
    fill_s = best_seconds([
        lambda depth=depth: generate_block_chain(parameters(depth + 1, 1), g)
        for depth in DEPTHS
    ])

    rows = []
    counts = []
    for depth, generation, fill in zip(DEPTHS, generate_s, fill_s):
        chain = chains[depth]
        start = time.perf_counter()
        availability = steady_state_availability(chain)
        solve_ms = (time.perf_counter() - start) * 1e3
        counts.append(chain.n_states)
        rows.append([
            depth + 1, 1, depth, chain.n_states,
            len(chain.transitions()),
            f"{generation * 1e3:.2f}",
            f"{fill * 1e3:.2f}",
            f"{solve_ms:.2f}",
            f"{availability:.8f}",
        ])

    emit_table(
        "E7 (Section 4): generated state space vs redundancy depth N-K",
        ["N", "K", "depth", "states", "arcs", "generate ms", "fill ms",
         "solve ms", "availability"],
        rows,
    )

    # Linear growth: constant per-level state increment.
    per_level = [
        (counts[i + 1] - counts[i]) / (DEPTHS[i + 1] - DEPTHS[i])
        for i in range(len(DEPTHS) - 1)
    ]
    emit("", f"states per additional redundancy level: {per_level}")
    assert len(set(per_level)) == 1, "growth must be exactly linear"
    assert counts[-1] < 8 * (DEPTHS[-1] + 2), "bounded by 7 states/level"

    # Linear-time generation: the last doubling of the depth.
    ratio = generate_s[-1] / generate_s[-2]
    emit("", f"generation time x{ratio:.2f} from depth {DEPTHS[-2]} to "
         f"{DEPTHS[-1]} (bound x{MAX_DOUBLING_RATIO})")
    assert ratio <= MAX_DOUBLING_RATIO, "generation must scale linearly"


def test_e7_wide_k_sweep():
    """K varies at fixed N: state count depends only on N-K."""
    g = GlobalParameters()
    sizes = {}
    for k in (1, 4, 8, 12, 15):
        chain = generate_block_chain(parameters(16, k), g)
        sizes[k] = chain.n_states
    emit("", f"E7 K-sweep at N=16: states by K = {sizes}")
    # Equal depth -> equal size: compare K pairs with matching N-K.
    chain_a = generate_block_chain(parameters(16, 8), g)
    chain_b = generate_block_chain(parameters(24, 16), g)
    assert chain_a.n_states == chain_b.n_states


def bench_e7_block_solve_breakdown():
    """Process CPU time of each stage of one cold 208-state block solve.

    The stages are the steps of :func:`solve_block_chain`: a sweep
    point refills the block's cached chain template ("template fill"),
    so the one-off template build ("generate", on an empty template
    cache) is timed beside the stages and left out of the unattributed
    remainder.  So are the engine cache's disk stages, which a server
    started with ``--cache-dir`` adds around a solve: "persist" encodes
    the solve's record and writes it atomically to a new file, as each
    unseen sweep point does, and "disk_hit" reads it back in a cold
    cache, decodes it and regenerates the chain (a template refill).
    The operator, steady and crossing stages reuse one generated chain,
    whose arc view generation has already built, as in a real solve.
    Each steady solve wraps the CSR matrix in a fresh operator.  At 208
    states the default backend runs as ``sparse-direct`` (SuperLU), the
    backend the record names, so no threaded LAPACK factorisation
    leaves BLAS threads spinning into the next stage.
    """
    parameters, g = sweep_block()
    effective = parameters.with_changes(mtbf_hours=50_000.01)
    options = as_options("direct")
    chain = generate_block_chain(effective, g)
    op = as_operator(chain, representation=options.representation)
    pi = dict(zip(chain.state_names, solve_steady(op, options).tolist()))
    solved = solve_block_chain(effective, g, options)
    key = block_digest(effective, g, options)
    scratch = tempfile.TemporaryDirectory()
    cache = SolveCache(cache_dir=scratch.name)
    cache.put_block(key, solved, _chain_solve_record)
    fresh_keys = (f"{key}-{n}" for n in itertools.count())

    def disk_hit():
        _value, layer = SolveCache(cache_dir=scratch.name).get_block(
            key, lambda data: _regenerated_solve(data, effective, g, options)
        )
        assert layer == "disk"

    stages = {
        "generate": lambda: ChainTemplates().chain(effective, g),
        "template_fill": lambda: generate_block_chain(effective, g),
        "operator": lambda: as_operator(
            chain, representation=options.representation
        ),
        "steady": lambda: solve_steady(
            GeneratorOperator(op.sparse()), options
        ),
        "crossing": lambda: crossing_frequency(chain, pi, up_to_down=True),
        "persist": lambda: cache.put_block(
            next(fresh_keys), solved, _chain_solve_record
        ),
        "disk_hit": disk_hit,
        "total": lambda: solve_block_chain(effective, g, options),
    }
    with scratch:
        seconds = dict(zip(stages, best_seconds(list(stages.values()))))
        entries, size = cache.disk_usage()
    record_bytes = size // entries
    total = seconds.pop("total")
    beside = ("generate", "persist", "disk_hit")
    in_solve = sum(
        value for name, value in seconds.items() if name not in beside
    )
    results = {
        "benchmark": "e7_state_scaling",
        "block_solve": {
            "block": SWEEP_BLOCK,
            "min_required": parameters.min_required,
            "n_states": chain.n_states,
            "n_arcs": chain.n_transitions,
            "representation": op.representation,
            "backend": solved.backend,
            "record_bytes": record_bytes,
            "stages_ms": {
                name: round(value * 1e3, 3) for name, value in seconds.items()
            },
            "total_ms": round(total * 1e3, 3),
            "unattributed_ms": round((total - in_solve) * 1e3, 3),
        },
        "clock": "process CPU time, best of 5 interleaved rounds",
        "machine": {
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    emit_table(
        f"E7: one cold solve of {SWEEP_BLOCK} "
        f"({chain.n_states} states, {chain.n_transitions} arcs)",
        ["stage", "CPU ms"],
        [
            [name, f"{value * 1e3:.3f}"]
            for name, value in [*seconds.items(), ("total", total)]
        ],
    )
    RESULT_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
    assert chain.n_states == 208
    assert record_bytes <= 2048
