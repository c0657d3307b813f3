"""E7 — Section 4: automatic state generation for larger N and K.

The paper: "For larger N and K values, more states are needed and
these states are all generated automatically in RAScad" and "if
N-K > 1, states TF1, AR1, PF1 and Latent1 will be repeated in the
model."  This benchmark sweeps the redundancy depth, reports the state
and transition counts plus generation/solve time, and asserts the
linear growth the repetition rule implies — in states, and in
generation time (doubling the depth may grow it at most 2.8x).
"""

import time

import pytest

from repro import BlockParameters, GlobalParameters, generate_block_chain
from repro.markov import steady_state_availability
from tests.markov.test_linear_time import MAX_DOUBLING_RATIO, best_seconds

from ._report import emit, emit_table

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

    generate_s = best_seconds([
        lambda depth=depth: generate_block_chain(parameters(depth + 1, 1), g)
        for depth in DEPTHS
    ])

    rows = []
    counts = []
    for depth, generation in zip(DEPTHS, generate_s):
        chain = chains[depth]
        start = time.perf_counter()
        availability = steady_state_availability(chain)
        solve_ms = (time.perf_counter() - start) * 1e3
        counts.append(chain.n_states)
        rows.append([
            depth + 1, 1, depth, chain.n_states,
            len(chain.transitions()),
            f"{generation * 1e3:.2f}",
            f"{solve_ms:.2f}",
            f"{availability:.8f}",
        ])

    emit_table(
        "E7 (Section 4): generated state space vs redundancy depth N-K",
        ["N", "K", "depth", "states", "arcs", "generate ms", "solve ms",
         "availability"],
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
