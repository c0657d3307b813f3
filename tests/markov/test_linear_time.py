"""Complexity regression: chain generation and embedding scale linearly.

Section 4 of the paper has MG generate the states for any ``N - K``
automatically, so doubling the redundancy depth (which doubles the
states and arcs) may at most about double the time.  The ratio bound
sits between linear-with-sort growth (about 2.0-2.2) and the quadratic
O(n * E) scans this guards against (3.5-3.75 per doubling).
"""

import gc
import time

import pytest

from repro.core import BlockParameters, GlobalParameters, generate_block_chain
from repro.core.generator import ChainTemplates
from repro.semimarkov import SemiMarkovProcess

#: Largest allowed time ratio between depth 256 and depth 128.
MAX_DOUBLING_RATIO = 2.8
DEPTHS = (128, 256)
REPEATS = 5


def e7_parameters(depth: int) -> BlockParameters:
    """The E7 scaling block: every optional state kind is generated."""
    return BlockParameters(
        name="FRU",
        quantity=depth + 1,
        min_required=1,
        mtbf_hours=50_000.0,
        transient_fit=10_000.0,
        p_latent_fault=0.05,
        p_spf=0.02,
        p_correct_diagnosis=0.95,
        recovery="nontransparent",
        repair="nontransparent",
    )


def best_seconds(calls, repeats: int = REPEATS):
    """Fastest CPU time of each call over ``repeats`` interleaved rounds.

    Process CPU time, not wall time, so time spent descheduled by other
    processes on the host does not count; the rounds interleave the
    calls so both sizes see the same machine state.  The cyclic
    collector is paused while timing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = [float("inf")] * len(calls)
        for _ in range(repeats):
            for i, call in enumerate(calls):
                start = time.process_time()
                call()
                best[i] = min(best[i], time.process_time() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def _generate(depth: int):
    parameters = e7_parameters(depth)
    globals_ = GlobalParameters()
    return lambda: generate_block_chain(parameters, globals_)


def _build_template(depth: int):
    """Generation on an empty template cache: the full structure build.

    ``generate_block_chain`` refills a cached template after its first
    call, so this case keeps the build itself guarded.
    """
    parameters = e7_parameters(depth)
    globals_ = GlobalParameters()
    return lambda: ChainTemplates().chain(parameters, globals_)


def _embed(depth: int):
    chain = generate_block_chain(e7_parameters(depth), GlobalParameters())
    return lambda: SemiMarkovProcess.from_markov_chain(chain)


@pytest.mark.parametrize(
    "make_call",
    [_generate, _embed, _build_template],
    ids=["generate", "embed", "build-template"],
)
def test_doubling_depth_at_most_doubles_time(make_call):
    small, large = best_seconds([make_call(depth) for depth in DEPTHS])
    ratio = large / small
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"depth {DEPTHS[0]} -> {DEPTHS[1]}: {small * 1e3:.1f} ms -> "
        f"{large * 1e3:.1f} ms (x{ratio:.2f})"
    )
