"""The one-pass semi-Markov embeddings equal the per-state reference.

Both embeddings once called ``exit_rate`` and a freshly sorted
``transitions()`` per state, O(n * E log E).  They now walk the sorted
transitions once.  The per-state loops are kept here as the reference:
every library block chain must embed to the same states, the same
kernel order, and bit-identical probabilities and sojourn parameters.
"""

import pytest

from repro import datacenter_model, e10000_model, translate, workgroup_model
from repro.core import semi_markov_variant
from repro.core.semi_markov_variant import _shaped_distribution
from repro.semimarkov import Exponential, SemiMarkovProcess


def library_chains():
    chains = []
    for build in (e10000_model, datacenter_model, workgroup_model):
        solution = translate(build())
        chains.extend(
            (path, block.chain)
            for path, block in solution.by_path.items()
            if block.chain is not None
        )
    return chains


LIBRARY_CHAINS = library_chains()


def reference_from_markov_chain(chain):
    process = SemiMarkovProcess(f"{chain.name}#smp")
    for state in chain:
        process.add_state(state.name, reward=state.reward, meta=state.meta)
    for state in chain:
        exit_rate = chain.exit_rate(state.name)
        if exit_rate == 0.0:
            continue
        sojourn = Exponential(exit_rate)
        for transition in chain.transitions():
            if transition.source != state.name:
                continue
            process.add_transition(
                state.name, transition.target,
                transition.rate / exit_rate, sojourn,
            )
    return process


def reference_variant(chain, repair_cv):
    process = SemiMarkovProcess(f"{chain.name}#smp-variant")
    for state in chain:
        process.add_state(state.name, reward=state.reward, meta=state.meta)
    for state in chain:
        exit_rate = chain.exit_rate(state.name)
        if exit_rate == 0.0:
            continue
        kind = str(state.meta.get("kind", ""))
        sojourn = _shaped_distribution(kind, 1.0 / exit_rate, repair_cv)
        for transition in chain.transitions():
            if transition.source != state.name:
                continue
            process.add_transition(
                state.name, transition.target,
                transition.rate / exit_rate, sojourn,
            )
    process.validate()
    return process


def fingerprint(process):
    """Everything an embedding decides, with floats as exact hex."""
    states = [
        (state.name, state.reward, dict(state.meta)) for state in process
    ]
    kernels = {
        name: [
            (
                entry.target,
                entry.probability.hex(),
                type(entry.distribution).__name__,
                {k: v.hex() for k, v in sorted(vars(entry.distribution).items())},
            )
            for entry in process.kernel(name)
        ]
        for name in process.state_names
    }
    return process.name, states, kernels


def test_library_has_block_chains():
    assert len(LIBRARY_CHAINS) >= 10


@pytest.mark.parametrize(
    "chain", [chain for _path, chain in LIBRARY_CHAINS],
    ids=[path for path, _chain in LIBRARY_CHAINS],
)
class TestEmbeddingsMatchReference:
    def test_from_markov_chain(self, chain):
        assert fingerprint(SemiMarkovProcess.from_markov_chain(chain)) == (
            fingerprint(reference_from_markov_chain(chain))
        )

    @pytest.mark.parametrize("repair_cv", [1.0, 0.4])
    def test_semi_markov_variant(self, chain, repair_cv):
        assert fingerprint(semi_markov_variant(chain, repair_cv)) == (
            fingerprint(reference_variant(chain, repair_cv))
        )
