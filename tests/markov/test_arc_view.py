"""The cached arc view: the block-solve path builds no ``Transition``.

``MarkovChain.arcs()`` hands the solver path parallel index arrays in
:meth:`MarkovChain.transitions` order.  These tests pin that a cold
block solve never builds the dataclass list, and that every reader of
the view gives bit-identical answers to the per-``Transition`` loops it
replaced (copied here as the reference).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core import GlobalParameters, generate_block_chain, translate
from repro.core.generator import _prune_unreachable
from repro.core.translator import solve_block_chain
from repro.library import datacenter_model, e10000_model, workgroup_model
from repro.markov import MarkovChain, crossing_frequency
from repro.num import GeneratorOperator, solve_steady
from tests.markov.test_linear_time import e7_parameters

SWEEP_BLOCK = "E10000 Server/CPU Module"


def sweep_block():
    """The 208-state CPU block of the ``sweep_cold`` workload."""
    model = e10000_model()
    parameters = model.find(SWEEP_BLOCK).parameters.with_changes(
        min_required=30
    )
    return parameters, model.global_parameters


# ----------------------------------------------------------------------
# reference loops over ``transitions()``
# ----------------------------------------------------------------------
def reference_sparse(chain):
    n = chain.n_states
    rows, cols, data = [], [], []
    exit_rates = np.zeros(n)
    index = {name: i for i, name in enumerate(chain.state_names)}
    for transition in chain.transitions():
        i = index[transition.source]
        j = index[transition.target]
        rows.append(i)
        cols.append(j)
        data.append(transition.rate)
        exit_rates[i] += transition.rate
    rows.extend(range(n))
    cols.extend(range(n))
    data.extend(-exit_rates)
    return sparse.coo_matrix(
        (data, (rows, cols)), shape=(n, n), dtype=float
    ).tocsr()


def reference_dense(chain):
    n = chain.n_states
    q = np.zeros((n, n), dtype=float)
    index = {name: i for i, name in enumerate(chain.state_names)}
    for transition in chain.transitions():
        q[index[transition.source], index[transition.target]] += (
            transition.rate
        )
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return q


def reference_crossing(chain, pi, up_to_down):
    up = set(chain.up_states())
    total = 0.0
    for transition in chain.transitions():
        source_up = transition.source in up
        target_up = transition.target in up
        crosses = (
            source_up and not target_up
            if up_to_down
            else not source_up and target_up
        )
        if crosses:
            total += pi[transition.source] * transition.rate
    return total


def reference_prune(chain, start):
    arcs = chain.transitions()
    successors = {}
    for transition in arcs:
        successors.setdefault(transition.source, []).append(transition.target)
    reachable = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for target in successors.get(node, ()):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    if len(reachable) == chain.n_states:
        return chain
    pruned = MarkovChain(chain.name)
    for state in chain:
        if state.name in reachable:
            pruned.add_state(state.name, reward=state.reward, meta=state.meta)
    for transition in arcs:
        if transition.source in reachable and transition.target in reachable:
            pruned.add_transition(
                transition.source,
                transition.target,
                transition.rate,
                transition.label,
            )
    return pruned


def reference_irreducible(chain):
    names = chain.state_names
    if len(names) <= 1:
        return True
    forward = {name: [] for name in names}
    backward = {name: [] for name in names}
    for transition in chain.transitions():
        if transition.rate > 0:
            forward[transition.source].append(transition.target)
            backward[transition.target].append(transition.source)

    def count(edges):
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen)

    return count(forward) == len(names) and count(backward) == len(names)


def arc_tuples(chain):
    return [
        (t.source, t.target, t.rate, t.label) for t in chain.transitions()
    ]


def assert_bit_identical(chain, pi=None):
    """Every view reader agrees exactly with its reference loop."""
    expected = reference_sparse(chain)
    actual = GeneratorOperator.from_chain(
        chain, "sparse", validate=False
    ).sparse()
    assert actual.indptr.tolist() == expected.indptr.tolist()
    assert actual.indices.tolist() == expected.indices.tolist()
    assert actual.data.tobytes() == expected.data.tobytes()
    assert actual.indices.dtype == expected.indices.dtype
    assert actual.indptr.dtype == expected.indptr.dtype

    assert chain.generator_matrix().tobytes() == (
        reference_dense(chain).tobytes()
    )

    if pi is None:
        pi = {
            name: 1.0 / (3.0 + i) for i, name in enumerate(chain.state_names)
        }
    for up_to_down in (True, False):
        assert crossing_frequency(chain, pi, up_to_down) == (
            reference_crossing(chain, pi, up_to_down)
        )

    assert chain.is_irreducible() == reference_irreducible(chain)

    start = chain.state_names[0]
    expected = reference_prune(chain, start)
    pruned = _prune_unreachable(chain, start)
    assert (pruned is chain) == (expected is chain)
    assert list(pruned) == list(expected)
    assert arc_tuples(pruned) == arc_tuples(expected)
    assert pruned.exit_rates() == expected.exit_rates()


# ----------------------------------------------------------------------
# structure: the cold block solve reads only the view
# ----------------------------------------------------------------------
def test_cold_block_solve_builds_no_transitions(monkeypatch):
    parameters, globals_ = sweep_block()
    calls = []
    original = MarkovChain.transitions

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(MarkovChain, "transitions", counted)
    solved = solve_block_chain(
        parameters.with_changes(mtbf_hours=50_000.01), globals_
    )
    assert solved.n_states == 208
    assert solved.representation == "sparse"
    assert calls == []


def test_view_is_rebuilt_after_a_change():
    chain = MarkovChain("pair")
    chain.add_state("Ok")
    chain.add_state("Down", reward=0.0)
    chain.add_transition("Ok", "Down", 0.25)
    first = chain.arcs()
    assert chain.arcs() is first
    assert not chain.is_irreducible()

    chain.add_transition("Down", "Ok", 2.0)
    view = chain.arcs()
    assert view is not first
    assert view.sources.tolist() == [0, 1]
    assert view.targets.tolist() == [1, 0]
    assert view.rates.tolist() == [0.25, 2.0]
    assert chain.is_irreducible()

    chain.add_state("Spare")
    assert chain.arcs().n_states == 3
    assert not chain.is_irreducible()


def test_view_arrays_are_read_only():
    chain = generate_block_chain(e7_parameters(2), GlobalParameters())
    view = chain.arcs()
    for array in (view.sources, view.targets, view.rates):
        with pytest.raises(ValueError):
            array[0] = 0


def test_pickle_carries_no_view():
    chain = generate_block_chain(e7_parameters(4), GlobalParameters())
    chain.arcs()
    assert "_arcs" not in chain.__getstate__()
    restored = pickle.loads(pickle.dumps(chain))
    assert restored._arcs is None
    assert arc_tuples(restored) == arc_tuples(chain)
    assert_bit_identical(restored)


# ----------------------------------------------------------------------
# bit identity over the chains the product solves
# ----------------------------------------------------------------------
def library_block_chains():
    return [
        pytest.param(block.chain, block.steady_state, id=path)
        for factory in (datacenter_model, e10000_model, workgroup_model)
        for path, block in sorted(translate(factory()).by_path.items())
        if block.chain is not None
    ]


@pytest.mark.parametrize("chain,pi", library_block_chains())
def test_library_block_chains(chain, pi):
    assert_bit_identical(chain, pi)


def test_sweep_block_chain():
    parameters, globals_ = sweep_block()
    chain = generate_block_chain(parameters, globals_)
    assert chain.n_states == 208
    pi = dict(zip(chain.state_names, solve_steady(chain).tolist()))
    assert_bit_identical(chain, pi)


@pytest.mark.parametrize("depth", range(1, 65))
def test_e7_chains(depth):
    assert_bit_identical(
        generate_block_chain(e7_parameters(depth), GlobalParameters())
    )


rates = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def arbitrary_chains(draw):
    """Chains with parallel arcs, labels and unreachable states."""
    n = draw(st.integers(min_value=1, max_value=12))
    chain = MarkovChain("arbitrary")
    for i in range(n):
        chain.add_state(
            f"S{i}", reward=draw(st.sampled_from([0.0, 0.5, 1.0]))
        )
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                rates,
                st.sampled_from(["", "fail", "repair"]),
            ),
            max_size=4 * n,
        )
    )
    for i, j, rate, label in arcs:
        if i != j:
            chain.add_transition(f"S{i}", f"S{j}", rate, label)
    return chain


@given(chain=arbitrary_chains())
@settings(max_examples=200, deadline=None)
def test_arbitrary_chains(chain):
    assert_bit_identical(chain)
