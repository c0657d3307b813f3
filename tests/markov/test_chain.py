"""Tests for the MarkovChain data structure."""

import pickle

import numpy as np
import pytest

from repro.core import BlockParameters, GlobalParameters, generate_block_chain
from repro.errors import ModelError
from repro.markov import MarkovChain


def make_triangle() -> MarkovChain:
    chain = MarkovChain("triangle")
    chain.add_state("A", reward=1.0)
    chain.add_state("B", reward=0.5)
    chain.add_state("C", reward=0.0)
    chain.add_transition("A", "B", 2.0)
    chain.add_transition("B", "C", 3.0)
    chain.add_transition("C", "A", 4.0)
    return chain


class TestConstruction:
    def test_states_keep_insertion_order(self):
        chain = make_triangle()
        assert chain.state_names == ["A", "B", "C"]

    def test_duplicate_state_rejected(self):
        chain = MarkovChain()
        chain.add_state("A")
        with pytest.raises(ModelError, match="duplicate"):
            chain.add_state("A")

    def test_ensure_state_is_idempotent(self):
        chain = MarkovChain()
        first = chain.ensure_state("A", reward=0.5)
        second = chain.ensure_state("A", reward=0.9)
        assert first is second
        assert chain.state("A").reward == 0.5

    def test_negative_reward_rejected(self):
        chain = MarkovChain()
        with pytest.raises(ModelError, match="negative reward"):
            chain.add_state("A", reward=-1.0)

    def test_transition_to_unknown_state_rejected(self):
        chain = MarkovChain()
        chain.add_state("A")
        with pytest.raises(ModelError, match="unknown target"):
            chain.add_transition("A", "B", 1.0)
        with pytest.raises(ModelError, match="unknown source"):
            chain.add_transition("B", "A", 1.0)

    def test_self_loop_rejected(self):
        chain = MarkovChain()
        chain.add_state("A")
        with pytest.raises(ModelError, match="self-loop"):
            chain.add_transition("A", "A", 1.0)

    def test_negative_rate_rejected(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B")
        with pytest.raises(ModelError, match="negative rate"):
            chain.add_transition("A", "B", -0.5)

    def test_nan_rate_rejected(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B")
        with pytest.raises(ModelError, match="NaN rate"):
            chain.add_transition("A", "B", float("nan"))
        assert not chain.transitions()

    def test_zero_rate_is_dropped(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B")
        chain.add_transition("A", "B", 0.0)
        assert chain.rate("A", "B") == 0.0
        assert not chain.transitions()

    def test_parallel_arcs_accumulate(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B")
        chain.add_transition("A", "B", 1.0, label="x")
        chain.add_transition("A", "B", 2.5, label="y")
        assert chain.rate("A", "B") == pytest.approx(3.5)
        (transition,) = chain.transitions()
        assert "x" in transition.label and "y" in transition.label


class TestInspection:
    def test_up_and_down_states(self):
        chain = make_triangle()
        assert chain.up_states() == ["A", "B"]
        assert chain.down_states() == ["C"]

    def test_reward_vector(self):
        chain = make_triangle()
        np.testing.assert_allclose(chain.reward_vector(), [1.0, 0.5, 0.0])

    def test_exit_rate(self):
        chain = make_triangle()
        assert chain.exit_rate("A") == pytest.approx(2.0)

    def test_index_and_state_errors(self):
        chain = make_triangle()
        assert chain.index("B") == 1
        with pytest.raises(ModelError):
            chain.index("missing")
        with pytest.raises(ModelError):
            chain.state("missing")

    def test_contains(self):
        chain = make_triangle()
        assert "A" in chain
        assert "Z" not in chain


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self):
        q = make_triangle().generator_matrix()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-14)

    def test_off_diagonal_rates(self):
        q = make_triangle().generator_matrix()
        assert q[0, 1] == pytest.approx(2.0)
        assert q[1, 2] == pytest.approx(3.0)
        assert q[2, 0] == pytest.approx(4.0)

    def test_diagonal_is_negative_exit_rate(self):
        q = make_triangle().generator_matrix()
        assert q[0, 0] == pytest.approx(-2.0)


class TestStructure:
    def test_irreducible(self):
        assert make_triangle().is_irreducible()

    def test_reducible_detected(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        chain.add_transition("A", "B", 1.0)
        assert not chain.is_irreducible()

    def test_validate_accepts_absorbing_chain(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        chain.add_transition("A", "B", 1.0)
        # B is absorbing, so reducibility is allowed (reliability model).
        chain.validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(ModelError, match="no states"):
            MarkovChain().validate()

    def test_validate_rejects_all_down(self):
        chain = MarkovChain()
        chain.add_state("Down", reward=0.0)
        with pytest.raises(ModelError, match="no up state"):
            chain.validate()

    def test_validate_rejects_reducible_without_absorbing(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        chain.add_state("C")
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("B", "A", 1.0)
        chain.add_transition("C", "A", 1.0)  # C unreachable, not absorbing
        with pytest.raises(ModelError, match="reducible"):
            chain.validate()

    def test_absorbing_states(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        chain.add_transition("A", "B", 1.0)
        assert chain.absorbing_states() == ["B"]


class TestDerivedChains:
    def test_copy_is_independent(self):
        chain = make_triangle()
        clone = chain.copy()
        clone.add_state("D")
        assert "D" not in chain
        assert clone.rate("A", "B") == chain.rate("A", "B")

    def test_scaled_multiplies_rates(self):
        chain = make_triangle()
        scaled = chain.scaled(2.0)
        assert scaled.rate("A", "B") == pytest.approx(4.0)

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ModelError):
            make_triangle().scaled(0.0)

    def test_initial_distribution_defaults_to_first_state(self):
        chain = make_triangle()
        np.testing.assert_allclose(chain.initial_distribution(), [1, 0, 0])

    def test_initial_distribution_named(self):
        chain = make_triangle()
        np.testing.assert_allclose(
            chain.initial_distribution("C"), [0, 0, 1]
        )


def transparent_spf_chain() -> MarkovChain:
    """A generated chain with parallel arcs (``Ok -> SPF1`` twice)."""
    parameters = BlockParameters(
        name="unit",
        quantity=4,
        min_required=1,
        mtbf_hours=20_000.0,
        transient_fit=50_000.0,
        p_latent_fault=0.05,
        p_spf=0.02,
        p_correct_diagnosis=0.95,
        recovery="transparent",
        repair="transparent",
    )
    return generate_block_chain(parameters, GlobalParameters())


class TestIndexedInspection:
    """The dict-backed lookups answer exactly as the scans they replace."""

    def test_parallel_arcs_are_present(self):
        chain = transparent_spf_chain()
        (arc,) = [
            t for t in chain.transitions()
            if (t.source, t.target) == ("Ok", "SPF1")
        ]
        assert " + " in arc.label

    def test_exit_rates_match_the_per_state_scan_bit_for_bit(self):
        chain = transparent_spf_chain()
        exit_rates = chain.exit_rates()
        assert list(exit_rates) == chain.state_names
        for name in chain.state_names:
            scan = sum(
                r for (s, _), r in chain._rates.items() if s == name
            )
            assert chain.exit_rate(name).hex() == float(scan).hex()
            assert float(exit_rates[name]).hex() == float(scan).hex()

    def test_index_matches_list_position(self):
        chain = transparent_spf_chain()
        names = chain.state_names
        assert [chain.index(name) for name in names] == list(range(len(names)))
        with pytest.raises(ModelError, match="no state"):
            chain.index("PF999")

    def test_transitions_sorted_by_state_positions(self):
        chain = transparent_spf_chain()
        names = chain.state_names
        expected = sorted(
            chain._rates,
            key=lambda key: (names.index(key[0]), names.index(key[1])),
        )
        assert [(t.source, t.target) for t in chain.transitions()] == expected
        assert chain.n_transitions == len(expected)

    def test_arc_keys_share_the_state_name_strings(self):
        chain = transparent_spf_chain()
        for source, target in chain._rates:
            assert source is chain.state(source).name
            assert target is chain.state(target).name

    def test_pickle_round_trip_keeps_the_index(self):
        chain = transparent_spf_chain()
        restored = pickle.loads(pickle.dumps(chain))
        assert "_index" not in chain.__getstate__()
        assert restored.index("PF2") == chain.index("PF2")
        assert restored.transitions() == chain.transitions()

    def test_pickle_without_index_still_loads(self):
        # Disk-cache entries written before the index existed carry only
        # the public fields; unpickling must rebuild the index.
        chain = make_triangle()
        legacy = {k: v for k, v in vars(chain).items() if k != "_index"}
        restored = MarkovChain.__new__(MarkovChain)
        restored.__setstate__(legacy)
        assert restored.index("C") == 2
