"""Property-based tests for the Markov engine (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.markov import (
    MarkovChain,
    interval_availability,
    steady_state_availability,
)
from repro.num import as_operator, solve_steady, transient_distribution

rates = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def random_irreducible_chain(draw, max_states=6):
    """A random strongly connected reward-annotated CTMC.

    Builds a Hamiltonian cycle (guaranteeing irreducibility) plus a
    random set of extra arcs.
    """
    n = draw(st.integers(min_value=2, max_value=max_states))
    rewards = draw(
        st.lists(
            st.sampled_from([0.0, 1.0]), min_size=n, max_size=n
        ).filter(lambda r: any(x > 0 for x in r))
    )
    chain = MarkovChain("random")
    for i in range(n):
        chain.add_state(f"S{i}", reward=rewards[i])
    for i in range(n):
        chain.add_transition(f"S{i}", f"S{(i + 1) % n}", draw(rates))
    extra = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            chain.add_transition(f"S{i}", f"S{j}", draw(rates))
    return chain


class TestSteadyStateProperties:
    @given(chain=random_irreducible_chain())
    @settings(max_examples=60, deadline=None)
    def test_is_probability_distribution(self, chain):
        pi = solve_steady(chain, "direct")
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= -1e-12).all()

    @given(chain=random_irreducible_chain())
    @settings(max_examples=60, deadline=None)
    def test_satisfies_balance_equations(self, chain):
        q = chain.generator_matrix()
        pi = solve_steady(chain, "direct")
        residual = np.abs(pi @ q).max()
        scale = max(1.0, np.abs(q).max())
        assert residual < 1e-8 * scale

    @given(chain=random_irreducible_chain())
    @settings(max_examples=40, deadline=None)
    def test_gth_agrees_with_direct(self, chain):
        direct = solve_steady(chain, "direct")
        gth = solve_steady(chain, "gth")
        np.testing.assert_allclose(direct, gth, atol=1e-8)

    @given(chain=random_irreducible_chain(), factor=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_time_rescaling_invariance(self, chain, factor):
        # Multiplying every rate by a constant cannot change pi.
        original = solve_steady(chain, "direct")
        scaled = solve_steady(chain.scaled(factor), "direct")
        np.testing.assert_allclose(original, scaled, atol=1e-8)


class TestTransientProperties:
    @given(chain=random_irreducible_chain(), t=st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_remains_distribution(self, chain, t):
        p = transient_distribution(as_operator(chain), t)
        assert p.sum() == pytest.approx(1.0, abs=1e-7)
        assert (p >= -1e-12).all()

    @given(chain=random_irreducible_chain(), t=st.floats(0.01, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_chapman_kolmogorov(self, chain, t):
        # p(2t) must equal evolving p(t) for another t.
        p_t = transient_distribution(as_operator(chain), t)
        p_2t = transient_distribution(as_operator(chain), 2 * t)
        p_t_t = transient_distribution(as_operator(chain), t, p0=p_t)
        np.testing.assert_allclose(p_2t, p_t_t, atol=1e-7)

    @given(chain=random_irreducible_chain(), t=st.floats(0.1, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_interval_availability_in_unit_interval(self, chain, t):
        value = interval_availability(chain, t)
        assert -1e-9 <= value <= 1.0 + 1e-9

    @given(chain=random_irreducible_chain())
    @settings(max_examples=30, deadline=None)
    def test_availability_bounded(self, chain):
        value = steady_state_availability(chain)
        assert -1e-12 <= value <= 1.0 + 1e-12
