"""Tests for transient solvers (uniformization, expm, ODE)."""

import math

import numpy as np
import pytest

from repro.errors import SolverError
from repro.markov import (
    MarkovChain,
    transient_probabilities_expm,
    transient_probabilities_ode,
)
from repro.num import as_operator, solve_steady, transient_distribution


def uniformization(chain, t, p0=None):
    return transient_distribution(as_operator(chain), t, p0=p0)


METHODS = [
    uniformization,
    transient_probabilities_expm,
    transient_probabilities_ode,
]


def two_state(lam: float, mu: float) -> MarkovChain:
    chain = MarkovChain("pair")
    chain.add_state("Ok")
    chain.add_state("Down", reward=0.0)
    chain.add_transition("Ok", "Down", lam)
    chain.add_transition("Down", "Ok", mu)
    return chain


def two_state_availability(lam: float, mu: float, t: float) -> float:
    """Closed form: A(t) = mu/(lam+mu) + lam/(lam+mu) e^{-(lam+mu)t}."""
    total = lam + mu
    return mu / total + lam / total * math.exp(-total * t)


@pytest.mark.parametrize("method", METHODS)
class TestAgainstClosedForm:
    def test_two_state_point_availability(self, method):
        lam, mu = 0.02, 0.7
        chain = two_state(lam, mu)
        for t in (0.1, 1.0, 5.0, 50.0):
            p = method(chain, t)
            assert p[0] == pytest.approx(
                two_state_availability(lam, mu, t), rel=1e-6
            )

    def test_time_zero_returns_initial(self, method):
        chain = two_state(0.1, 1.0)
        np.testing.assert_allclose(method(chain, 0.0), [1.0, 0.0])

    def test_probabilities_sum_to_one(self, method):
        chain = two_state(0.3, 0.9)
        p = method(chain, 2.5)
        assert p.sum() == pytest.approx(1.0, abs=1e-8)

    def test_long_horizon_approaches_steady_state(self, method):
        chain = two_state(0.2, 0.8)
        p = method(chain, 200.0)
        np.testing.assert_allclose(
            p, solve_steady(chain, "direct"), atol=1e-6
        )

    def test_custom_initial_distribution(self, method):
        chain = two_state(0.2, 0.8)
        p0 = np.array([0.0, 1.0])
        p = method(chain, 0.0, p0=p0)
        np.testing.assert_allclose(p, p0)


class TestMethodCrossAgreement:
    def test_three_state_chain(self):
        chain = MarkovChain("tri")
        for name in "ABC":
            chain.add_state(name)
        chain.add_transition("A", "B", 0.5)
        chain.add_transition("B", "C", 1.5)
        chain.add_transition("C", "A", 0.25)
        chain.add_transition("B", "A", 0.75)
        t = 3.7
        uni = uniformization(chain, t)
        exp = transient_probabilities_expm(chain, t)
        ode = transient_probabilities_ode(chain, t)
        np.testing.assert_allclose(uni, exp, atol=1e-9)
        np.testing.assert_allclose(uni, ode, atol=1e-7)


class TestUniformizationEdges:
    def test_absorbing_chain(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        chain.add_transition("A", "B", 1.0)
        p = uniformization(chain, 2.0)
        assert p[0] == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_no_transitions(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B", reward=0.0)
        p = uniformization(chain, 10.0)
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_negative_time_rejected(self):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError):
            uniformization(chain, -1.0)

    def test_bad_initial_shape_rejected(self):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError, match="shape"):
            uniformization(chain, 1.0, p0=np.array([1.0]))

    def test_non_distribution_initial_rejected(self):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError, match="probability distribution"):
            uniformization(chain, 1.0, p0=np.array([0.7, 0.7]))


@pytest.mark.parametrize(
    "oracle", [transient_probabilities_expm, transient_probabilities_ode]
)
class TestOracleInitialVector:
    """The oracles reject the initial vectors uniformization rejects."""

    def test_non_distribution_initial_rejected(self, oracle):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError, match="probability distribution"):
            oracle(chain, 1.0, p0=np.array([0.7, 0.7]))

    def test_negative_initial_rejected(self, oracle):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError, match="probability distribution"):
            oracle(chain, 1.0, p0=np.array([1.5, -0.5]))

    def test_bad_initial_shape_rejected(self, oracle):
        chain = two_state(0.1, 1.0)
        with pytest.raises(SolverError, match="shape"):
            oracle(chain, 1.0, p0=np.array([1.0]))

    def test_matrix_model_defaults_to_first_state(self, oracle):
        q = two_state(0.1, 1.0).generator_matrix()
        np.testing.assert_allclose(oracle(q, 0.0), [1.0, 0.0])
