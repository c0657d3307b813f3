"""Tests for the three steady-state solvers.

Analytic references: for the two-state repairable component with
failure rate lam and repair rate mu the stationary availability is
mu / (lam + mu); for a cyclic chain the stationary vector is
proportional to the inverse exit rates.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.gmb import MarkovBuilder
from repro.markov import MarkovChain, steady_state
from repro.num import as_operator, power_iteration, solve_steady


def direct(model):
    return solve_steady(model, "direct")


def gth(model):
    return solve_steady(model, "gth")


def power(model):
    return power_iteration(as_operator(model))


SOLVERS = [direct, gth, power]


def two_state(lam: float, mu: float) -> MarkovChain:
    return (
        MarkovBuilder("pair")
        .up("Ok")
        .down("Down")
        .arc("Ok", "Down", lam)
        .arc("Down", "Ok", mu)
        .build()
    )


@pytest.mark.parametrize("solver", SOLVERS)
class TestAgainstClosedForms:
    def test_two_state(self, solver):
        chain = two_state(1e-3, 0.25)
        pi = solver(chain)
        expected = 0.25 / (1e-3 + 0.25)
        assert pi[0] == pytest.approx(expected, rel=1e-8)
        assert pi.sum() == pytest.approx(1.0)

    def test_cycle_inverse_exit_rates(self, solver):
        chain = MarkovChain("cycle")
        for name in "ABC":
            chain.add_state(name)
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("B", "C", 2.0)
        chain.add_transition("C", "A", 4.0)
        pi = solver(chain)
        expected = np.array([1.0, 0.5, 0.25])
        expected /= expected.sum()
        np.testing.assert_allclose(pi, expected, rtol=1e-8)

    def test_birth_death(self, solver):
        # M/M/1/2-style: detailed balance gives pi_k ~ (lam/mu)^k.
        lam, mu = 0.3, 1.1
        chain = MarkovChain("bd")
        for name in ("S0", "S1", "S2"):
            chain.add_state(name)
        chain.add_transition("S0", "S1", lam)
        chain.add_transition("S1", "S2", lam)
        chain.add_transition("S1", "S0", mu)
        chain.add_transition("S2", "S1", mu)
        pi = solver(chain)
        rho = lam / mu
        expected = np.array([1.0, rho, rho**2])
        expected /= expected.sum()
        np.testing.assert_allclose(pi, expected, rtol=1e-7)

    def test_single_state(self, solver):
        chain = MarkovChain()
        chain.add_state("only")
        np.testing.assert_allclose(solver(chain), [1.0])

    def test_accepts_bare_generator(self, solver):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        pi = solver(q)
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], rtol=1e-8)


class TestSolverAgreementOnStiffChain:
    def test_nine_decades_of_rates(self):
        # Rates span 1e-9 .. 10 per hour; GTH must agree with direct.
        chain = MarkovChain("stiff")
        chain.add_state("Up")
        chain.add_state("Rare", reward=0.0)
        chain.add_state("Fast", reward=0.0)
        chain.add_transition("Up", "Rare", 1e-9)
        chain.add_transition("Rare", "Up", 1e-2)
        chain.add_transition("Up", "Fast", 5.0)
        chain.add_transition("Fast", "Up", 10.0)
        np.testing.assert_allclose(direct(chain), gth(chain), rtol=1e-9)


class TestInputChecking:
    def test_non_square_rejected(self):
        with pytest.raises(SolverError, match="square"):
            direct(np.zeros((2, 3)))

    def test_bad_row_sums_rejected(self):
        q = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(SolverError, match="sum to zero"):
            direct(q)

    def test_negative_off_diagonal_rejected(self):
        q = np.array([[1.0, -1.0], [2.0, -2.0]])
        with pytest.raises(SolverError):
            direct(q)

    def test_power_iteration_rejects_no_transitions(self):
        q = np.zeros((2, 2))
        with pytest.raises(SolverError):
            power(q)


class TestNamedInterface:
    def test_returns_dict_keyed_by_state(self, simple_pair_chain):
        pi = steady_state(simple_pair_chain)
        assert set(pi) == {"Ok", "Down"}
        assert sum(pi.values()) == pytest.approx(1.0)

    def test_method_selection(self, simple_pair_chain):
        for method in ("direct", "gth", "power"):
            pi = steady_state(simple_pair_chain, method=method)
            assert pi["Ok"] == pytest.approx(0.25 / 0.251, rel=1e-6)

    def test_unknown_method_rejected(self, simple_pair_chain):
        with pytest.raises(SolverError, match="unknown steady-state method"):
            steady_state(simple_pair_chain, method="magic")
