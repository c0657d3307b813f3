"""Tests for absorbing-chain reliability analysis."""

import math

import pytest

from repro.errors import ModelError, SolverError
from repro.gmb import MarkovBuilder
from repro.markov import (
    MarkovChain,
    absorbing_variant,
    hazard_rate,
    interval_failure_rate,
    mean_time_to_failure,
    reliability_at,
    reliability_curve,
)


def repairable(lam=0.01, mu=0.5):
    return (
        MarkovBuilder("pair")
        .up("Ok")
        .down("Down")
        .arc("Ok", "Down", lam)
        .arc("Down", "Ok", mu)
        .build()
    )


def standby_pair(lam=0.01, mu=1.0):
    """Two-unit standby with repair; failure = both units dead."""
    return (
        MarkovBuilder("standby")
        .up("Both")
        .up("One")
        .down("None")
        .arc("Both", "One", lam)
        .arc("One", "None", lam)
        .arc("One", "Both", mu)
        .arc("None", "One", mu)
        .build()
    )


class TestAbsorbingVariant:
    def test_down_states_become_absorbing(self):
        variant = absorbing_variant(repairable())
        assert variant.exit_rate("Down") == 0.0

    def test_up_transitions_preserved(self):
        chain = repairable(0.03, 0.4)
        variant = absorbing_variant(chain)
        assert variant.rate("Ok", "Down") == pytest.approx(0.03)

    def test_rejects_all_up_chain(self):
        chain = MarkovChain()
        chain.add_state("A")
        with pytest.raises(ModelError, match="no down state"):
            absorbing_variant(chain)


class TestMTTF:
    def test_exponential_component(self):
        # Single up state: MTTF = 1/lam regardless of repair.
        assert mean_time_to_failure(repairable(0.02)) == pytest.approx(50.0)

    def test_standby_pair_closed_form(self):
        # First-step analysis gives tau_One = (lam + mu) / lam^2 and
        # tau_Both = 1/lam + tau_One = (2 lam + mu) / lam^2.
        lam, mu = 0.01, 1.0
        value = mean_time_to_failure(standby_pair(lam, mu))
        expected = (2 * lam + mu) / lam**2
        assert value == pytest.approx(expected, rel=1e-9)

    def test_start_state_selection(self):
        lam, mu = 0.01, 1.0
        from_one = mean_time_to_failure(standby_pair(lam, mu), start="One")
        from_both = mean_time_to_failure(standby_pair(lam, mu), start="Both")
        assert from_one < from_both

    def test_down_start_rejected(self):
        with pytest.raises(ModelError, match="down state"):
            mean_time_to_failure(repairable(), start="Down")

    def test_unfailable_chain_returns_inf(self):
        chain = MarkovChain()
        chain.add_state("A")
        chain.add_state("B")
        chain.add_transition("A", "B", 1.0)
        chain.add_transition("B", "A", 1.0)
        assert mean_time_to_failure(chain) == math.inf


class TestReliability:
    def test_exponential_closed_form(self):
        chain = repairable(0.05)
        for t in (1.0, 10.0, 40.0):
            assert reliability_at(chain, t) == pytest.approx(
                math.exp(-0.05 * t), rel=1e-8
            )

    def test_repair_does_not_affect_reliability(self):
        # Reliability treats first failure as final.
        slow = repairable(0.05, mu=0.01)
        fast = repairable(0.05, mu=10.0)
        assert reliability_at(slow, 5.0) == pytest.approx(
            reliability_at(fast, 5.0), rel=1e-10
        )

    def test_monotone_decreasing(self):
        chain = standby_pair()
        values = reliability_curve(chain, [0.0, 10.0, 100.0, 1000.0])
        assert values[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ode_method_agrees(self):
        chain = standby_pair()
        assert reliability_at(chain, 55.0, method="ode") == pytest.approx(
            reliability_at(chain, 55.0), rel=1e-6
        )

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError, match="'uniformization', 'ode'"):
            reliability_at(standby_pair(), 55.0, method="bogus")


class TestHazardAndIntervalRate:
    def test_exponential_hazard_is_constant(self):
        chain = repairable(0.03)
        assert hazard_rate(chain, 5.0) == pytest.approx(0.03, rel=1e-4)
        assert hazard_rate(chain, 50.0) == pytest.approx(0.03, rel=1e-4)

    def test_interval_rate_of_exponential(self):
        chain = repairable(0.02)
        assert interval_failure_rate(chain, 30.0) == pytest.approx(
            0.02, rel=1e-8
        )

    def test_standby_hazard_increases_from_zero(self):
        chain = standby_pair()
        early = hazard_rate(chain, 0.5)
        late = hazard_rate(chain, 50.0)
        assert early < late

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(SolverError):
            interval_failure_rate(repairable(), 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            hazard_rate(repairable(), -1.0)
