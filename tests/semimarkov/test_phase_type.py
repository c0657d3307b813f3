"""Tests for phase-type fitting and semi-Markov expansion."""

import pytest

from repro.errors import SolverError
from repro.markov import steady_state_availability
from repro.num import as_operator, transient_distribution
from repro.semimarkov import (
    Deterministic,
    Erlang,
    Exponential,
    Lognormal,
    SemiMarkovProcess,
    Uniform,
    expand_to_ctmc,
    fit_distribution,
    fit_phase_type,
    semi_markov_availability,
    simulate_interval_availability,
    smp_transient_availability,
)


class TestMomentMatching:
    @pytest.mark.parametrize("cv2", [1.0, 4.0, 16.0, 0.6, 0.3, 0.08])
    def test_mean_and_variance_matched_exactly(self, cv2):
        mean = 7.3
        fit = fit_phase_type(mean, cv2)
        assert fit.mean() == pytest.approx(mean, rel=1e-10)
        assert fit.variance() == pytest.approx(cv2 * mean * mean, rel=1e-9)

    def test_exponential_is_single_stage(self):
        fit = fit_phase_type(5.0, 1.0)
        assert fit.total_stages == 1
        assert fit.branches[0].rate == pytest.approx(0.2)

    def test_high_variance_is_hyperexponential(self):
        fit = fit_phase_type(5.0, 9.0)
        assert len(fit.branches) == 2
        assert all(branch.stages == 1 for branch in fit.branches)

    def test_low_variance_is_erlang_mixture(self):
        fit = fit_phase_type(5.0, 0.25)
        stage_counts = sorted(branch.stages for branch in fit.branches)
        assert stage_counts in ([3, 4], [4])

    def test_point_mass_capped_at_max_stages(self):
        fit = fit_phase_type(5.0, 0.0, max_stages=16)
        assert fit.total_stages == 16
        assert fit.mean() == pytest.approx(5.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(SolverError):
            fit_phase_type(0.0, 1.0)
        with pytest.raises(SolverError):
            fit_phase_type(1.0, -0.5)
        with pytest.raises(SolverError):
            fit_phase_type(1.0, 1.0, max_stages=0)

    @pytest.mark.parametrize("dist", [
        Exponential(0.4),
        Deterministic(2.0),
        Uniform(1.0, 3.0),
        Lognormal.from_mean_cv(4.0, 1.5),
        Erlang.from_mean(6.0, 4),
    ], ids=lambda d: type(d).__name__)
    def test_fit_distribution_matches_moments(self, dist):
        fit = fit_distribution(dist, max_stages=64)
        assert fit.mean() == pytest.approx(dist.mean(), rel=1e-9)
        if dist.cv_squared() >= 1.0 / 64:
            assert fit.variance() == pytest.approx(
                dist.variance(), rel=1e-8, abs=1e-12
            )


def alternating(down_dist):
    process = SemiMarkovProcess("alt")
    process.add_state("Up")
    process.add_state("Down", reward=0.0)
    process.add_transition("Up", "Down", 1.0, Exponential.from_mean(19.0))
    process.add_transition("Down", "Up", 1.0, down_dist)
    return process


class TestExpansion:
    def test_exponential_kernel_expands_to_itself_structurally(self):
        process = alternating(Exponential.from_mean(1.0))
        chain = expand_to_ctmc(process)
        assert chain.n_states == 2  # one stage per state

    def test_steady_state_exact_for_any_fit(self):
        # The ratio formula depends only on means, which PH preserves.
        for down in (Deterministic(1.0), Lognormal.from_mean_cv(1.0, 2.0),
                     Uniform(0.5, 1.5)):
            process = alternating(down)
            chain = expand_to_ctmc(process, max_stages=16)
            assert steady_state_availability(chain) == pytest.approx(
                semi_markov_availability(process), rel=1e-9
            )

    def test_stage_rewards_inherited(self):
        process = alternating(Deterministic(1.0))
        chain = expand_to_ctmc(process, max_stages=8)
        for state in chain:
            expected = 1.0 if state.meta["smp_state"] == "Up" else 0.0
            assert state.reward == expected

    def test_absorbing_states_preserved(self):
        process = SemiMarkovProcess("ttf")
        process.add_state("Up")
        process.add_state("Dead", reward=0.0)
        process.add_transition("Up", "Dead", 1.0, Deterministic(4.0))
        chain = expand_to_ctmc(process, max_stages=8)
        assert chain.exit_rate("Dead") == 0.0

    def test_expanded_chain_validates(self):
        process = alternating(Lognormal.from_mean_cv(1.0, 1.4))
        expand_to_ctmc(process, max_stages=12).validate()


class TestTransientAvailability:
    def test_exact_for_exponential_kernel(self):
        process = alternating(Exponential.from_mean(1.0))
        chain = expand_to_ctmc(process)
        for t in (0.5, 3.0, 10.0):
            direct = transient_distribution(as_operator(chain), t)
            value = smp_transient_availability(process, t)
            assert value == pytest.approx(float(direct[0]), rel=1e-9)

    def test_at_time_zero_fully_up(self):
        process = alternating(Deterministic(1.0))
        assert smp_transient_availability(process, 0.0) == pytest.approx(1.0)

    def test_deterministic_downtime_against_closed_form(self):
        # With Down = exactly 1h, the system is down at t iff the last
        # failure happened within (t-1, t); for small t the first-cycle
        # term dominates: P(down at 0.5) = P(T < 0.5) = 1 - e^(-0.5/19).
        import math

        process = alternating(Deterministic(1.0))
        value = smp_transient_availability(process, 0.5, max_stages=64)
        assert value == pytest.approx(math.exp(-0.5 / 19.0), rel=1e-3)

    def test_converges_to_steady_state(self):
        process = alternating(Deterministic(1.0))
        value = smp_transient_availability(process, 400.0, max_stages=16)
        assert value == pytest.approx(
            semi_markov_availability(process), rel=1e-6
        )

    def test_interval_consistency_with_monte_carlo(self):
        # Average the PH point availability over a horizon and compare
        # with the Monte Carlo interval availability.
        import numpy as np

        process = alternating(Lognormal.from_mean_cv(1.0, 1.2))
        horizon = 40.0
        times = np.linspace(0.0, horizon, 33)
        values = [
            smp_transient_availability(process, float(t), max_stages=16)
            for t in times
        ]
        from scipy.integrate import simpson

        ph_interval = float(simpson(values, x=times)) / horizon
        mc = simulate_interval_availability(
            process, horizon=horizon, replications=300, seed=3
        )
        assert mc.contains(ph_interval)
