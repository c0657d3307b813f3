"""The shared uniformization core and its grid evaluator.

The load-bearing contract here is *grid identity*: evaluating a whole
time grid through one power sequence must match per-point evaluation to
1e-12 (and in fact exactly), at every layer that routes through
:func:`repro.num.transient_grid`.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import poisson

from repro.errors import SolverError
from repro.gmb import MarkovBuilder
from repro.markov.mttf import reliability_at, reliability_curve
from repro.num import (
    GeneratorOperator,
    interval_reward_value,
    poisson_pmf_series,
    poisson_truncation,
    stiffness,
    transient_distribution,
    transient_grid,
    uniformized,
)


def two_state(lam=1e-3, mu=0.25):
    return (
        MarkovBuilder("pair")
        .up("Ok")
        .down("Down")
        .arc("Ok", "Down", lam)
        .arc("Down", "Ok", mu)
        .build()
    )


def repairable(n=6):
    """A birth-death repair chain with one down state at the end."""
    builder = MarkovBuilder("rep")
    for i in range(n - 1):
        builder.up(f"S{i}")
    builder.down(f"S{n - 1}")
    for i in range(n - 1):
        builder.arc(f"S{i}", f"S{i + 1}", 0.01 * (i + 1))
        builder.arc(f"S{i + 1}", f"S{i}", 0.5)
    return builder.build()


class TestPoissonMachinery:
    def test_pmf_series_matches_scipy(self):
        mean = 7.3
        series = poisson_pmf_series(mean, 40)
        np.testing.assert_allclose(
            series, poisson.pmf(np.arange(40), mean), rtol=1e-12
        )

    def test_truncation_leaves_tail_below_tol(self):
        for mean in (0.5, 10.0, 500.0):
            n_terms = poisson_truncation(mean, 1e-12)
            assert poisson.sf(n_terms - 1, mean) <= 1e-12

    def test_zero_mean_needs_one_term(self):
        assert poisson_truncation(0.0, 1e-12) == 1


class TestTransientDistribution:
    @pytest.mark.parametrize("representation", ["dense", "sparse"])
    def test_matches_matrix_exponential(self, representation):
        chain = repairable()
        op = GeneratorOperator.from_chain(chain, representation=representation)
        p0 = chain.initial_distribution()
        for t in (0.5, 10.0, 200.0):
            expected = p0 @ expm(chain.generator_matrix() * t)
            got = transient_distribution(op, t, p0=p0)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_time_zero_returns_initial_vector(self):
        chain = two_state()
        op = GeneratorOperator.from_chain(chain)
        p0 = chain.initial_distribution()
        np.testing.assert_array_equal(
            transient_distribution(op, 0.0, p0=p0), p0
        )

    def test_negative_time_rejected(self):
        op = GeneratorOperator.from_chain(two_state())
        with pytest.raises(SolverError, match="non-negative"):
            transient_distribution(op, -1.0)

    def test_bad_initial_vector_rejected(self):
        op = GeneratorOperator.from_chain(two_state())
        with pytest.raises(SolverError, match="probability distribution"):
            transient_distribution(op, 1.0, p0=np.array([0.7, 0.7]))


class TestGridIdentity:
    """Grid evaluation == per-point evaluation, the central invariant."""

    TIMES = [0.0, 0.1, 1.0, 8.0, 24.0, 100.0, 720.0]

    @pytest.mark.parametrize("representation", ["dense", "sparse"])
    def test_transient_grid_matches_per_point(self, representation):
        chain = repairable()
        op = GeneratorOperator.from_chain(chain, representation=representation)
        p0 = chain.initial_distribution()
        grid = transient_grid(op, self.TIMES, p0=p0)
        for t, vector in zip(self.TIMES, grid):
            single = transient_distribution(op, t, p0=p0)
            np.testing.assert_allclose(vector, single, atol=1e-12, rtol=0.0)

    def test_reliability_curve_matches_reliability_at(self):
        chain = repairable()
        curve = reliability_curve(chain, self.TIMES)
        for t, value in zip(self.TIMES, curve):
            assert value == reliability_at(chain, t)


class TestIntervalReward:
    def test_two_state_interval_availability_closed_form(self):
        lam, mu = 1e-3, 0.25
        chain = two_state(lam, mu)
        op = GeneratorOperator.from_chain(chain)
        rewards = np.array([1.0, 0.0])
        p0 = chain.initial_distribution()
        horizon = 100.0
        s = lam + mu
        expected = mu / s + lam / (s * s * horizon) * (
            1.0 - np.exp(-s * horizon)
        )
        got = interval_reward_value(op, horizon, rewards, p0)
        assert got == pytest.approx(expected, rel=1e-9)


class TestUniformizedOperator:
    def test_dense_and_sparse_apply_agree(self):
        chain = repairable()
        dense_apply, dense_lam = uniformized(
            GeneratorOperator.from_chain(chain, representation="dense")
        )
        sparse_apply, sparse_lam = uniformized(
            GeneratorOperator.from_chain(chain, representation="sparse")
        )
        assert dense_lam == pytest.approx(sparse_lam)
        v = chain.initial_distribution()
        np.testing.assert_allclose(
            dense_apply(v), sparse_apply(v), atol=1e-15
        )

    def test_stiffness_is_rate_times_horizon(self):
        op = GeneratorOperator.from_chain(two_state(1e-3, 0.25))
        assert stiffness(op, 1000.0) == pytest.approx(
            op.uniformization_rate() * 1000.0
        )
