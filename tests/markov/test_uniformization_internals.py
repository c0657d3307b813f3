"""Numerical tests for the uniformization internals."""

import numpy as np
import pytest
from scipy.stats import poisson

from repro.markov import MarkovChain
from repro.num import (
    as_operator,
    poisson_pmf_series,
    poisson_tail,
    poisson_truncation,
    transient_distribution,
    uniformized,
)


def generator(lam=0.3, mu=1.7):
    q = np.array([[-lam, lam], [mu, -mu]])
    return q


def uniformized_dtmc(q):
    """``(P, lam)``: the uniformized DTMC as a matrix, and its rate."""
    apply_p, lam = uniformized(as_operator(q))
    return apply_p(np.eye(q.shape[0])), lam


class TestUniformizedDtmc:
    def test_dtmc_rows_sum_to_one(self):
        p, _lam = uniformized_dtmc(generator())
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_dtmc_is_stochastic(self):
        p, _lam = uniformized_dtmc(generator())
        assert (p >= -1e-15).all()

    def test_rate_dominates_diagonal(self):
        q = generator(0.3, 1.7)
        _p, lam = uniformized_dtmc(q)
        assert lam >= -q.diagonal().min()

    def test_truncation_covers_tail(self):
        _p, lam = uniformized_dtmc(generator())
        n_terms = poisson_truncation(lam * 40.0, 1e-12)
        assert poisson_tail(lam * 40.0, n_terms - 1) < 1e-12

    def test_zero_generator(self):
        p, lam = uniformized_dtmc(np.zeros((3, 3)))
        assert lam == 0.0
        np.testing.assert_allclose(p, np.eye(3))
        assert poisson_truncation(lam * 10.0, 1e-12) == 1


class TestPoissonSeries:
    @pytest.mark.parametrize("mean", [0.1, 3.0, 50.0, 2_000.0])
    def test_matches_scipy_pmf(self, mean):
        n = int(mean + 10 * np.sqrt(mean) + 20)
        series = poisson_pmf_series(mean, n)
        expected = poisson.pmf(np.arange(n), mean)
        np.testing.assert_allclose(series, expected, rtol=1e-10, atol=1e-300)

    def test_mass_nearly_one_with_full_window(self):
        mean = 100.0
        n = int(mean + 12 * np.sqrt(mean) + 20)
        series = poisson_pmf_series(mean, n)
        assert series.sum() == pytest.approx(1.0, abs=1e-10)

    def test_large_mean_stability(self):
        # Direct pmf computation overflows around mean ~1e3 without the
        # log-space path; this must stay finite and normalized.
        mean = 5e4
        n = int(mean + 12 * np.sqrt(mean))
        series = poisson_pmf_series(mean, n)
        assert np.isfinite(series).all()
        assert series.sum() == pytest.approx(1.0, abs=1e-8)


class TestStiffHorizons:
    def test_large_lambda_t_still_accurate(self):
        # lam*t = 3.4e4: many terms, but the result must match expm.
        from repro.markov import transient_probabilities_expm

        chain = MarkovChain()
        chain.add_state("Up")
        chain.add_state("Down", reward=0.0)
        chain.add_transition("Up", "Down", 1e-3)
        chain.add_transition("Down", "Up", 3.4)
        t = 1e4
        uni = transient_distribution(as_operator(chain), t)
        exp = transient_probabilities_expm(chain, t)
        np.testing.assert_allclose(uni, exp, atol=1e-9)
