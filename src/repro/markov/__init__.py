"""Continuous-time Markov chain engine (the GMB Markov substrate).

This package provides the general Markov modeling capability that RAScad's
Graphical Model Builder exposes: reward-annotated CTMCs, steady-state and
transient solution, Markov reward measures, absorbing-chain reliability
analysis, and parametric sensitivity.
"""

from .chain import MarkovChain, State, Transition
from .transient import (
    transient_probabilities_expm,
    transient_probabilities_ode,
)
from .rewards import (
    steady_state,
    crossing_frequency,
    expected_reward_rate,
    steady_state_availability,
    interval_reward,
    interval_availability,
    interval_failure_frequency,
    interval_recovery_frequency,
    failure_frequency,
    recovery_frequency,
)
from .mttf import (
    absorbing_variant,
    mean_time_to_failure,
    reliability_at,
    reliability_curve,
    hazard_rate,
    interval_failure_rate,
)
from .lumping import is_lumpable, lump, lump_by_meta
from .sensitivity import (
    parametric_sensitivity,
    sweep,
    stationary_derivative,
    rate_sensitivity,
    all_rate_sensitivities,
)

__all__ = [
    "MarkovChain",
    "State",
    "Transition",
    "steady_state",
    "transient_probabilities_expm",
    "transient_probabilities_ode",
    "crossing_frequency",
    "expected_reward_rate",
    "steady_state_availability",
    "interval_reward",
    "interval_availability",
    "interval_failure_frequency",
    "interval_recovery_frequency",
    "failure_frequency",
    "recovery_frequency",
    "absorbing_variant",
    "mean_time_to_failure",
    "reliability_at",
    "reliability_curve",
    "hazard_rate",
    "interval_failure_rate",
    "is_lumpable",
    "lump",
    "lump_by_meta",
    "parametric_sensitivity",
    "sweep",
    "stationary_derivative",
    "rate_sensitivity",
    "all_rate_sensitivities",
]
