"""Markov reward measures.

RAScad assigns each state a reward rate (1 = up, 0 = down) and derives
system measures from reward-weighted probabilities [Goal/Lavenberg/Trivedi
1987; Trivedi 1982].  This module provides the steady-state and interval
(cumulative) reward measures the paper lists in Section 4.

The interval integrals share the uniformization core in
:mod:`repro.num.uniformization` with the transient and reliability
paths; steady-state measures accept any registered solver backend via
:class:`~repro.num.SolverOptions`.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np
from scipy.integrate import solve_ivp

from ..errors import SolverError, UnknownBackendError
from ..num import (
    STIFFNESS_LIMIT,
    SolverOptions,
    as_operator,
    as_options,
    backend_names,
    interval_reward_value,
    solve_steady,
    stiffness,
)
from .chain import MarkovChain


def expected_reward_rate(pi: np.ndarray, rewards: np.ndarray) -> float:
    """Expected reward rate under a state distribution."""
    pi = np.asarray(pi, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if pi.shape != rewards.shape:
        raise SolverError(
            f"distribution shape {pi.shape} != reward shape {rewards.shape}"
        )
    return float(pi @ rewards)


def steady_state_availability(
    chain: MarkovChain, method: Union[str, SolverOptions] = "direct"
) -> float:
    """Steady-state availability: reward-weighted stationary probability."""
    pi = steady_state(chain, method=method)
    return sum(
        pi[state.name] * state.reward for state in chain
    )


def interval_reward(
    chain: Union[MarkovChain, np.ndarray],
    horizon: float,
    rewards: Optional[np.ndarray] = None,
    p0: Optional[np.ndarray] = None,
    method: str = "auto",
    tol: float = 1e-12,
) -> float:
    """Time-averaged expected reward over ``(0, horizon)``.

    This is the paper's *interval availability* when rewards are the 0/1
    up-state indicators.  Two methods:

    * ``"uniformization"`` — exact truncated series
      ``(1/(T*lam)) * sum_k P(Poisson(lam*T) > k) * (p0 P^k r)``.
    * ``"ode"`` — augments the forward equations with a cumulative-reward
      integrator; preferred when ``lam * T`` exceeds ~1e6.

    ``"auto"`` picks between them by stiffness.
    """
    op = as_operator(chain, validate=False)
    n = op.n
    if rewards is None:
        if not isinstance(chain, MarkovChain):
            raise SolverError("rewards are required for a bare generator")
        rewards = chain.reward_vector()
    rewards = np.asarray(rewards, dtype=float)
    if p0 is None:
        if isinstance(chain, MarkovChain):
            p0 = chain.initial_distribution()
        else:
            p0 = np.zeros(n)
            p0[0] = 1.0
    p0 = np.asarray(p0, dtype=float)
    if horizon < 0:
        raise SolverError(f"horizon must be non-negative, got {horizon}")
    if horizon == 0:
        return float(p0 @ rewards)

    if method == "auto":
        method = (
            "ode" if stiffness(op, horizon) > STIFFNESS_LIMIT
            else "uniformization"
        )

    if method == "uniformization":
        op.validate()
        return interval_reward_value(op, horizon, rewards, p0, tol=tol)
    if method == "ode":
        return _interval_reward_ode(op.dense(), horizon, rewards, p0)
    raise SolverError(
        f"unknown interval-reward method {method!r}; "
        "expected 'auto', 'uniformization' or 'ode'"
    )


def _interval_reward_ode(
    q: np.ndarray, horizon: float, rewards: np.ndarray, p0: np.ndarray
) -> float:
    n = q.shape[0]
    qt = q.T

    def forward(_time: float, y: np.ndarray) -> np.ndarray:
        p = y[:n]
        dp = qt @ p
        dc = float(p @ rewards)
        return np.concatenate([dp, [dc]])

    y0 = np.concatenate([p0, [0.0]])
    solution = solve_ivp(
        forward, (0.0, horizon), y0, method="BDF", rtol=1e-10, atol=1e-13
    )
    if not solution.success:
        raise SolverError(f"interval-reward ODE failed: {solution.message}")
    cumulative = float(solution.y[n, -1])
    return min(max(cumulative / horizon, 0.0), float(rewards.max(initial=1.0)))


def interval_availability(
    chain: MarkovChain,
    horizon: float,
    p0: Optional[np.ndarray] = None,
    method: str = "auto",
) -> float:
    """Expected fraction of ``(0, horizon)`` spent in up states."""
    indicator = np.array(
        [1.0 if state.is_up else 0.0 for state in chain]
    )
    return interval_reward(chain, horizon, rewards=indicator, p0=p0, method=method)


def failure_frequency(
    chain: MarkovChain, method: Union[str, SolverOptions] = "direct"
) -> float:
    """Steady-state system failure frequency (events per hour).

    The rate of up -> down crossings: ``sum_{i up} pi_i sum_{j down} q_ij``.
    """
    return _crossing_frequency(chain, up_to_down=True, method=method)


def recovery_frequency(
    chain: MarkovChain, method: Union[str, SolverOptions] = "direct"
) -> float:
    """Steady-state system recovery frequency (down -> up crossings)."""
    return _crossing_frequency(chain, up_to_down=False, method=method)


def _crossing_reward_vector(
    chain: MarkovChain, up_to_down: bool
) -> np.ndarray:
    """Per-state instantaneous crossing rate (the 'reward' whose
    expectation is the failure/recovery frequency)."""
    up = set(chain.up_states())
    rates = np.zeros(chain.n_states)
    for transition in chain.transitions():
        source_up = transition.source in up
        target_up = transition.target in up
        crosses = (
            source_up and not target_up
            if up_to_down
            else not source_up and target_up
        )
        if crosses:
            rates[chain.index(transition.source)] += transition.rate
    return rates


def interval_failure_frequency(
    chain: MarkovChain,
    horizon: float,
    p0: Optional[np.ndarray] = None,
    method: str = "auto",
) -> float:
    """Time-averaged system failure frequency over ``(0, horizon)``.

    The paper's "interval ... failure rate for (0, T)" on the
    availability model: ``(1/T) * integral of sum_{i up} p_i(t) q_{i,down} dt``
    — the expected number of up->down crossings per hour.  Converges to
    :func:`failure_frequency` as the horizon grows.
    """
    rewards = _crossing_reward_vector(chain, up_to_down=True)
    return interval_reward(
        chain, horizon, rewards=rewards, p0=p0, method=method
    )


def interval_recovery_frequency(
    chain: MarkovChain,
    horizon: float,
    p0: Optional[np.ndarray] = None,
    method: str = "auto",
) -> float:
    """Time-averaged system recovery frequency over ``(0, horizon)``."""
    rewards = _crossing_reward_vector(chain, up_to_down=False)
    return interval_reward(
        chain, horizon, rewards=rewards, p0=p0, method=method
    )


def steady_state(
    chain: MarkovChain,
    method: Union[str, SolverOptions] = "direct",
) -> Dict[str, float]:
    """Steady-state probabilities keyed by state name.

    Args:
        chain: The chain to solve.
        method: A backend name (``"direct"``, ``"gth"``, ``"power"``,
            ``"sparse-direct"``, ``"sparse-iterative"``) or a full
            :class:`~repro.num.SolverOptions` value.
    """
    try:
        options = as_options(method)
    except UnknownBackendError:
        legacy = sorted(set(backend_names()) | {"direct"})
        raise SolverError(
            f"unknown steady-state method {method!r}; "
            f"expected one of {legacy}"
        ) from None
    pi = solve_steady(chain, options)
    return dict(zip(chain.state_names, pi.tolist()))


def crossing_frequency(
    chain: MarkovChain,
    pi: dict,
    up_to_down: bool = True,
) -> float:
    """Steady-state crossing frequency from a precomputed distribution.

    ``pi`` maps state names to stationary probabilities (the result of
    :func:`steady_state`); callers that have already solved the chain
    avoid a second full solve.
    """
    view = chain.arcs()
    up = chain.reward_vector() > 0.0
    source_up = up[view.sources]
    target_up = up[view.targets]
    crosses = source_up & ~target_up if up_to_down else target_up & ~source_up
    names = chain.state_names
    total = 0.0
    # A sequential sum in arc order, so the result is bit-stable.
    for source, rate in zip(
        view.sources[crosses].tolist(), view.rates[crosses].tolist()
    ):
        total += pi[names[source]] * rate
    return total


def _crossing_frequency(
    chain: MarkovChain,
    up_to_down: bool,
    method: Union[str, SolverOptions],
) -> float:
    pi = steady_state(chain, method=method)
    return crossing_frequency(chain, pi, up_to_down=up_to_down)
