"""Reliability measures via absorbing-chain analysis.

For reliability (as opposed to availability) RAScad treats the first
entry into any down state as mission failure.  This module derives the
absorbing variant of an availability chain and computes MTTF, the
reliability function R(t), the hazard rate, and the paper's interval
failure rate over ``(0, T)``.

Generator construction, the MTTF fundamental-matrix solve and the
uniformization power sequence all live in :mod:`repro.num`;
:func:`reliability_curve` evaluates the whole time grid from a single
power sequence instead of re-running uniformization per point.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ModelError, SolverError
from ..num import (
    SolverOptions,
    absorption_times,
    as_operator,
    as_options,
    transient_grid,
)
from .chain import MarkovChain
from .transient import transient_probabilities_ode


def absorbing_variant(chain: MarkovChain) -> MarkovChain:
    """A copy of ``chain`` in which every down state is absorbing.

    Transitions out of down states are dropped; transitions between down
    states are also dropped (once failed, the mission is over).
    """
    down = set(chain.down_states())
    if not down:
        raise ModelError(
            f"chain {chain.name!r} has no down state; reliability is 1"
        )
    variant = MarkovChain(f"{chain.name}#absorbing")
    for state in chain:
        variant.add_state(state.name, reward=state.reward, meta=state.meta)
    for transition in chain.transitions():
        if transition.source in down:
            continue
        variant.add_transition(
            transition.source, transition.target, transition.rate,
            transition.label,
        )
    return variant


def _transient_partition(chain: MarkovChain) -> List[int]:
    """Indices of up (transient-in-the-absorbing-chain) states."""
    return [chain.index(name) for name in chain.up_states()]


def mean_time_to_failure(
    chain: MarkovChain,
    start: Optional[str] = None,
    options: Union[None, str, SolverOptions] = None,
) -> float:
    """MTTF from ``start`` (default: first state) until any down state.

    Solves the fundamental-matrix system ``Q_UU tau = -1`` restricted to
    up states; ``tau_i`` is the expected time to absorption from state i.
    The solve is dense LAPACK or sparse SuperLU depending on the
    operator representation selected by ``options``.
    """
    up_index = _transient_partition(chain)
    if not up_index:
        raise ModelError(f"chain {chain.name!r} has no up state")
    if len(up_index) == chain.n_states:
        return float("inf")
    opts = as_options(options)
    op = as_operator(chain, representation=opts.representation, validate=False)
    tau = absorption_times(op, up_index, opts)
    start_name = start if start is not None else chain.state_names[0]
    position = chain.index(start_name)
    if position not in up_index:
        raise ModelError(f"start state {start_name!r} is a down state")
    return float(tau[up_index.index(position)])


def reliability_at(
    chain: MarkovChain,
    t: float,
    start: Optional[str] = None,
    method: str = "uniformization",
) -> float:
    """R(t): probability no down state has been entered by time ``t``.

    ``method`` is ``"uniformization"`` or ``"ode"``.
    """
    if method == "uniformization":
        return reliability_curve(chain, [t], start)[0]
    if method != "ode":
        raise SolverError(
            f"unknown reliability method {method!r}; "
            "expected one of ['uniformization', 'ode']"
        )
    absorbing = absorbing_variant(chain)
    p0 = absorbing.initial_distribution(start)
    probabilities = transient_probabilities_ode(absorbing, t, p0=p0)
    up_index = _transient_partition(absorbing)
    return float(np.clip(probabilities[up_index].sum(), 0.0, 1.0))


def reliability_curve(
    chain: MarkovChain,
    times: Sequence[float],
    start: Optional[str] = None,
    options: Union[None, str, SolverOptions] = None,
) -> List[float]:
    """R(t) sampled at each time point.

    The absorbing variant is built once and the whole grid shares a
    single uniformization power sequence; each value is bit-identical
    to calling :func:`reliability_at` point by point.
    """
    times = [float(t) for t in times]
    if not times:
        return []
    opts = as_options(options)
    absorbing = absorbing_variant(chain)
    p0 = absorbing.initial_distribution(start)
    op = as_operator(absorbing, representation=opts.representation)
    up_index = _transient_partition(absorbing)
    grid = transient_grid(op, times, p0=p0, tol=opts.uniformization_tol)
    return [
        float(np.clip(probabilities[up_index].sum(), 0.0, 1.0))
        for probabilities in grid
    ]


def hazard_rate(
    chain: MarkovChain,
    t: float,
    start: Optional[str] = None,
    dt: Optional[float] = None,
) -> float:
    """Instantaneous hazard h(t) = -d/dt ln R(t), by central difference.

    This is the paper's "hazard rate for the time increment in a loop":
    RAScad evaluates it numerically on a time grid, as we do here.
    """
    if t < 0:
        raise SolverError(f"time must be non-negative, got {t}")
    step = dt if dt is not None else max(t, 1.0) * 1e-4
    lo = max(t - step, 0.0)
    hi = t + step
    r_lo, r_hi = reliability_curve(chain, [lo, hi], start=start)
    if r_lo <= 0.0 or r_hi <= 0.0:
        raise SolverError(
            f"reliability vanished near t={t}; hazard rate undefined"
        )
    return float(-(np.log(r_hi) - np.log(r_lo)) / (hi - lo))


def interval_failure_rate(
    chain: MarkovChain, horizon: float, start: Optional[str] = None
) -> float:
    """Average failure rate over ``(0, T)``: ``-ln R(T) / T``.

    The exponential-equivalent rate that would produce the same mission
    reliability; this is the conventional reading of the paper's
    "interval failure rate for (0, T)".
    """
    if horizon <= 0:
        raise SolverError(f"horizon must be positive, got {horizon}")
    r = reliability_at(chain, horizon, start=start)
    if r <= 0.0:
        return float("inf")
    return float(-np.log(r) / horizon)
