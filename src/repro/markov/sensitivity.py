"""Parametric sensitivity of chain measures.

RAScad advertises "graphical output and parametric analysis capability";
the numerical core of that feature is evaluating a measure as a function
of a model parameter.  Two mechanisms are provided:

* *factory-based* finite differences (:func:`sweep`,
  :func:`parametric_sensitivity`) — models are expressed as callables
  mapping a parameter value to a :class:`MarkovChain`, so the same
  machinery serves hand-built GMB chains and MG-generated ones;
* *analytic* stationary-vector derivatives
  (:func:`stationary_derivative`, :func:`rate_sensitivity`) — exact
  dpi/dq_ij from the linear system d(pi)Q = -pi dQ, no step-size tuning.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..errors import SolverError
from ..num import as_operator, solve_steady
from .chain import MarkovChain

ChainFactory = Callable[[float], MarkovChain]
Measure = Callable[[MarkovChain], float]


def sweep(
    factory: ChainFactory,
    measure: Measure,
    values: Iterable[float],
) -> List[Tuple[float, float]]:
    """Evaluate ``measure(factory(v))`` over each parameter value."""
    results: List[Tuple[float, float]] = []
    for value in values:
        chain = factory(float(value))
        results.append((float(value), float(measure(chain))))
    return results


def parametric_sensitivity(
    factory: ChainFactory,
    measure: Measure,
    at: float,
    relative_step: float = 1e-4,
) -> float:
    """Central-difference derivative d(measure)/d(parameter) at ``at``.

    The step is relative to the parameter magnitude so the same call works
    for FIT-scale rates and hour-scale durations.
    """
    if at == 0.0:
        raise SolverError(
            "cannot take a relative step at parameter value 0; "
            "evaluate at a small positive value instead"
        )
    step = abs(at) * relative_step
    hi = measure(factory(at + step))
    lo = measure(factory(at - step))
    return float((hi - lo) / (2.0 * step))


def stationary_derivative(
    chain: MarkovChain, source: str, target: str
) -> Dict[str, float]:
    """Exact d(pi)/d(q) for a unit increase of the rate ``source -> target``.

    Differentiating the determinate system ``pi M = e_n`` (M is Q with
    its last column replaced by the normalisation ones-column) gives
    ``d(pi) = -pi dM M^{-1}``, where dM is the perturbation direction
    ``E_{st} - E_{ss}`` with the normalisation column zeroed.  Exact up
    to linear-solve round-off — no finite-difference step to tune.
    """
    if source == target:
        raise SolverError("self-loop rates do not exist in a CTMC")
    n = chain.n_states
    i = chain.index(source)
    j = chain.index(target)
    if n < 2:
        raise SolverError("sensitivity needs at least two states")

    pi = solve_steady(chain, "direct")
    m = as_operator(chain, representation="dense", validate=False).dense().copy()
    m[:, -1] = 1.0
    direction = np.zeros((n, n))
    direction[i, j] += 1.0
    direction[i, i] -= 1.0
    direction[:, -1] = 0.0
    rhs = -(pi @ direction)
    try:
        # Solve d(pi) M = rhs  <=>  M^T d(pi)^T = rhs^T.
        dpi = np.linalg.solve(m.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"sensitivity system is singular: {exc}") from exc
    return dict(zip(chain.state_names, dpi.tolist()))


def rate_sensitivity(
    chain: MarkovChain, source: str, target: str
) -> float:
    """Exact d(availability)/d(rate) for the arc ``source -> target``.

    Positive means increasing that rate *raises* availability (repair
    arcs); negative means it lowers it (failure arcs).
    """
    dpi = stationary_derivative(chain, source, target)
    return sum(
        dpi[state.name] * (1.0 if state.is_up else 0.0) for state in chain
    )


def all_rate_sensitivities(chain: MarkovChain) -> List[Tuple[str, str, float]]:
    """``(source, target, dA/dq)`` for every arc, largest magnitude first.

    The RAS-engineering reading: which transition rate is worth
    engineering effort.  Multiply by the rate itself to get elasticity.
    """
    results = [
        (t.source, t.target, rate_sensitivity(chain, t.source, t.target))
        for t in chain.transitions()
    ]
    results.sort(key=lambda item: abs(item[2]), reverse=True)
    return results
