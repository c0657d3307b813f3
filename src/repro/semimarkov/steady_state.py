"""Analytic steady-state solution of semi-Markov processes.

Uses the classical ratio formula: with ``nu`` the stationary vector of
the embedded DTMC and ``m_i`` the mean sojourn in state i, the long-run
fraction of time in state i is ``nu_i m_i / sum_j nu_j m_j``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ModelError, SolverError
from ..num import solve_steady
from .process import SemiMarkovProcess


def embedded_dtmc_stationary(
    p: np.ndarray, tol: float = 1e-13
) -> np.ndarray:
    """Stationary vector of a DTMC transition matrix.

    ``nu (P - I) = 0`` is the balance equation of the CTMC generator
    ``P - I``, so the ``dense-direct`` backend solves it (normalised,
    with a least-squares fallback for defective inputs).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise SolverError(f"transition matrix must be square, got {p.shape}")
    n = p.shape[0]
    row_sums = p.sum(axis=1)
    if (np.abs(row_sums - 1.0) > 1e-9).any():
        raise SolverError("DTMC rows do not sum to one")
    if (p < -1e-15).any():
        raise SolverError("DTMC has negative probabilities")
    return solve_steady(p - np.eye(n), "direct")


def semi_markov_steady_state(process: SemiMarkovProcess) -> Dict[str, float]:
    """Long-run time fractions per state, keyed by state name."""
    process.validate()
    for name in process.state_names:
        if process.is_absorbing(name):
            raise ModelError(
                f"state {name!r} is absorbing; the steady state is "
                "degenerate — use simulate_time_to_failure instead"
            )
    nu = embedded_dtmc_stationary(process.embedded_matrix())
    sojourns = process.mean_sojourns()
    weights = nu * sojourns
    total = weights.sum()
    if total <= 0:
        raise SolverError(
            f"process {process.name!r} has zero total sojourn weight"
        )
    fractions = weights / total
    return dict(zip(process.state_names, fractions.tolist()))


def semi_markov_availability(process: SemiMarkovProcess) -> float:
    """Steady-state reward rate (availability for 0/1 rewards)."""
    fractions = semi_markov_steady_state(process)
    return sum(
        fractions[state.name] * state.reward for state in process
    )
