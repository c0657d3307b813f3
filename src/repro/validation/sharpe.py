"""An independent analytic solver path ("SHARPE-like").

RAScad was validated by solving the same models in SHARPE and comparing
results.  This module plays SHARPE's role: it assembles the generator
itself from the chain's transition list (never calling
``MarkovChain.generator_matrix``) and solves the stationary equations
with a different formulation (augmented least squares on sparse data)
from the production backends in :mod:`repro.num.backends`.  A bug
in either path shows up as disagreement in the E4/E5 benchmarks.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from scipy import sparse


from ..errors import SolverError
from ..markov.chain import MarkovChain


def sharpe_steady_state(chain: MarkovChain) -> Dict[str, float]:
    """Stationary probabilities via independent assembly and numerics."""
    names = chain.state_names
    n = len(names)
    if n == 0:
        raise SolverError("empty chain")
    if n == 1:
        return {names[0]: 1.0}
    index = {name: i for i, name in enumerate(names)}

    rows, cols, data = [], [], []
    exit_rates = np.zeros(n)
    for transition in chain.transitions():
        i = index[transition.source]
        j = index[transition.target]
        # Balance equations in column form: sum_i pi_i q_ij = 0.
        rows.append(j)
        cols.append(i)
        data.append(transition.rate)
        exit_rates[i] += transition.rate
    for i in range(n):
        rows.append(i)
        cols.append(i)
        data.append(-exit_rates[i])

    balance = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    # Augment with the normalisation row and solve the overdetermined
    # system by least squares.  Availability chains are stiff (rates
    # span FIT-level 1e-9/h to reboot-level 10/h), so each balance row
    # is equilibrated to unit scale first.
    dense = balance.toarray()
    row_scale = np.abs(dense).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    dense = dense / row_scale[:, None]
    system = np.vstack([dense, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if not np.isfinite(pi).all():
        raise SolverError("SHARPE-path solve produced non-finite values")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError("SHARPE-path solve produced a zero vector")
    pi = pi / total
    residual = np.abs(balance @ pi).max()
    scale = max(exit_rates.max(), 1.0)
    if residual > 1e-6 * scale:
        raise SolverError(
            f"SHARPE-path balance residual too large: {residual:.3e}"
        )
    return dict(zip(names, pi.tolist()))


def sharpe_availability(chain: MarkovChain) -> float:
    """Steady-state availability through the independent path."""
    pi = sharpe_steady_state(chain)
    return sum(
        pi[state.name] for state in chain if state.is_up
    )
