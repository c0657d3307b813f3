"""Independent transient oracles: matrix exponential and stiff ODE.

The production transient path is Jensen's uniformization (Reibman/Smith/
Trivedi 1989, the paper's reference [6]), and it lives once in
:mod:`repro.num.uniformization` (:func:`repro.num.transient_distribution`
and :func:`repro.num.transient_grid`).  This module holds the two methods
that share no solver code with it, so each can check it:
``scipy.linalg.expm`` of the dense generator, and an implicit (BDF)
integration of the Kolmogorov forward equations that also serves
horizons too stiff for uniformization.  Only the initial-vector check
is shared, so all three methods reject the same ``p0``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from scipy import linalg as sla
from scipy.integrate import solve_ivp

from ..errors import SolverError
from ..num import as_operator
from ..num.uniformization import check_initial
from .chain import MarkovChain


def transient_probabilities_expm(
    model: Union[MarkovChain, np.ndarray],
    t: float,
    p0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State probabilities at time ``t`` via ``scipy.linalg.expm``."""
    op = as_operator(model, validate=False)
    p0 = check_initial(p0, op.n)
    result = p0 @ sla.expm(op.dense() * t)
    return np.clip(result, 0.0, 1.0)


def transient_probabilities_ode(
    model: Union[MarkovChain, np.ndarray],
    t: float,
    p0: Optional[np.ndarray] = None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> np.ndarray:
    """State probabilities at time ``t`` by stiff ODE integration.

    Solves the Kolmogorov forward equations dp/dt = p Q with an implicit
    method, suitable when uniformization's ``lam * t`` is astronomically
    large (e.g. a 15-month horizon against minute-scale reboot rates).
    """
    op = as_operator(model, validate=False)
    p0 = check_initial(p0, op.n)
    if t == 0.0:
        return p0.copy()
    qt = op.dense().T

    def forward(_time: float, p: np.ndarray) -> np.ndarray:
        return qt @ p

    solution = solve_ivp(
        forward,
        (0.0, t),
        p0,
        method="BDF",
        jac=lambda _time, _p: qt,
        rtol=rtol,
        atol=atol,
    )
    if not solution.success:
        raise SolverError(f"ODE transient solve failed: {solution.message}")
    result = solution.y[:, -1]
    result = np.clip(result, 0.0, 1.0)
    total = result.sum()
    if total <= 0:
        raise SolverError("ODE transient solve lost all probability mass")
    return result / total
