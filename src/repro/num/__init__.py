"""The unified numerical kernel layer.

``repro.num`` is the single numerical substrate under the whole stack:
generator construction and validation (:class:`GeneratorOperator`,
:func:`as_operator`, :func:`validate_generator`), solver configuration
(:class:`SolverOptions`, :func:`as_options`), the steady-state backend
registry (:func:`solve_steady`, :func:`resolve_steady`,
:func:`steady_backend_for`, :func:`get_backend`,
:func:`backend_names`) and the shared uniformization core
(:func:`transient_grid`, :func:`transient_distribution`,
:func:`interval_reward_value`).  It is the only solver code: the
engine, service, jobs, CLI and the ``repro.markov`` measures call it
directly, threading :class:`SolverOptions` straight through.  The
deliberately independent oracles (``repro.markov.transient``'s expm and
ODE paths, ``repro.validation.sharpe``) stay outside it.
"""

from __future__ import annotations

from .backends import (
    MAX_POWER_ITERATIONS,
    SteadyBackend,
    absorption_times,
    backend_names,
    get_backend,
    power_iteration,
    register_backend,
    resolve_steady,
    solve_steady,
    steady_backend_for,
    steady_backends,
)
from .operator import (
    SPARSE_DENSITY_CEILING,
    SPARSE_STATE_FLOOR,
    GeneratorOperator,
    as_operator,
    validate_generator,
)
from .options import (
    DEFAULT_OPTIONS,
    REPRESENTATIONS,
    STEADY_ALIASES,
    TRANSIENT_METHODS,
    SolverOptions,
    as_options,
)
from .uniformization import (
    STIFFNESS_LIMIT,
    interval_reward_value,
    poisson_pmf_series,
    poisson_tail,
    poisson_truncation,
    stiffness,
    transient_distribution,
    transient_grid,
    uniformized,
)

__all__ = [
    "DEFAULT_OPTIONS",
    "GeneratorOperator",
    "MAX_POWER_ITERATIONS",
    "REPRESENTATIONS",
    "SPARSE_DENSITY_CEILING",
    "SPARSE_STATE_FLOOR",
    "STEADY_ALIASES",
    "STIFFNESS_LIMIT",
    "SolverOptions",
    "SteadyBackend",
    "TRANSIENT_METHODS",
    "absorption_times",
    "as_operator",
    "as_options",
    "backend_names",
    "get_backend",
    "interval_reward_value",
    "poisson_pmf_series",
    "poisson_tail",
    "poisson_truncation",
    "power_iteration",
    "register_backend",
    "resolve_steady",
    "solve_steady",
    "steady_backend_for",
    "steady_backends",
    "stiffness",
    "transient_distribution",
    "transient_grid",
    "uniformized",
    "validate_generator",
]
