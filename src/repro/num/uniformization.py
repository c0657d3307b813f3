"""The one uniformization core shared by every transient measure.

Jensen's uniformization writes ``exp(Q t) = sum_k pois(k; lam t) P^k``
with ``P = I + Q/lam``.  Every uniformization-based measure (point
distributions, ``reliability_at``/``reliability_curve``,
``interval_availability`` and the reward integrals) runs through this
module: the Poisson machinery lives once, ``P`` is applied as an
*operator* (dense matmul or sparse matvec — never densifying a sparse
generator), and :func:`transient_grid` evaluates a whole time grid
from a single pass over the power sequence ``v_k = p0 P^k``.

The grid evaluator accumulates each time point's truncated series in
the same term order, with the same per-point truncation and the same
renormalisation as the single-point path, so grid results are
*bit-identical* to per-point evaluation — the regression suite asserts
this at 1e-12 and in fact it holds exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from ..errors import SolverError
from .operator import GeneratorOperator

#: Above this ``lam * t`` the truncated series needs millions of terms;
#: ``"auto"`` transient dispatch switches to an implicit ODE solve.
STIFFNESS_LIMIT = 1e6


def poisson_pmf_series(mean: float, n_terms: int) -> np.ndarray:
    """Poisson pmf values 0..n_terms-1, computed stably in log space."""
    k = np.arange(n_terms, dtype=float)
    log_pmf = k * np.log(mean) - mean - gammaln(k + 1.0) if mean > 0 else (
        np.where(k == 0, 0.0, -np.inf)
    )
    return np.exp(log_pmf)


def poisson_tail(mean: float, m: int) -> float:
    """P(Poisson(mean) > m)."""
    return float(poisson.sf(m, mean))


def poisson_truncation(mean: float, tol: float) -> int:
    """Terms needed so the truncated Poisson mass stays below ``tol``.

    Returns the count of series terms (truncation point + 1).
    """
    if mean == 0.0:
        return 1
    n_terms = int(mean + 10.0 * np.sqrt(mean) + 20.0)
    while poisson_tail(mean, n_terms) > tol:
        n_terms = int(n_terms * 1.5) + 1
        if n_terms > 50_000_000:
            raise SolverError(
                f"uniformization would need more than {n_terms} terms; "
                "the horizon is too stiff — use transient_probabilities_ode"
            )
    return n_terms + 1


def uniformized(
    op: GeneratorOperator,
) -> Tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The uniformized DTMC as an operator: ``(apply, lam)``.

    ``apply(v)`` computes ``v @ P`` with ``P = I + Q/lam``; for dense
    storage ``P`` is materialised once (bit-identical to the historic
    dense path), for sparse storage the product stays matrix-free.
    ``lam`` is 0.0 for an all-absorbing generator, in which case
    ``apply`` is the identity.
    """
    lam = op.uniformization_rate()
    if lam == 0.0:
        return (lambda v: v), 0.0
    lam *= 1.0 + 1e-9  # guard against a zero row in P from rounding
    if op.representation == "sparse":
        return (lambda v: v + op.apply(v) / lam), lam
    p = np.eye(op.n) + op.dense() / lam
    return (lambda v: v @ p), lam


def check_initial(p0: Optional[np.ndarray], n: int) -> np.ndarray:
    """``p0`` as a float vector (default: all mass on state 0).

    Raises :class:`~repro.errors.SolverError` unless it has ``n``
    entries that form a probability distribution.
    """
    if p0 is None:
        p0 = np.zeros(n)
        p0[0] = 1.0
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise SolverError(f"initial vector has shape {p0.shape}, expected ({n},)")
    if abs(p0.sum() - 1.0) > 1e-9 or (p0 < -1e-12).any():
        raise SolverError("initial vector is not a probability distribution")
    return p0


def transient_grid(
    op: GeneratorOperator,
    times: Sequence[float],
    p0: Optional[np.ndarray] = None,
    tol: float = 1e-12,
) -> List[np.ndarray]:
    """State distributions at every time point from one power sequence.

    The vector sequence ``v_k = p0 P^k`` is computed once, up to the
    largest truncation point any time on the grid needs; each time
    point accumulates its own Poisson-weighted, renormalised series.
    Cost is one sweep of vector-operator products for the whole grid
    instead of one per point — the >=5x win on a 65-point curve — while
    every returned vector is bit-identical to the per-point path.
    """
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise SolverError(f"time must be non-negative, got {t}")
    p0 = check_initial(p0, op.n)
    if not times:
        return []
    apply_p, lam = uniformized(op)
    if lam == 0.0:
        return [p0.copy() for _ in times]

    n_terms = [
        1 if t == 0.0 else poisson_truncation(lam * t, tol) for t in times
    ]
    weights = [
        None if t == 0.0 else poisson_pmf_series(lam * t, terms)
        for t, terms in zip(times, n_terms)
    ]
    accumulators = [np.zeros(op.n) for _ in times]
    max_terms = max(n_terms)
    v = p0.copy()
    for k in range(max_terms):
        for i, w in enumerate(weights):
            if w is not None and k < n_terms[i]:
                accumulators[i] += w[k] * v
        if k + 1 < max_terms:
            v = apply_p(v)

    results: List[np.ndarray] = []
    for i, t in enumerate(times):
        if t == 0.0:
            results.append(p0.copy())
            continue
        mass = weights[i].sum()
        if mass <= 0:
            raise SolverError("Poisson weights vanished; horizon too stiff")
        results.append(np.clip(accumulators[i] / mass, 0.0, 1.0))
    return results


def transient_distribution(
    op: GeneratorOperator,
    t: float,
    p0: Optional[np.ndarray] = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """State distribution at a single time by uniformization."""
    return transient_grid(op, [t], p0=p0, tol=tol)[0]


def interval_reward_value(
    op: GeneratorOperator,
    horizon: float,
    rewards: np.ndarray,
    p0: np.ndarray,
    tol: float = 1e-12,
) -> float:
    """Time-averaged expected reward over ``(0, horizon)``.

    The truncated-series integral
    ``(1/(T lam)) sum_k P(Poisson(lam T) > k) (p0 P^k r)`` with the
    uniformized DTMC applied as an operator.
    """
    apply_p, lam = uniformized(op)
    if lam == 0.0:
        return float(p0 @ rewards)
    mean = lam * horizon
    n_terms = poisson_truncation(mean, tol)
    # Integral weights: int_0^T pois(k; lam s) ds = sf(k, mean) / lam.
    ks = np.arange(n_terms)
    weights = poisson.sf(ks, mean) / lam
    acc = 0.0
    v = p0.copy()
    for k in range(n_terms):
        acc += weights[k] * float(v @ rewards)
        if weights[k] < tol * max(acc, 1.0) and k > mean:
            break
        v = apply_p(v)
    return acc / horizon


def stiffness(op: GeneratorOperator, horizon: float) -> float:
    """``lam * horizon`` — how many uniformization terms the horizon costs."""
    return op.uniformization_rate() * float(horizon)
