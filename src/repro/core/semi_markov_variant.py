"""Semi-Markov variants of generated models.

MG generates CTMCs: every duration is implicitly exponential.  Real
reboots are nearly deterministic and hands-on repairs are classically
lognormal.  Does the exponential assumption bias the results?

This module builds the *semi-Markov* variant of a generated chain —
same structure, same branch probabilities, same mean durations, but
realistic sojourn shapes chosen by state kind:

* ``reboot`` / ``ar`` / ``transient-ar`` / ``reint`` — deterministic
  (scripted restart sequences),
* ``repair`` / ``logistic`` / ``service-error`` / ``spf`` — lognormal
  with a configurable coefficient of variation (human-paced work),
* everything else (fault waiting times) — exponential.

The punchline the A8 benchmark asserts: **steady-state availability is
exactly unchanged** (the semi-Markov ratio formula depends only on
sojourn means), while transient measures do shift — so RAScad's
exponential assumption is harmless for the headline number and matters
only for mission-time measures.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Mapping, Optional

from ..errors import ModelError
from ..markov.chain import MarkovChain
from ..semimarkov.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Lognormal,
)
from ..semimarkov.process import SemiMarkovProcess

#: Default sojourn shape per generator state kind.
DETERMINISTIC_KINDS = frozenset(
    {"reboot", "ar", "transient-ar", "reint"}
)
LOGNORMAL_KINDS = frozenset(
    {"repair", "logistic", "service-error", "spf"}
)


def _shaped_distribution(
    kind: str, mean: float, repair_cv: float
) -> Distribution:
    if mean <= 0:
        raise ModelError(f"state of kind {kind!r} has non-positive mean")
    if kind in DETERMINISTIC_KINDS:
        return Deterministic(mean)
    if kind in LOGNORMAL_KINDS:
        return Lognormal.from_mean_cv(mean, repair_cv)
    return Exponential.from_mean(mean)


def semi_markov_variant(
    chain: MarkovChain,
    repair_cv: float = 1.0,
    name: Optional[str] = None,
) -> SemiMarkovProcess:
    """The realistic-sojourn semi-Markov twin of a generated chain.

    Branch probabilities come from the chain's embedded jump
    probabilities; each state's sojourn keeps the chain's mean holding
    time ``1/exit_rate`` but takes the shape its ``kind`` metadata
    implies.  States without kind metadata stay exponential.

    Args:
        chain: A chain produced by :func:`repro.core.generate_block_chain`
            (or any chain with ``kind`` metadata).
        repair_cv: Coefficient of variation for the lognormal
            (human-paced) sojourns; 1.0 mimics the exponential spread,
            smaller is more predictable crews.
    """
    if repair_cv <= 0:
        raise ModelError(f"repair CV must be positive, got {repair_cv}")
    process = SemiMarkovProcess(name or f"{chain.name}#smp-variant")
    for state in chain:
        process.add_state(state.name, reward=state.reward, meta=state.meta)
    exit_rates = chain.exit_rates()
    for source, arcs in groupby(chain.transitions(), key=attrgetter("source")):
        exit_rate = exit_rates[source]
        kind = str(chain.state(source).meta.get("kind", ""))
        sojourn = _shaped_distribution(kind, 1.0 / exit_rate, repair_cv)
        for transition in arcs:
            process.add_transition(
                source,
                transition.target,
                transition.rate / exit_rate,
                sojourn,
            )
    process.validate()
    return process


def exponential_assumption_gap(
    chain: MarkovChain,
    horizon: float,
    repair_cv: float = 1.0,
    max_stages: int = 16,
) -> Mapping[str, float]:
    """Quantify what the exponential assumption changes.

    Returns the steady-state availability of both variants (equal by
    construction) and the point availability A(horizon) of each — the
    transient number is where distribution shape can show up.
    """
    from ..markov.rewards import steady_state_availability
    from ..num import as_operator, transient_distribution
    from ..semimarkov.phase_type import smp_transient_availability
    from ..semimarkov.steady_state import semi_markov_availability

    variant = semi_markov_variant(chain, repair_cv=repair_cv)
    exponential_steady = steady_state_availability(chain)
    variant_steady = semi_markov_availability(variant)

    probabilities = transient_distribution(as_operator(chain), horizon)
    indicator = (chain.reward_vector() > 0).astype(float)
    exponential_point = float(probabilities @ indicator)
    variant_point = smp_transient_availability(
        variant, horizon, max_stages=max_stages
    )
    return {
        "steady_exponential": exponential_steady,
        "steady_variant": variant_steady,
        "point_exponential": exponential_point,
        "point_variant": variant_point,
        "transient_gap": abs(exponential_point - variant_point),
    }
