"""Phase-type expansion of semi-Markov processes.

RAScad's model solution ultimately rests on CTMCs; the classic way to
evaluate a *semi-Markov* model analytically is to approximate each
non-exponential sojourn by a **phase-type (PH) distribution** — a small
network of exponential stages — and expand the process into an ordinary
CTMC that every solver in :mod:`repro.markov` already handles.

Fitting is two-moment matching:

* ``cv^2 == 1`` — a single exponential stage (exact).
* ``cv^2 < 1`` — Tijms' mixture of Erlang(k-1) and Erlang(k) with a
  common stage rate, where ``1/k <= cv^2``; matches mean and variance
  exactly (a point mass is capped at ``max_stages`` Erlang stages).
* ``cv^2 > 1`` — a two-phase hyperexponential with balanced means;
  matches mean and variance exactly.

The expansion preserves reward structure (every stage inherits its
semi-Markov state's reward) and is *exact in steady state* — the ratio
formula depends only on the sojourn means, which PH fitting preserves —
while transient measures converge as the fit tightens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ModelError, SolverError
from ..markov.chain import MarkovChain
from .distributions import Distribution
from .process import SemiMarkovProcess


@dataclass(frozen=True)
class PhaseBranch:
    """One branch of a PH fit: a linear chain of exponential stages.

    Entered with probability ``probability``; traverses ``stages``
    stages, each with rate ``rate``, then absorbs.
    """

    probability: float
    stages: int
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise SolverError(
                f"branch probability must lie in (0, 1], got "
                f"{self.probability}"
            )
        if self.stages < 1:
            raise SolverError(f"branch needs >= 1 stage, got {self.stages}")
        if self.rate <= 0:
            raise SolverError(f"stage rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return self.stages / self.rate

    def second_moment(self) -> float:
        # E[X^2] of Erlang(stages, rate).
        return self.stages * (self.stages + 1) / (self.rate * self.rate)


@dataclass(frozen=True)
class PhaseTypeFit:
    """A fitted PH distribution: a probabilistic mixture of branches."""

    branches: Tuple[PhaseBranch, ...]

    def __post_init__(self) -> None:
        total = sum(branch.probability for branch in self.branches)
        if abs(total - 1.0) > 1e-9:
            raise SolverError(
                f"branch probabilities sum to {total:.12g}, expected 1"
            )

    def mean(self) -> float:
        return sum(b.probability * b.mean() for b in self.branches)

    def variance(self) -> float:
        second = sum(
            b.probability * b.second_moment() for b in self.branches
        )
        mean = self.mean()
        return second - mean * mean

    @property
    def total_stages(self) -> int:
        return sum(branch.stages for branch in self.branches)


def fit_phase_type(
    mean: float, cv_squared: float, max_stages: int = 64
) -> PhaseTypeFit:
    """Two-moment PH fit for a positive distribution.

    Args:
        mean: Target mean (hours).
        cv_squared: Target squared coefficient of variation.
        max_stages: Cap on Erlang length for very low variability; a
            point mass (``cv_squared == 0``) uses exactly this many
            stages, trading state space for sharpness.
    """
    if mean <= 0:
        raise SolverError(f"PH fitting needs a positive mean, got {mean}")
    if cv_squared < 0:
        raise SolverError(f"cv^2 must be non-negative, got {cv_squared}")
    if max_stages < 1:
        raise SolverError(f"max_stages must be >= 1, got {max_stages}")

    if abs(cv_squared - 1.0) < 1e-12:
        return PhaseTypeFit((PhaseBranch(1.0, 1, 1.0 / mean),))

    if cv_squared > 1.0:
        # Balanced-means hyperexponential H2.
        p1 = 0.5 * (1.0 + math.sqrt((cv_squared - 1.0) / (cv_squared + 1.0)))
        p2 = 1.0 - p1
        rate1 = 2.0 * p1 / mean
        rate2 = 2.0 * p2 / mean
        return PhaseTypeFit((
            PhaseBranch(p1, 1, rate1),
            PhaseBranch(p2, 1, rate2),
        ))

    # cv^2 < 1: Tijms' Erlang(k-1)/Erlang(k) mixture with common rate.
    if cv_squared < 1.0 / max_stages:
        # Too deterministic to match exactly within the stage budget:
        # use a plain Erlang(max_stages) preserving the mean.
        return PhaseTypeFit(
            (PhaseBranch(1.0, max_stages, max_stages / mean),)
        )
    k = max(2, math.ceil(1.0 / cv_squared))
    # Guard float edges so 1/k <= cv^2 <= 1/(k-1) holds.
    while k > 2 and cv_squared > 1.0 / (k - 1):
        k -= 1
    while cv_squared < 1.0 / k:
        k += 1
    q = (
        k * cv_squared
        - math.sqrt(k * (1.0 + cv_squared) - k * k * cv_squared)
    ) / (1.0 + cv_squared)
    q = min(max(q, 0.0), 1.0)
    rate = (k - q) / mean
    branches: List[PhaseBranch] = []
    if q > 0.0:
        branches.append(PhaseBranch(q, k - 1, rate))
    if q < 1.0:
        branches.append(PhaseBranch(1.0 - q, k, rate))
    return PhaseTypeFit(tuple(branches))


def fit_distribution(
    distribution: Distribution, max_stages: int = 64
) -> PhaseTypeFit:
    """PH fit matching a distribution's first two moments."""
    return fit_phase_type(
        distribution.mean(), distribution.cv_squared(), max_stages
    )


def expand_to_ctmc(
    process: SemiMarkovProcess,
    max_stages: int = 32,
    name: Optional[str] = None,
) -> MarkovChain:
    """Expand a semi-Markov process into a CTMC via PH sojourns.

    Every kernel entry ``(state, target, p, dist)`` becomes a PH stage
    chain; transitions *into* ``state`` split across its entries by
    their branch probabilities (the SMP picks destination on entry).
    Stage states are named ``State::arc<i>.b<j>.s<k>`` and inherit the
    state's reward; the first stage of the first branch of the first
    arc serves as the state's canonical entry alias.

    Absorbing semi-Markov states become absorbing CTMC states.
    """
    process.validate()

    chain = MarkovChain(name or f"{process.name}#ph")
    # entry_points[state] = [(probability, stage-state-name), ...]
    entry_points = {}

    # First pass: create all stage states.
    arc_layouts = {}
    for state_name in process.state_names:
        state = process.state(state_name)
        entries = process.kernel(state_name)
        if not entries:
            chain.add_state(
                state_name, reward=state.reward,
                meta={"smp_state": state_name, "kind": "absorbing"},
            )
            entry_points[state_name] = [(1.0, state_name)]
            continue
        entry_list = []
        layouts = []
        for arc_index, entry in enumerate(entries):
            fit = fit_distribution(entry.distribution, max_stages)
            branch_states = []
            for branch_index, branch in enumerate(fit.branches):
                stage_names = []
                for stage_index in range(branch.stages):
                    stage_name = (
                        f"{state_name}::arc{arc_index}"
                        f".b{branch_index}.s{stage_index}"
                    )
                    chain.add_state(
                        stage_name,
                        reward=state.reward,
                        meta={
                            "smp_state": state_name,
                            "kind": "stage",
                            "arc": arc_index,
                        },
                    )
                    stage_names.append(stage_name)
                branch_states.append((branch, stage_names))
                entry_list.append(
                    (entry.probability * branch.probability, stage_names[0])
                )
            layouts.append((entry, branch_states))
        entry_points[state_name] = entry_list
        arc_layouts[state_name] = layouts

    # Second pass: wire stage progressions and absorptions.
    for state_name, layouts in arc_layouts.items():
        for entry, branch_states in layouts:
            for branch, stage_names in branch_states:
                for a, b in zip(stage_names, stage_names[1:]):
                    chain.add_transition(a, b, branch.rate, label="stage")
                # Absorption: split across the *target* state's entries.
                last = stage_names[-1]
                for probability, target_entry in entry_points[entry.target]:
                    if probability <= 0.0:
                        continue
                    chain.add_transition(
                        last, target_entry, branch.rate * probability,
                        label=f"to {entry.target}",
                    )
    return chain


def smp_transient_availability(
    process: SemiMarkovProcess,
    t: float,
    max_stages: int = 32,
    start: Optional[str] = None,
) -> float:
    """Analytic point availability A(t) of a semi-Markov process.

    Expands to a CTMC and evaluates by uniformization.  Exact when all
    sojourns are exponential; otherwise a two-moment approximation that
    tightens as ``max_stages`` grows (for low-variance sojourns).
    """
    from ..num import as_operator, transient_distribution

    chain = expand_to_ctmc(process, max_stages=max_stages)
    start_state = start if start is not None else process.state_names[0]
    entries = _entry_distribution(chain, process, start_state, max_stages)
    import numpy as np

    p0 = np.zeros(chain.n_states)
    for probability, stage_name in entries:
        p0[chain.index(stage_name)] = probability
    probabilities = transient_distribution(as_operator(chain), t, p0=p0)
    rewards = chain.reward_vector()
    indicator = (rewards > 0).astype(float)
    return float(probabilities @ indicator)


def _entry_distribution(
    chain: MarkovChain,
    process: SemiMarkovProcess,
    state_name: str,
    max_stages: int = 32,
) -> List[Tuple[float, str]]:
    """The stage-level entry distribution for a semi-Markov state.

    ``max_stages`` must match the value the chain was expanded with so
    the refitted branch layout lines up with the generated stage names.
    """
    process.index(state_name)  # raises for unknown states
    entries = []
    kernel = process.kernel(state_name)
    if not kernel:
        return [(1.0, state_name)]
    for arc_index, entry in enumerate(kernel):
        fit = fit_distribution(entry.distribution, max_stages)
        for branch_index, branch in enumerate(fit.branches):
            stage_name = f"{state_name}::arc{arc_index}.b{branch_index}.s0"
            if stage_name in chain:
                entries.append(
                    (entry.probability * branch.probability, stage_name)
                )
    total = sum(p for p, _ in entries)
    if abs(total - 1.0) > 1e-6:
        raise ModelError(
            f"entry distribution for {state_name!r} sums to {total:.6g}"
        )
    return entries
