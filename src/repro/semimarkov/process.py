"""Semi-Markov process representation.

The kernel is destination-dependent: each transition carries a branch
probability and a sojourn distribution, the most general discrete-state
semi-Markov form (GMB's semi-Markov chains map directly onto it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from ..errors import ModelError
from ..markov.chain import MarkovChain
from .distributions import Distribution, Exponential


@dataclass(frozen=True)
class SemiMarkovState:
    """A named semi-Markov state with a reward rate."""

    name: str
    reward: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def is_up(self) -> bool:
        return self.reward > 0.0


@dataclass(frozen=True)
class KernelEntry:
    """One kernel transition: go to ``target`` w.p. ``probability`` after a
    sojourn drawn from ``distribution``."""

    target: str
    probability: float
    distribution: Distribution


class SemiMarkovProcess:
    """A finite semi-Markov process with reward-annotated states."""

    def __init__(self, name: str = "smp") -> None:
        self.name = name
        self._states: Dict[str, SemiMarkovState] = {}
        self._order: List[str] = []
        self._kernel: Dict[str, List[KernelEntry]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(
        self,
        name: str,
        reward: float = 1.0,
        meta: Optional[Mapping[str, object]] = None,
    ) -> SemiMarkovState:
        if name in self._states:
            raise ModelError(f"duplicate state {name!r} in process {self.name!r}")
        if reward < 0:
            raise ModelError(f"state {name!r} has negative reward {reward}")
        state = SemiMarkovState(name=name, reward=reward, meta=dict(meta or {}))
        self._states[name] = state
        self._order.append(name)
        self._kernel[name] = []
        return state

    def add_transition(
        self,
        source: str,
        target: str,
        probability: float,
        distribution: Distribution,
    ) -> None:
        if source not in self._states:
            raise ModelError(f"unknown source state {source!r}")
        if target not in self._states:
            raise ModelError(f"unknown target state {target!r}")
        if not 0.0 <= probability <= 1.0:
            raise ModelError(
                f"branch probability must lie in [0, 1], got {probability}"
            )
        if probability == 0.0:
            return
        self._kernel[source].append(
            KernelEntry(target, float(probability), distribution)
        )

    @classmethod
    def from_markov_chain(cls, chain: MarkovChain) -> "SemiMarkovProcess":
        """Embed a CTMC as the equivalent semi-Markov process."""
        process = cls(f"{chain.name}#smp")
        for state in chain:
            process.add_state(state.name, reward=state.reward, meta=state.meta)
        # Sorted transitions arrive grouped by source; a state without
        # arcs is absorbing and gets no kernel entries.
        exit_rates = chain.exit_rates()
        for source, arcs in groupby(
            chain.transitions(), key=attrgetter("source")
        ):
            exit_rate = exit_rates[source]
            sojourn = Exponential(exit_rate)
            for transition in arcs:
                process.add_transition(
                    source,
                    transition.target,
                    transition.rate / exit_rate,
                    sojourn,
                )
        return process

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return len(self._order)

    @property
    def state_names(self) -> List[str]:
        return list(self._order)

    def __iter__(self) -> Iterator[SemiMarkovState]:
        return (self._states[name] for name in self._order)

    def state(self, name: str) -> SemiMarkovState:
        try:
            return self._states[name]
        except KeyError:
            raise ModelError(
                f"process {self.name!r} has no state {name!r}"
            ) from None

    def index(self, name: str) -> int:
        try:
            return self._order.index(name)
        except ValueError:
            raise ModelError(
                f"process {self.name!r} has no state {name!r}"
            ) from None

    def kernel(self, source: str) -> List[KernelEntry]:
        if source not in self._kernel:
            raise ModelError(f"process {self.name!r} has no state {source!r}")
        return list(self._kernel[source])

    def up_states(self) -> List[str]:
        return [name for name in self._order if self._states[name].is_up]

    def down_states(self) -> List[str]:
        return [name for name in self._order if not self._states[name].is_up]

    def is_absorbing(self, name: str) -> bool:
        return not self._kernel[name]

    def validate(self) -> None:
        """Check branch probabilities sum to one for non-absorbing states."""
        if not self._order:
            raise ModelError(f"process {self.name!r} has no states")
        for name in self._order:
            entries = self._kernel[name]
            if not entries:
                continue
            total = sum(entry.probability for entry in entries)
            if abs(total - 1.0) > 1e-9:
                raise ModelError(
                    f"branch probabilities out of state {name!r} sum to "
                    f"{total:.12g}, expected 1"
                )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def embedded_matrix(self) -> np.ndarray:
        """The embedded DTMC transition matrix (absorbing rows self-loop)."""
        n = self.n_states
        p = np.zeros((n, n))
        index = {name: i for i, name in enumerate(self._order)}
        for name in self._order:
            entries = self._kernel[name]
            if not entries:
                p[index[name], index[name]] = 1.0
                continue
            for entry in entries:
                p[index[name], index[entry.target]] += entry.probability
        return p

    def mean_sojourns(self) -> np.ndarray:
        """Expected holding time in each state (hours).

        Absorbing states get sojourn 0; they carry no steady-state weight
        through the ratio formula (and validated availability processes
        have none).
        """
        means = np.zeros(self.n_states)
        for i, name in enumerate(self._order):
            entries = self._kernel[name]
            means[i] = sum(
                entry.probability * entry.distribution.mean()
                for entry in entries
            )
        return means

    def reward_vector(self) -> np.ndarray:
        return np.array(
            [self._states[name].reward for name in self._order]
        )

    def __repr__(self) -> str:
        arcs = sum(len(entries) for entries in self._kernel.values())
        return (
            f"SemiMarkovProcess({self.name!r}, states={self.n_states}, "
            f"transitions={arcs})"
        )
