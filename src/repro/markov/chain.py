"""Reward-annotated continuous-time Markov chains.

A :class:`MarkovChain` is the internal matrix representation that RAScad
generates for each MG block ("Due to the variation on the model size, the
internal matrix representation ... of the Markov models are generated in
the implementation").  States carry a *reward rate*: 1 marks an
operational (up) state, 0 a failure (down) state; fractional rewards are
allowed for performability-style models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError


@dataclass(frozen=True)
class State:
    """A named state with a reward rate.

    Attributes:
        name: Unique state name within its chain.
        reward: Reward rate; 1.0 = up, 0.0 = down, intermediate values
            model degraded performability levels.
        meta: Free-form annotations (e.g. which redundancy level the MG
            generator assigned the state to), held as a read-only copy:
            chains generated from one structure share their states.
    """

    name: str
    reward: float = 1.0
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def __reduce__(self):
        # A mapping proxy does not pickle; the plain copy it views does,
        # and the constructor wraps it again.
        return (State, (self.name, self.reward, dict(self.meta)))

    @property
    def is_up(self) -> bool:
        """True when the state counts as operational (reward > 0)."""
        return self.reward > 0.0


@dataclass(frozen=True)
class Transition:
    """A rate transition between two named states."""

    source: str
    target: str
    rate: float
    label: str = ""


@dataclass(frozen=True, eq=False)
class ArcView:
    """A chain's arcs as parallel read-only arrays.

    Arc ``k`` runs from state position ``sources[k]`` to ``targets[k]``
    at ``rates[k]``.  Arcs are sorted by ``(source, target)`` position,
    the order of :meth:`MarkovChain.transitions`, so a sequential sum
    over the view adds the same floats in the same order.
    """

    n_states: int
    sources: np.ndarray
    targets: np.ndarray
    rates: np.ndarray

    def reachable(self, start: int, reverse: bool = False) -> np.ndarray:
        """Mask of the states reachable from position ``start``.

        With ``reverse`` the arcs are followed backwards, which gives
        the states that can reach ``start``.
        """
        tails, heads = self.sources, self.targets
        if reverse:
            order = np.argsort(heads, kind="stable")
            tails, heads = heads[order], tails[order]
        bounds = np.searchsorted(tails, np.arange(self.n_states + 1)).tolist()
        successors = heads.tolist()
        seen = [False] * self.n_states
        seen[start] = True
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in successors[bounds[node]:bounds[node + 1]]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        return np.array(seen)


class MarkovChain:
    """A finite CTMC with named, reward-annotated states.

    States keep insertion order, which fixes the row/column order of the
    generator matrix.  Parallel transitions between the same pair of
    states accumulate their rates (the usual CTMC superposition rule).

    Example:
        >>> chain = MarkovChain("pair")
        >>> chain.add_state("Ok", reward=1.0)
        >>> chain.add_state("Down", reward=0.0)
        >>> chain.add_transition("Ok", "Down", 0.001)
        >>> chain.add_transition("Down", "Ok", 0.5)
        >>> chain.generator_matrix().shape
        (2, 2)
    """

    def __init__(self, name: str = "chain") -> None:
        self.name = name
        self._states: Dict[str, State] = {}
        self._order: List[str] = []
        self._index: Dict[str, int] = {}
        self._rates: Dict[Tuple[str, str], float] = {}
        self._labels: Dict[Tuple[str, str], str] = {}
        self._arcs: Optional[ArcView] = None

    @classmethod
    def filled(
        cls,
        name: str,
        states: Mapping[str, State],
        keys: Sequence[Tuple[str, str]],
        rates: Sequence[float],
        labels: Mapping[Tuple[str, str], str],
        arcs: ArcView,
    ) -> "MarkovChain":
        """A chain over prebuilt structure, without per-arc calls.

        ``states`` (in order), ``keys`` with their accumulated
        ``rates``, and ``labels`` are what :meth:`add_state` and
        :meth:`add_transition` would have stored; ``arcs`` must be the
        view of exactly those arcs.  The chain owns fresh copies of
        every mapping, sharing only the immutable :class:`State`
        objects and the read-only arrays of ``arcs``.
        """
        chain = cls.__new__(cls)
        chain.name = name
        chain._states = dict(states)
        chain._order = list(states)
        chain._index = dict(zip(chain._order, range(len(chain._order))))
        chain._rates = dict(zip(keys, rates))
        chain._labels = dict(labels)
        chain._arcs = arcs
        return chain

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(
        self,
        name: str,
        reward: float = 1.0,
        meta: Optional[Mapping[str, object]] = None,
    ) -> State:
        """Add a state; re-adding an existing name is an error."""
        if name in self._states:
            raise ModelError(f"duplicate state {name!r} in chain {self.name!r}")
        if reward < 0:
            raise ModelError(f"state {name!r} has negative reward {reward}")
        state = State(name=name, reward=reward, meta=meta or {})
        self._states[name] = state
        self._index[name] = len(self._order)
        self._order.append(name)
        self._arcs = None
        return state

    def ensure_state(
        self, name: str, reward: float = 1.0,
        meta: Optional[Mapping[str, object]] = None,
    ) -> State:
        """Return the existing state or create it."""
        if name in self._states:
            return self._states[name]
        return self.add_state(name, reward=reward, meta=meta)

    def add_transition(
        self, source: str, target: str, rate: float, label: str = ""
    ) -> None:
        """Add a rate transition; parallel arcs accumulate."""
        source_state = self._states.get(source)
        if source_state is None:
            raise ModelError(f"unknown source state {source!r}")
        target_state = self._states.get(target)
        if target_state is None:
            raise ModelError(f"unknown target state {target!r}")
        if source == target:
            raise ModelError(f"self-loop on {source!r} is meaningless in a CTMC")
        if rate < 0:
            raise ModelError(
                f"negative rate {rate} on {source!r} -> {target!r}"
            )
        if rate != rate:
            raise ModelError(f"NaN rate on {source!r} -> {target!r}")
        if rate == 0:
            return
        # Keys reuse the chain's own name strings, so a generator that
        # formats a fresh name per arc does not keep a copy per arc.
        key = (source_state.name, target_state.name)
        self._rates[key] = self._rates.get(key, 0.0) + rate
        self._arcs = None
        if label:
            existing = self._labels.get(key)
            self._labels[key] = f"{existing} + {label}" if existing else label

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return len(self._order)

    @property
    def state_names(self) -> List[str]:
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __iter__(self) -> Iterator[State]:
        return (self._states[name] for name in self._order)

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise ModelError(
                f"chain {self.name!r} has no state {name!r}"
            ) from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(
                f"chain {self.name!r} has no state {name!r}"
            ) from None

    def transitions(self) -> List[Transition]:
        """All transitions in deterministic (source, target) order."""
        index = self._index
        ordered = sorted(
            self._rates.items(),
            key=lambda item: (index[item[0][0]], index[item[0][1]]),
        )
        return [
            Transition(src, dst, rate, self._labels.get((src, dst), ""))
            for (src, dst), rate in ordered
        ]

    def arcs(self) -> ArcView:
        """The arcs as index arrays in :meth:`transitions` order.

        Built on first use and kept until the chain next changes; the
        solver path reads this instead of building :class:`Transition`
        objects.
        """
        view = self._arcs
        if view is None:
            index = self._index
            count = len(self._rates)
            sources = np.fromiter(
                (index[src] for src, _dst in self._rates), np.intp, count
            )
            targets = np.fromiter(
                (index[dst] for _src, dst in self._rates), np.intp, count
            )
            rates = np.fromiter(self._rates.values(), float, count)
            order = np.lexsort((targets, sources))
            arrays = [sources[order], targets[order], rates[order]]
            for array in arrays:
                array.setflags(write=False)
            view = ArcView(self.n_states, *arrays)
            self._arcs = view
        return view

    def rate(self, source: str, target: str) -> float:
        """Rate of the arc ``source -> target`` (0.0 when absent)."""
        return self._rates.get((source, target), 0.0)

    @property
    def n_transitions(self) -> int:
        """Number of distinct ``(source, target)`` arcs."""
        return len(self._rates)

    def exit_rate(self, name: str) -> float:
        """Total outgoing rate of a state."""
        return sum(
            rate for (src, _dst), rate in self._rates.items() if src == name
        )

    def exit_rates(self) -> Dict[str, float]:
        """Every state's :meth:`exit_rate`, from one pass over the arcs.

        Each sum runs over the state's arcs in insertion order, exactly
        as :meth:`exit_rate` does, so the values are bit-identical.
        """
        outgoing: Dict[str, List[float]] = {name: [] for name in self._order}
        for (src, _dst), rate in self._rates.items():
            outgoing[src].append(rate)
        return {name: sum(rates) for name, rates in outgoing.items()}

    def up_states(self) -> List[str]:
        return [name for name in self._order if self._states[name].is_up]

    def down_states(self) -> List[str]:
        return [name for name in self._order if not self._states[name].is_up]

    def reward_vector(self) -> np.ndarray:
        return np.array(
            [self._states[name].reward for name in self._order], dtype=float
        )

    def generator_matrix(self) -> np.ndarray:
        """Dense infinitesimal generator Q (rows sum to zero)."""
        n = self.n_states
        q = np.zeros((n, n), dtype=float)
        view = self.arcs()
        q[view.sources, view.targets] = view.rates
        np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
        return q

    def initial_distribution(
        self, start: Optional[str] = None
    ) -> np.ndarray:
        """Point mass on ``start`` (default: the first state added)."""
        if not self._order:
            raise ModelError(f"chain {self.name!r} has no states")
        chosen = start if start is not None else self._order[0]
        p0 = np.zeros(self.n_states)
        p0[self.index(chosen)] = 1.0
        return p0

    # ------------------------------------------------------------------
    # structure checks / derived chains
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ModelError` unless the chain is a sensible CTMC.

        Checks: at least one state, at least one up state, and — unless a
        state is deliberately absorbing — every state can eventually reach
        every other (irreducibility), which steady-state solution needs.
        """
        if not self._order:
            raise ModelError(f"chain {self.name!r} has no states")
        if not self.up_states():
            raise ModelError(f"chain {self.name!r} has no up state")
        # Stored rates are positive (zero rates are dropped, negative
        # and NaN ones rejected), so a state is absorbing exactly when
        # it has no outgoing arc.
        out_degree = np.bincount(self.arcs().sources, minlength=self.n_states)
        if out_degree.all() and not self.is_irreducible():
            raise ModelError(
                f"chain {self.name!r} is reducible; steady-state "
                "probabilities would depend on the initial state"
            )

    def absorbing_states(self) -> List[str]:
        return [
            name for name, rate in self.exit_rates().items() if rate == 0.0
        ]

    def is_irreducible(self) -> bool:
        """True when the transition graph is strongly connected."""
        if self.n_states <= 1:
            return True
        view = self.arcs()
        return bool(
            view.reachable(0).all() and view.reachable(0, reverse=True).all()
        )

    def copy(self, name: Optional[str] = None) -> "MarkovChain":
        clone = MarkovChain(name or self.name)
        for state in self:
            clone.add_state(state.name, reward=state.reward, meta=state.meta)
        for (src, dst), rate in self._rates.items():
            clone.add_transition(src, dst, rate, self._labels.get((src, dst), ""))
        return clone

    def scaled(self, factor: float, name: Optional[str] = None) -> "MarkovChain":
        """A copy with every rate multiplied by ``factor`` (time rescaling)."""
        if factor <= 0:
            raise ModelError(f"scale factor must be positive, got {factor}")
        clone = MarkovChain(name or f"{self.name}*{factor:g}")
        for state in self:
            clone.add_state(state.name, reward=state.reward, meta=state.meta)
        for (src, dst), rate in self._rates.items():
            clone.add_transition(src, dst, rate * factor)
        return clone

    def __getstate__(self) -> Dict[str, object]:
        # The name -> position index and the arc view are derived from
        # ``_order`` and ``_rates``; leaving them out keeps pickles (and
        # the engine's disk cache entries) in the layout older versions
        # wrote and read.
        state = dict(self.__dict__)
        state.pop("_index", None)
        state.pop("_arcs", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._index = {name: i for i, name in enumerate(self._order)}
        self._arcs = None

    def __repr__(self) -> str:
        return (
            f"MarkovChain({self.name!r}, states={self.n_states}, "
            f"transitions={len(self._rates)})"
        )
