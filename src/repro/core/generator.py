"""Automatic generation of availability Markov models (Section 4).

Given one MG block's parameters plus the global parameters, this module
generates the block's availability CTMC:

* **Type 0** (``N == K``, no redundancy) — Figure 3 of the paper.
* **Types 1–4** (``N > K``) — one per combination of recovery/repair
  transparency; Type 3 (nontransparent recovery, transparent repair) is
  the paper's Figure 4.  States repeat per redundancy level for larger
  ``N − K``, exactly as the paper describes ("if N−K > 1, states TF1,
  AR1, PF1 and Latent1 will be repeated in the model").

A chain's states, arcs, labels and pruned set depend only on its
:func:`structure_signature`; its rates are a few scalar expressions of
the parameters.  So generation is split in two: ``_*_rates`` evaluates
those expressions into one *rate vector*, and ``_build_*`` lays out the
structure with every arc naming the vector entry (*term*) it takes.
The first chain of a signature is built that way and kept as a
:class:`ChainTemplate`; later chains of the same signature refill the
template's arcs from their own rate vector (see DESIGN.md §4).

The reconstruction choices for details the paper's figures leave
ambiguous are documented in DESIGN.md §4; every such choice is also
annotated inline below.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ModelError
from ..lru import LRU
from ..markov.chain import ArcView, MarkovChain
from .parameters import BlockParameters, GlobalParameters, Scenario

#: Memory budget of the template cache, in stored arcs.  The E10000
#: sweep block (208 states) has 516 arcs; least recently used templates
#: beyond the budget are dropped and rebuilt on their next use.
TEMPLATE_CACHE_ARCS = 65536


def classify_model_type(parameters: BlockParameters) -> int:
    """The paper's model-type number (0-4) for a block.

    Type 0: no redundancy.  For redundant blocks the type is the
    combination of Automatic Recovery Scenario and Repair Scenario:
    1 = transparent/transparent, 2 = transparent recovery with
    nontransparent repair, 3 = nontransparent recovery with transparent
    repair, 4 = nontransparent/nontransparent.
    """
    if not parameters.is_redundant:
        return 0
    recovery_transparent = parameters.recovery is Scenario.TRANSPARENT
    repair_transparent = parameters.repair is Scenario.TRANSPARENT
    if recovery_transparent and repair_transparent:
        return 1
    if recovery_transparent:
        return 2
    if repair_transparent:
        return 3
    return 4


class StructureSignature(NamedTuple):
    """Everything a generated chain's structure depends on.

    Two parameter sets with equal signatures give chains with the same
    states, arcs, labels and pruned set whenever every rate their arcs
    take is positive.  The flags are the zero patterns the generator
    branches on.
    """

    model_type: int
    quantity: int
    min_required: int
    latent: bool  #: Plf > 0
    spf: bool  #: Pspf > 0
    misdiagnosis: bool  #: Pcd < 1
    transients: bool  #: transient rate > 0
    permanent: bool  #: permanent rate > 0
    response: bool  #: Tresp above the immediate-service cut-off


def _response_hours(parameters: BlockParameters) -> float:
    # A sub-nanosecond response time is an immediate-service model;
    # treating it as zero avoids inverting a subnormal into overflow.
    tresp = parameters.service_response_hours
    return 0.0 if tresp < 1e-9 else tresp


def structure_signature(parameters: BlockParameters) -> StructureSignature:
    """The key of a block's chain template."""
    return StructureSignature(
        classify_model_type(parameters),
        parameters.quantity,
        parameters.min_required,
        parameters.p_latent_fault > 0.0,
        parameters.p_spf > 0.0,
        parameters.p_correct_diagnosis < 1.0,
        parameters.transient_rate > 0.0,
        parameters.permanent_rate > 0.0,
        _response_hours(parameters) > 0.0,
    )


def generate_block_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Generate the availability CTMC for one MG block."""
    return _TEMPLATES.chain(parameters, global_parameters or GlobalParameters())


def generate_type0_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Markov Model Type 0 for a block with ``N == K``."""
    if parameters.is_redundant:
        raise ModelError(
            f"{parameters.name}: Type 0 requires N == K, "
            f"got N={parameters.quantity}, K={parameters.min_required}"
        )
    return generate_block_chain(parameters, global_parameters)


def generate_redundant_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Markov Model Types 1-4 for a block with ``N > K``."""
    if not parameters.is_redundant:
        raise ModelError(
            f"{parameters.name}: redundant generation requires N > K, "
            f"got N={parameters.quantity}, K={parameters.min_required}"
        )
    return generate_block_chain(parameters, global_parameters)


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
class _Recorder:
    """Adds a chain's arcs from a rate vector, noting the terms read.

    Arcs go through :meth:`MarkovChain.add_transition`, so a zero rate
    is dropped and a negative or NaN one rejected exactly as for any
    chain.  ``read`` lists every term an arc or a rate test consulted.
    """

    def __init__(self, chain: MarkovChain, rates: List[float]) -> None:
        self.chain = chain
        self.rates = rates
        self.read: List[int] = []
        self.arcs: List[Tuple[str, str, int]] = []

    def rate(self, term: int) -> float:
        self.read.append(term)
        return self.rates[term]

    def arc(self, source: str, target: str, term: int, label: str) -> None:
        self.read.append(term)
        self.arcs.append((source, target, term))
        self.chain.add_transition(source, target, self.rates[term], label)


class ChainTemplate:
    """One chain structure, refilled with each parameter set's rates.

    Holds the states (:class:`State` objects, read-only down to their
    ``meta``, so every chain filled from it can share them), the
    arc keys in insertion order with their joined labels, the term
    each arc's first contribution takes plus the terms of any parallel
    contributions (summed in the order the generator added them), and
    the index arrays of the sorted :class:`ArcView`.  The pruning and
    validation that built it are not repeated: with every rate
    positive they depend on the structure alone.  The arrays are laid
    out on the first fill, so a signature used once costs no more than
    its build.
    """

    def __init__(
        self,
        chain: MarkovChain,
        arcs: List[Tuple[str, str, int]],
        read: np.ndarray,
    ) -> None:
        self.states = dict(chain._states)
        self.keys = tuple(chain._rates)
        self.labels = dict(chain._labels)
        self.read = read
        self._arcs = arcs
        self._layout: Optional[Tuple] = None

    @property
    def n_arcs(self) -> int:
        return len(self.keys)

    def _lay_out(self) -> Tuple:
        """(first terms, later rounds, sort order, sources, targets)."""
        layout = self._layout
        if layout is not None:
            return layout
        position = {key: i for i, key in enumerate(self.keys)}
        first: List[int] = [0] * len(self.keys)
        seen = [0] * len(self.keys)
        later: List[Tuple[List[int], List[int]]] = []
        for source, target, term in self._arcs:
            arc = position.get((source, target))
            if arc is None:
                continue  # pruned with its unreachable endpoint
            rank = seen[arc]
            seen[arc] += 1
            if rank == 0:
                first[arc] = term
                continue
            if len(later) < rank:
                later.append(([], []))
            later[rank - 1][0].append(arc)
            later[rank - 1][1].append(term)
        index = {name: i for i, name in enumerate(self.states)}
        sources = np.fromiter(
            (index[src] for src, _dst in self.keys), np.intp, len(self.keys)
        )
        targets = np.fromiter(
            (index[dst] for _src, dst in self.keys), np.intp, len(self.keys)
        )
        order = np.lexsort((targets, sources))
        sources, targets = sources[order], targets[order]
        sources.setflags(write=False)
        targets.setflags(write=False)
        layout = (
            np.asarray(first, dtype=np.intp),
            # Round r adds every arc's (r+1)-th contribution; no arc
            # repeats within a round, so sums run in generation order.
            [
                (np.asarray(arcs, dtype=np.intp),
                 np.asarray(terms, dtype=np.intp))
                for arcs, terms in later
            ],
            order, sources, targets,
        )
        self._layout = layout
        return layout

    def fill(self, name: str, rates: np.ndarray) -> Optional[MarkovChain]:
        """The chain at ``rates``, or None unless every term read is > 0.

        A zero, negative or NaN term would drop or reject an arc, so
        such a point must be generated afresh.
        """
        if not (rates[self.read] > 0.0).all():
            return None
        first, later, order, sources, targets = self._lay_out()
        values = rates[first]
        for arcs, terms in later:
            values[arcs] += rates[terms]
        ordered = values[order]
        ordered.setflags(write=False)
        view = ArcView(len(self.states), sources, targets, ordered)
        return MarkovChain.filled(
            name, self.states, self.keys, values.tolist(), self.labels, view
        )


class ChainTemplates:
    """A bounded, memory-only cache of chain templates by signature.

    :meth:`chain` fills the template of the block's signature, and
    builds (and keeps) one on a miss.  A parameter set with a zero,
    negative or NaN rate gets a fresh build, which drops or rejects
    that arc as :meth:`MarkovChain.add_transition` always does; such a
    build is never kept as a template.
    """

    def __init__(self) -> None:
        self._entries = LRU(
            TEMPLATE_CACHE_ARCS, weigh=lambda template: max(1, template.n_arcs)
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def weight(self) -> int:
        """Arcs currently held (``TEMPLATE_CACHE_ARCS`` bounds it)."""
        return self._entries.weight

    def chain(
        self, parameters: BlockParameters, global_parameters: GlobalParameters
    ) -> MarkovChain:
        signature = structure_signature(parameters)
        rates_of, build = (
            (_redundant_rates, _build_redundant) if signature.model_type
            else (_type0_rates, _build_type0)
        )
        rates = rates_of(parameters, global_parameters, signature)
        name = f"{parameters.name}#type{signature.model_type}"
        template = self._entries.get(signature)
        if template is not None:
            filled = template.fill(name, rates)
            if filled is not None:
                return filled
        chain = MarkovChain(name)
        recorder = _Recorder(chain, rates.tolist())
        build(chain, recorder, signature)
        if signature.model_type:
            chain = _prune_unreachable(chain, "Ok")
        chain.validate()
        read = np.array(sorted(set(recorder.read)), dtype=np.intp)
        if template is None and (rates[read] > 0.0).all():
            self._entries.put(
                signature, ChainTemplate(chain, recorder.arcs, read)
            )
        return chain


# ----------------------------------------------------------------------
# Type 0: required, non-redundant component (paper Figure 3)
# ----------------------------------------------------------------------
_T0_PERMANENT, _T0_SERVICE, _T0_MISDIAGNOSIS, _T0_REFIX, _T0_REPAIR = range(5)
_T0_TRANSIENT, _T0_REBOOT = 5, 6


def _type0_rates(
    parameters: BlockParameters,
    g: GlobalParameters,
    signature: StructureSignature,
) -> np.ndarray:
    """The Type 0 rate vector; terms no arc takes stay 0."""
    n = parameters.quantity
    lam_p = n * parameters.permanent_rate
    lam_t = n * parameters.transient_rate
    mttr = parameters.mttr_hours
    pcd = parameters.p_correct_diagnosis
    rates = [lam_p, 0.0, 0.0, 0.0, 0.0, lam_t, 0.0]
    if signature.permanent:
        if signature.response:
            rates[_T0_SERVICE] = 1.0 / _response_hours(parameters)
        if signature.misdiagnosis:
            rates[_T0_MISDIAGNOSIS] = (1.0 - pcd) / mttr
            rates[_T0_REFIX] = 1.0 / g.mttrfid_hours
        rates[_T0_REPAIR] = pcd / mttr
    if signature.transients:
        rates[_T0_REBOOT] = 1.0 / g.reboot_hours
    return np.array(rates)


def _build_type0(
    chain: MarkovChain, recorder: _Recorder, signature: StructureSignature
) -> None:
    """Markov Model Type 0 for a block with ``N == K``.

    A permanent fault on any of the N required units takes the system
    down immediately; an immediate service call is placed (logistic time
    is just Tresp), then the repair (3-part MTTR) runs, with imperfect
    repair routed through a ServiceError state (MTTRFID).  Transient
    faults are cleared by a system reboot (Tboot).
    """
    arc = recorder.arc
    chain.add_state("Ok", reward=1.0, meta={"level": 0, "kind": "base"})

    if signature.permanent:
        if signature.response:
            chain.add_state(
                "Logistic", reward=0.0, meta={"level": 1, "kind": "logistic"}
            )
            repair_entry = "Logistic"
        else:
            repair_entry = "Repair"
        chain.add_state(
            "Repair", reward=0.0, meta={"level": 1, "kind": "repair"}
        )
        arc("Ok", repair_entry, _T0_PERMANENT, "permanent fault")
        if signature.response:
            arc("Logistic", "Repair", _T0_SERVICE, "service arrives")
        if signature.misdiagnosis:
            chain.add_state(
                "ServiceError",
                reward=0.0,
                meta={"level": 1, "kind": "service-error"},
            )
            arc("Repair", "ServiceError", _T0_MISDIAGNOSIS,
                "incorrect diagnosis")
            arc("ServiceError", "Ok", _T0_REFIX,
                "repair from incorrect diagnosis")
        arc("Repair", "Ok", _T0_REPAIR, "correct repair")

    if signature.transients:
        chain.add_state(
            "Reboot", reward=0.0, meta={"level": 0, "kind": "reboot"}
        )
        arc("Ok", "Reboot", _T0_TRANSIENT, "transient fault")
        arc("Reboot", "Ok", _T0_REBOOT, "system reboot")


# ----------------------------------------------------------------------
# Types 1-4: redundant component (paper Figure 4 is Type 3, N=2, K=1)
# ----------------------------------------------------------------------
# Level-independent terms, then six per-level blocks: detected,
# detected * (1 - Pspf), detected * Pspf and latent for levels
# 0..D-1, transient and transient * Pspf for levels 0..D.
(
    _DELTA, _DELTA_OK, _DELTA_SPF, _ALPHA_OK, _ALPHA_SPF, _SIGMA,
    _MU_DEFERRED_OK, _MU_DEFERRED_ERROR, _MU_IMMEDIATE_OK,
    _MU_IMMEDIATE_ERROR, _RHO, _EPS, _BOUNDARY,
) = range(13)
_LEVEL_TERMS = 13


def _redundant_rates(
    parameters: BlockParameters,
    g: GlobalParameters,
    signature: StructureSignature,
) -> np.ndarray:
    """The Types 1-4 rate vector.

    Each term is the generator's expression with its operands in the
    same order (``active * lam_p * (1 - plf)`` multiplies left to
    right), evaluated in Python floats: a short list beats array
    arithmetic on the few levels a block has.
    """
    n = parameters.quantity
    depth = parameters.redundancy_depth  # D = N - K
    lam_p = parameters.permanent_rate
    lam_t = parameters.transient_rate
    plf = parameters.p_latent_fault
    pspf = parameters.p_spf
    pcd = parameters.p_correct_diagnosis
    alpha = 1.0 / parameters.ar_time_hours
    sigma = 1.0 / parameters.spf_recovery_hours
    delta = 1.0 / parameters.mttdlf_hours
    rho = 1.0 / parameters.reintegration_hours
    eps = 1.0 / g.mttrfid_hours
    deferred = g.mttm_hours + parameters.service_response_hours
    mu_deferred = 1.0 / (deferred + parameters.mttr_hours)
    mu_immediate = 1.0 / (
        parameters.service_response_hours + parameters.mttr_hours
    )
    # Units still active at levels 0..D.
    active = [float(n - level) for level in range(depth + 1)]
    detected = [units * lam_p * (1.0 - plf) for units in active[:depth]]
    transient = [units * lam_t for units in active]
    return np.array([
        delta, delta * (1.0 - pspf), delta * pspf,
        alpha * (1.0 - pspf), alpha * pspf, sigma,
        mu_deferred * pcd, mu_deferred * (1.0 - pcd),
        mu_immediate * pcd, mu_immediate * (1.0 - pcd),
        rho, eps, (n - depth) * lam_p,
        *detected,
        *[rate * (1.0 - pspf) for rate in detected],
        *[rate * pspf for rate in detected],
        *[units * lam_p * plf for units in active[:depth]],
        *transient,
        *[rate * pspf for rate in transient],
    ])


def _build_redundant(
    chain: MarkovChain, recorder: _Recorder, signature: StructureSignature
) -> None:
    """Markov Model Types 1-4 for a block with ``N > K``.

    Level ``j`` counts permanently-faulty units.  ``PF1..PF{D}`` are
    degraded up states, ``PF{D+1}`` is the system-down state, and the
    AR / SPF / Latent / TF / ServiceError / Reint states repeat per
    level as Section 4 of the paper describes.  States that cannot be
    reached under the given parameters (e.g. SPF with Pspf = 0) are not
    generated, matching the "internal matrix representation" the tool
    builds.
    """
    depth = signature.quantity - signature.min_required
    detected_at, detected_ok_at, detected_spf_at, latent_at = (
        _LEVEL_TERMS + block * depth for block in range(4)
    )
    transient_at = _LEVEL_TERMS + 4 * depth
    transient_spf_at = transient_at + depth + 1
    nontransparent_recovery = signature.model_type in (3, 4)
    nontransparent_repair = signature.model_type in (2, 4)
    arc, rate = recorder.arc, recorder.rate

    def base(level: int) -> str:
        return "Ok" if level == 0 else f"PF{level}"

    # -- states, level by level, in a stable human-readable order -------
    chain.add_state("Ok", reward=1.0, meta={"level": 0, "kind": "base"})
    has_transients = signature.transients
    if has_transients and nontransparent_recovery:
        chain.add_state(
            "TF1", reward=0.0, meta={"level": 0, "kind": "transient-ar"}
        )
    for j in range(1, depth + 1):
        if signature.latent:
            chain.add_state(
                f"Latent{j}", reward=1.0, meta={"level": j, "kind": "latent"}
            )
        if nontransparent_recovery:
            chain.add_state(
                f"AR{j}", reward=0.0, meta={"level": j, "kind": "ar"}
            )
        if signature.spf:
            chain.add_state(
                f"SPF{j}", reward=0.0, meta={"level": j, "kind": "spf"}
            )
        chain.add_state(
            f"PF{j}", reward=1.0, meta={"level": j, "kind": "base"}
        )
        if has_transients and nontransparent_recovery:
            chain.add_state(
                f"TF{j + 1}",
                reward=0.0,
                meta={"level": j, "kind": "transient-ar"},
            )
        if signature.misdiagnosis:
            chain.add_state(
                f"ServiceError{j}",
                reward=0.0,
                meta={"level": j, "kind": "service-error"},
            )
        if nontransparent_repair:
            chain.add_state(
                f"Reint{j}", reward=0.0, meta={"level": j, "kind": "reint"}
            )
    down_level = depth + 1
    chain.add_state(
        f"PF{down_level}", reward=0.0, meta={"level": down_level, "kind": "down"}
    )
    if signature.misdiagnosis:
        chain.add_state(
            f"ServiceError{down_level}",
            reward=0.0,
            meta={"level": down_level, "kind": "service-error"},
        )
    if nontransparent_repair:
        chain.add_state(
            f"Reint{down_level}",
            reward=0.0,
            meta={"level": down_level, "kind": "reint"},
        )

    # -- permanent-fault departures from up states -----------------------
    # With no permanent faults (or no latent ones) these rates are 0
    # or NaN, so the zero-pattern flags skip them without a read.
    def add_permanent_arcs(source: str, level: int) -> None:
        """Fault arcs out of an up state sitting at ``level`` faults."""
        if not signature.permanent:
            return
        if level < depth:
            if rate(detected_at + level) > 0.0:
                if nontransparent_recovery:
                    arc(source, f"AR{level + 1}", detected_at + level,
                        "detected permanent fault")
                else:
                    arc(source, f"PF{level + 1}", detected_ok_at + level,
                        "transparent recovery")
                    if signature.spf:
                        arc(source, f"SPF{level + 1}",
                            detected_spf_at + level, "recovery failure")
            if signature.latent and rate(latent_at + level) > 0.0:
                arc(source, f"Latent{level + 1}", latent_at + level,
                    "latent permanent fault")
        else:
            # Boundary: the next permanent fault takes the system down;
            # no AR can save it (Figure 4 routes PF1 -> PF2 directly).
            if rate(_BOUNDARY) > 0.0:
                arc(source, f"PF{down_level}", _BOUNDARY,
                    "fault beyond redundancy")

    def add_transient_arcs(source: str, level: int) -> None:
        """Transient-fault arcs out of an up state at ``level`` faults."""
        if not has_transients:
            return
        if rate(transient_at + level) <= 0.0:
            return
        if nontransparent_recovery:
            arc(source, f"TF{level + 1}", transient_at + level,
                "transient fault")
        elif signature.spf:
            # Transparent recovery: a successful AR is invisible; only
            # the Pspf failure path materialises.  The corrupted unit
            # then needs a service action (DESIGN.md choice 1).
            arc(source, f"SPF{max(level, 1)}", transient_spf_at + level,
                "transient recovery failure")

    add_permanent_arcs("Ok", 0)
    add_transient_arcs("Ok", 0)
    for j in range(1, depth + 1):
        add_permanent_arcs(f"PF{j}", j)
        add_transient_arcs(f"PF{j}", j)
        if signature.latent:
            # Second faults leave Latent exactly like PF (paper:
            # "Latent1 -> PF2 / TF2").
            add_permanent_arcs(f"Latent{j}", j)
            add_transient_arcs(f"Latent{j}", j)
            # Detection of the latent fault triggers the recovery event.
            if nontransparent_recovery:
                arc(f"Latent{j}", f"AR{j}", _DELTA, "latent fault detected")
            else:
                arc(f"Latent{j}", f"PF{j}", _DELTA_OK,
                    "latent fault detected")
                if signature.spf:
                    arc(f"Latent{j}", f"SPF{j}", _DELTA_SPF,
                        "recovery failure")

    # -- recovery machinery ----------------------------------------------
    if nontransparent_recovery:
        for j in range(1, depth + 1):
            arc(f"AR{j}", f"PF{j}", _ALPHA_OK, "AR succeeds")
            if signature.spf:
                arc(f"AR{j}", f"SPF{j}", _ALPHA_SPF, "AR fails (SPF)")
        if has_transients:
            for j in range(0, depth + 1):
                name = f"TF{j + 1}"
                arc(name, base(j), _ALPHA_OK, "AR clears fault")
                if signature.spf:
                    arc(name, f"SPF{max(j, 1)}", _ALPHA_SPF,
                        "AR fails (SPF)")
    if signature.spf:
        for j in range(1, depth + 1):
            arc(f"SPF{j}", f"PF{j}", _SIGMA, "SPF recovery")

    # -- repair machinery --------------------------------------------------
    for j in range(1, down_level + 1):
        source = f"PF{j}"
        deferred = j <= depth
        repaired = _MU_DEFERRED_OK if deferred else _MU_IMMEDIATE_OK
        success_target = base(j - 1)
        if nontransparent_repair:
            arc(source, f"Reint{j}", repaired, "repair done")
            arc(f"Reint{j}", success_target, _RHO, "reintegration")
        else:
            arc(source, success_target, repaired, "transparent repair")
        if signature.misdiagnosis:
            arc(source, f"ServiceError{j}",
                _MU_DEFERRED_ERROR if deferred else _MU_IMMEDIATE_ERROR,
                "incorrect diagnosis")
            arc(f"ServiceError{j}", success_target, _EPS,
                "repair from incorrect diagnosis")


#: The process-wide template cache behind :func:`generate_block_chain`.
_TEMPLATES = ChainTemplates()


def _prune_unreachable(chain: MarkovChain, start: str) -> MarkovChain:
    """Drop states unreachable from ``start`` (defensive; generation
    above only creates reachable states for sane parameters)."""
    reached = chain.arcs().reachable(chain.index(start))
    if reached.all():
        return chain
    pruned = MarkovChain(chain.name)
    for state, keep in zip(chain, reached.tolist()):
        if keep:
            pruned.add_state(state.name, reward=state.reward, meta=state.meta)
    for transition in chain.transitions():
        if transition.source in pruned and transition.target in pruned:
            pruned.add_transition(
                transition.source,
                transition.target,
                transition.rate,
                transition.label,
            )
    return pruned
