"""Automatic generation of availability Markov models (Section 4).

Given one MG block's parameters plus the global parameters, this module
generates the block's availability CTMC:

* **Type 0** (``N == K``, no redundancy) — Figure 3 of the paper.
* **Types 1–4** (``N > K``) — one per combination of recovery/repair
  transparency; Type 3 (nontransparent recovery, transparent repair) is
  the paper's Figure 4.  States repeat per redundancy level for larger
  ``N − K``, exactly as the paper describes ("if N−K > 1, states TF1,
  AR1, PF1 and Latent1 will be repeated in the model").

The reconstruction choices for details the paper's figures leave
ambiguous are documented in DESIGN.md §4; every such choice is also
annotated inline below.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ModelError
from ..markov.chain import MarkovChain
from .parameters import BlockParameters, GlobalParameters, Scenario


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


def generate_block_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Generate the availability CTMC for one MG block."""
    global_parameters = global_parameters or GlobalParameters()
    if parameters.is_redundant:
        return generate_redundant_chain(parameters, global_parameters)
    return generate_type0_chain(parameters, global_parameters)


# ----------------------------------------------------------------------
# Type 0: required, non-redundant component (paper Figure 3)
# ----------------------------------------------------------------------
def generate_type0_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Markov Model Type 0 for a block with ``N == K``.

    A permanent fault on any of the N required units takes the system
    down immediately; an immediate service call is placed (logistic time
    is just Tresp), then the repair (3-part MTTR) runs, with imperfect
    repair routed through a ServiceError state (MTTRFID).  Transient
    faults are cleared by a system reboot (Tboot).
    """
    g = global_parameters or GlobalParameters()
    if parameters.is_redundant:
        raise ModelError(
            f"{parameters.name}: Type 0 requires N == K, "
            f"got N={parameters.quantity}, K={parameters.min_required}"
        )
    n = parameters.quantity
    lam_p = n * parameters.permanent_rate
    lam_t = n * parameters.transient_rate
    mttr = parameters.mttr_hours
    # A sub-nanosecond response time is an immediate-service model;
    # treating it as zero avoids inverting a subnormal into overflow.
    tresp = parameters.service_response_hours
    if tresp < 1e-9:
        tresp = 0.0
    pcd = parameters.p_correct_diagnosis

    chain = MarkovChain(f"{parameters.name}#type0")
    chain.add_state("Ok", reward=1.0, meta={"level": 0, "kind": "base"})

    if lam_p > 0.0:
        if tresp > 0.0:
            chain.add_state(
                "Logistic", reward=0.0, meta={"level": 1, "kind": "logistic"}
            )
            repair_entry = "Logistic"
        else:
            repair_entry = "Repair"
        chain.add_state(
            "Repair", reward=0.0, meta={"level": 1, "kind": "repair"}
        )
        chain.add_transition("Ok", repair_entry, lam_p, label="permanent fault")
        if tresp > 0.0:
            chain.add_transition(
                "Logistic", "Repair", 1.0 / tresp, label="service arrives"
            )
        if pcd < 1.0:
            chain.add_state(
                "ServiceError",
                reward=0.0,
                meta={"level": 1, "kind": "service-error"},
            )
            chain.add_transition(
                "Repair", "ServiceError", (1.0 - pcd) / mttr,
                label="incorrect diagnosis",
            )
            chain.add_transition(
                "ServiceError", "Ok", 1.0 / g.mttrfid_hours,
                label="repair from incorrect diagnosis",
            )
        chain.add_transition(
            "Repair", "Ok", pcd / mttr, label="correct repair"
        )

    if lam_t > 0.0:
        chain.add_state(
            "Reboot", reward=0.0, meta={"level": 0, "kind": "reboot"}
        )
        chain.add_transition("Ok", "Reboot", lam_t, label="transient fault")
        chain.add_transition(
            "Reboot", "Ok", 1.0 / g.reboot_hours, label="system reboot"
        )

    chain.validate()
    return chain


# ----------------------------------------------------------------------
# Types 1-4: redundant component (paper Figure 4 is Type 3, N=2, K=1)
# ----------------------------------------------------------------------
def generate_redundant_chain(
    parameters: BlockParameters,
    global_parameters: Optional[GlobalParameters] = None,
) -> MarkovChain:
    """Markov Model Types 1-4 for a block with ``N > K``.

    Level ``j`` counts permanently-faulty units.  ``PF1..PF{D}`` are
    degraded up states, ``PF{D+1}`` is the system-down state, and the
    AR / SPF / Latent / TF / ServiceError / Reint states repeat per
    level as Section 4 of the paper describes.  States that cannot be
    reached under the given parameters (e.g. SPF with Pspf = 0) are not
    generated, matching the "internal matrix representation" the tool
    builds.
    """
    g = global_parameters or GlobalParameters()
    if not parameters.is_redundant:
        raise ModelError(
            f"{parameters.name}: redundant generation requires N > K, "
            f"got N={parameters.quantity}, K={parameters.min_required}"
        )
    model_type = classify_model_type(parameters)
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

    nontransparent_recovery = parameters.recovery is Scenario.NONTRANSPARENT
    nontransparent_repair = parameters.repair is Scenario.NONTRANSPARENT

    chain = MarkovChain(f"{parameters.name}#type{model_type}")

    def base(level: int) -> str:
        return "Ok" if level == 0 else f"PF{level}"

    # -- states, level by level, in a stable human-readable order -------
    chain.add_state("Ok", reward=1.0, meta={"level": 0, "kind": "base"})
    has_transients = lam_t > 0.0
    if has_transients and nontransparent_recovery:
        chain.add_state(
            "TF1", reward=0.0, meta={"level": 0, "kind": "transient-ar"}
        )
    for j in range(1, depth + 1):
        if plf > 0.0:
            chain.add_state(
                f"Latent{j}", reward=1.0, meta={"level": j, "kind": "latent"}
            )
        if nontransparent_recovery:
            chain.add_state(
                f"AR{j}", reward=0.0, meta={"level": j, "kind": "ar"}
            )
        if pspf > 0.0:
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
        if pcd < 1.0:
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
    if pcd < 1.0:
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
    def add_permanent_arcs(source: str, level: int) -> None:
        """Fault arcs out of an up state sitting at ``level`` faults."""
        active = n - level
        if level < depth:
            detected = active * lam_p * (1.0 - plf)
            if detected > 0.0:
                if nontransparent_recovery:
                    chain.add_transition(
                        source, f"AR{level + 1}", detected,
                        label="detected permanent fault",
                    )
                else:
                    chain.add_transition(
                        source, f"PF{level + 1}", detected * (1.0 - pspf),
                        label="transparent recovery",
                    )
                    if pspf > 0.0:
                        chain.add_transition(
                            source, f"SPF{level + 1}", detected * pspf,
                            label="recovery failure",
                        )
            latent = active * lam_p * plf
            if latent > 0.0:
                chain.add_transition(
                    source, f"Latent{level + 1}", latent,
                    label="latent permanent fault",
                )
        else:
            # Boundary: the next permanent fault takes the system down;
            # no AR can save it (Figure 4 routes PF1 -> PF2 directly).
            boundary = active * lam_p
            if boundary > 0.0:
                chain.add_transition(
                    source, f"PF{down_level}", boundary,
                    label="fault beyond redundancy",
                )

    def add_transient_arcs(source: str, level: int) -> None:
        """Transient-fault arcs out of an up state at ``level`` faults."""
        if not has_transients:
            return
        rate = (n - level) * lam_t
        if rate <= 0.0:
            return
        if nontransparent_recovery:
            chain.add_transition(
                source, f"TF{level + 1}", rate, label="transient fault"
            )
        elif pspf > 0.0:
            # Transparent recovery: a successful AR is invisible; only
            # the Pspf failure path materialises.  The corrupted unit
            # then needs a service action (DESIGN.md choice 1).
            chain.add_transition(
                source, f"SPF{max(level, 1)}", rate * pspf,
                label="transient recovery failure",
            )

    add_permanent_arcs("Ok", 0)
    add_transient_arcs("Ok", 0)
    for j in range(1, depth + 1):
        add_permanent_arcs(f"PF{j}", j)
        add_transient_arcs(f"PF{j}", j)
        if plf > 0.0:
            # Second faults leave Latent exactly like PF (paper:
            # "Latent1 -> PF2 / TF2").
            add_permanent_arcs(f"Latent{j}", j)
            add_transient_arcs(f"Latent{j}", j)
            # Detection of the latent fault triggers the recovery event.
            if nontransparent_recovery:
                chain.add_transition(
                    f"Latent{j}", f"AR{j}", delta, label="latent fault detected"
                )
            else:
                chain.add_transition(
                    f"Latent{j}", f"PF{j}", delta * (1.0 - pspf),
                    label="latent fault detected",
                )
                if pspf > 0.0:
                    chain.add_transition(
                        f"Latent{j}", f"SPF{j}", delta * pspf,
                        label="recovery failure",
                    )

    # -- recovery machinery ----------------------------------------------
    if nontransparent_recovery:
        for j in range(1, depth + 1):
            chain.add_transition(
                f"AR{j}", f"PF{j}", alpha * (1.0 - pspf), label="AR succeeds"
            )
            if pspf > 0.0:
                chain.add_transition(
                    f"AR{j}", f"SPF{j}", alpha * pspf, label="AR fails (SPF)"
                )
        if has_transients:
            for j in range(0, depth + 1):
                name = f"TF{j + 1}"
                chain.add_transition(
                    name, base(j), alpha * (1.0 - pspf), label="AR clears fault"
                )
                if pspf > 0.0:
                    chain.add_transition(
                        name, f"SPF{max(j, 1)}", alpha * pspf,
                        label="AR fails (SPF)",
                    )
    if pspf > 0.0:
        for j in range(1, depth + 1):
            chain.add_transition(
                f"SPF{j}", f"PF{j}", sigma, label="SPF recovery"
            )

    # -- repair machinery --------------------------------------------------
    for j in range(1, down_level + 1):
        source = f"PF{j}"
        rate = mu_deferred if j <= depth else mu_immediate
        success_target = base(j - 1)
        if nontransparent_repair:
            chain.add_transition(
                source, f"Reint{j}", rate * pcd, label="repair done"
            )
            chain.add_transition(
                f"Reint{j}", success_target, rho, label="reintegration"
            )
        else:
            chain.add_transition(
                source, success_target, rate * pcd, label="transparent repair"
            )
        if pcd < 1.0:
            chain.add_transition(
                source, f"ServiceError{j}", rate * (1.0 - pcd),
                label="incorrect diagnosis",
            )
            chain.add_transition(
                f"ServiceError{j}", success_target, eps,
                label="repair from incorrect diagnosis",
            )

    pruned = _prune_unreachable(chain, "Ok")
    pruned.validate()
    return pruned


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
