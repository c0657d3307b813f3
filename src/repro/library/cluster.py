"""Primary/standby cluster model — the paper's "work in progress".

Section 2: "Model generation for the primary standby and primary
secondary (e.g., cluster) architecture is the work in progress."  This
module implements that extension: an asymmetric two-node cluster whose
nodes are *not* interchangeable load-sharing units (so the symmetric
N/K generator does not apply), generated directly as a Markov chain.

States:

* ``Ok`` (up) — primary serving, standby healthy.
* ``Failover`` (down) — primary faulted, service moving to the standby.
* ``StandbyOnly`` (up) — serving on the standby, old primary in repair.
* ``PrimaryOnly`` (up) — standby faulted, primary still serving.
* ``ManualRecovery`` (down) — failover failed; operator intervention.
* ``AllDown`` (down) — both nodes faulted; emergency repair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ParameterError
from ..markov.chain import MarkovChain
from ..markov.rewards import steady_state, steady_state_availability
from ..units import minutes


@dataclass(frozen=True)
class ClusterParameters:
    """Engineering parameters for a primary/standby pair.

    Attributes:
        node_mtbf_hours: Per-node failure MTBF (any failure needing a
            node-level repair; transient node panics fold in here when
            they force a failover).
        failover_minutes: Automatic failover duration (downtime).
        p_failover_success: Probability the automatic failover works.
        manual_recovery_hours: Mean operator recovery time when the
            failover fails (split-brain cleanup, manual restart).
        node_repair_hours: Mean logistic + hands-on repair of a faulted
            node while the cluster still serves on the other node.
        emergency_repair_hours: Mean repair when both nodes are down
            (immediate service call).
    """

    node_mtbf_hours: float = 10_000.0
    failover_minutes: float = 3.0
    p_failover_success: float = 0.95
    manual_recovery_hours: float = 2.0
    node_repair_hours: float = 12.0
    emergency_repair_hours: float = 8.0

    def __post_init__(self) -> None:
        if self.node_mtbf_hours <= 0:
            raise ParameterError(
                f"node MTBF must be positive, got {self.node_mtbf_hours}"
            )
        if self.failover_minutes <= 0:
            raise ParameterError(
                f"failover time must be positive, got {self.failover_minutes}"
            )
        if not 0.0 <= self.p_failover_success <= 1.0:
            raise ParameterError(
                "failover success probability must lie in [0, 1], "
                f"got {self.p_failover_success}"
            )
        for label, value in (
            ("manual recovery time", self.manual_recovery_hours),
            ("node repair time", self.node_repair_hours),
            ("emergency repair time", self.emergency_repair_hours),
        ):
            if value <= 0:
                raise ParameterError(f"{label} must be positive, got {value}")

    def with_changes(self, **changes: object) -> "ClusterParameters":
        return replace(self, **changes)


def cluster_chain(parameters: ClusterParameters) -> MarkovChain:
    """Generate the primary/standby availability chain."""
    lam = 1.0 / parameters.node_mtbf_hours
    fo = 1.0 / minutes(parameters.failover_minutes)
    p_ok = parameters.p_failover_success
    manual = 1.0 / parameters.manual_recovery_hours
    repair = 1.0 / parameters.node_repair_hours
    emergency = 1.0 / parameters.emergency_repair_hours

    chain = MarkovChain("cluster#primary-standby")
    chain.add_state("Ok", reward=1.0, meta={"kind": "base"})
    chain.add_state("Failover", reward=0.0, meta={"kind": "failover"})
    chain.add_state("StandbyOnly", reward=1.0, meta={"kind": "degraded"})
    chain.add_state("PrimaryOnly", reward=1.0, meta={"kind": "degraded"})
    chain.add_state("ManualRecovery", reward=0.0, meta={"kind": "manual"})
    chain.add_state("AllDown", reward=0.0, meta={"kind": "down"})

    chain.add_transition("Ok", "Failover", lam, label="primary fault")
    chain.add_transition("Ok", "PrimaryOnly", lam, label="standby fault")
    chain.add_transition(
        "Failover", "StandbyOnly", fo * p_ok, label="failover succeeds"
    )
    if p_ok < 1.0:
        chain.add_transition(
            "Failover", "ManualRecovery", fo * (1.0 - p_ok),
            label="failover fails",
        )
        chain.add_transition(
            "ManualRecovery", "StandbyOnly", manual, label="manual restart"
        )
    chain.add_transition(
        "StandbyOnly", "Ok", repair, label="old primary repaired"
    )
    chain.add_transition(
        "PrimaryOnly", "Ok", repair, label="standby repaired"
    )
    chain.add_transition(
        "StandbyOnly", "AllDown", lam, label="surviving node faults"
    )
    chain.add_transition(
        "PrimaryOnly", "AllDown", lam, label="surviving node faults"
    )
    chain.add_transition(
        "AllDown", "PrimaryOnly", emergency, label="one node restored"
    )
    chain.validate()
    return chain


def cluster_availability(parameters: ClusterParameters) -> float:
    """Steady-state availability of the primary/standby pair."""
    return steady_state_availability(cluster_chain(parameters))


def secondary_cluster_chain(
    parameters: ClusterParameters,
    degraded_capacity: float = 0.5,
) -> MarkovChain:
    """Primary/secondary (active-active) cluster chain.

    Both nodes serve load ("primary secondary (e.g., cluster)" in the
    paper's Section 2).  Either node's failure triggers a failover of
    its share, so the failover hazard is ``2 * lam`` from the
    all-up state; single-node operation is an *up* state that delivers
    only ``degraded_capacity`` of the service (a performability
    reward), making the chain a capacity model as well as an
    availability model.
    """
    if not 0.0 < degraded_capacity <= 1.0:
        raise ParameterError(
            f"degraded capacity must lie in (0, 1], got {degraded_capacity}"
        )
    lam = 1.0 / parameters.node_mtbf_hours
    fo = 1.0 / minutes(parameters.failover_minutes)
    p_ok = parameters.p_failover_success
    manual = 1.0 / parameters.manual_recovery_hours
    repair = 1.0 / parameters.node_repair_hours
    emergency = 1.0 / parameters.emergency_repair_hours

    chain = MarkovChain("cluster#primary-secondary")
    chain.add_state("BothUp", reward=1.0, meta={"kind": "base"})
    chain.add_state("Failover", reward=0.0, meta={"kind": "failover"})
    chain.add_state(
        "OneUp", reward=degraded_capacity, meta={"kind": "degraded"}
    )
    chain.add_state("ManualRecovery", reward=0.0, meta={"kind": "manual"})
    chain.add_state("AllDown", reward=0.0, meta={"kind": "down"})

    chain.add_transition(
        "BothUp", "Failover", 2.0 * lam, label="either node faults"
    )
    chain.add_transition(
        "Failover", "OneUp", fo * p_ok, label="load consolidates"
    )
    if p_ok < 1.0:
        chain.add_transition(
            "Failover", "ManualRecovery", fo * (1.0 - p_ok),
            label="failover fails",
        )
        chain.add_transition(
            "ManualRecovery", "OneUp", manual, label="manual restart"
        )
    chain.add_transition("OneUp", "BothUp", repair, label="node repaired")
    chain.add_transition(
        "OneUp", "AllDown", lam, label="surviving node faults"
    )
    chain.add_transition(
        "AllDown", "OneUp", emergency, label="one node restored"
    )
    chain.validate()
    return chain


def secondary_cluster_measures(
    parameters: ClusterParameters,
    degraded_capacity: float = 0.5,
) -> dict:
    """Availability and expected capacity of the active-active pair."""
    chain = secondary_cluster_chain(parameters, degraded_capacity)
    pi = steady_state(chain)
    availability = sum(
        pi[state.name] for state in chain if state.is_up
    )
    capacity = sum(pi[state.name] * state.reward for state in chain)
    return {
        "availability": availability,
        "expected_capacity": capacity,
        "time_on_one_node": pi["OneUp"],
    }
