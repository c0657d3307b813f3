"""The MG engineering language: block and global parameters.

These dataclasses carry exactly the parameter list Section 3 of the
paper attaches to each MG block and to the Global Parameter Bar.  Units
follow the paper's GUI labels (hours for MTBF/Tresp, FIT for transient
rates, minutes for MTTR parts and recovery/reintegration times); derived
properties expose everything in the library's canonical hours /
per-hour units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from ..errors import ParameterError
from ..units import fit_to_rate, minutes, mtbf_to_rate


class Scenario(enum.Enum):
    """Whether an automatic-recovery or repair event interrupts service.

    ``TRANSPARENT`` — no downtime is associated with the event (e.g. an
    N+1 power supply failing over, or a hot-pluggable FRU with dynamic
    reconfiguration).  ``NONTRANSPARENT`` — the event incurs downtime
    (e.g. recovery by reboot, or a cold-swap repair).
    """

    TRANSPARENT = "transparent"
    NONTRANSPARENT = "nontransparent"

    @classmethod
    def parse(cls, value: "str | Scenario") -> "Scenario":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ParameterError(
                f"scenario must be 'transparent' or 'nontransparent', "
                f"got {value!r}"
            ) from None


@dataclass(frozen=True)
class BlockParameters:
    """Parameters of one MG block (one component type).

    Attributes mirror the paper's parameter list:

    * ``name`` / ``part_number`` / ``description`` — identification.
    * ``quantity`` (N) / ``min_required`` (K) — redundancy; all redundant
      units are assumed symmetric with equal failure rates.
    * ``mtbf_hours`` — mean time between permanent faults, per unit.
    * ``transient_fit`` — transient fault rate in FIT, per unit.
    * ``diagnosis_minutes`` / ``corrective_minutes`` /
      ``verification_minutes`` — the three MTTR parts.
    * ``service_response_hours`` (Tresp) — time to wait for service.
    * ``p_correct_diagnosis`` (Pcd) — models imperfect repair.

    Redundancy-only parameters (meaningful when N > K):

    * ``p_latent_fault`` (Plf) and ``mttdlf_hours`` (MTTDLF).
    * ``recovery`` scenario, ``ar_time_minutes`` (AR/Failover Time),
      ``p_spf`` (Pspf), ``spf_recovery_minutes`` (Tspf).
    * ``repair`` scenario and ``reintegration_minutes``.
    """

    name: str
    quantity: int = 1
    min_required: int = 1
    mtbf_hours: float = 1.0e6
    transient_fit: float = 0.0
    diagnosis_minutes: float = 30.0
    corrective_minutes: float = 30.0
    verification_minutes: float = 30.0
    service_response_hours: float = 4.0
    p_correct_diagnosis: float = 0.99
    part_number: str = ""
    description: str = ""
    # Redundancy-only parameters.
    p_latent_fault: float = 0.0
    mttdlf_hours: float = 24.0
    recovery: Scenario = Scenario.TRANSPARENT
    ar_time_minutes: float = 5.0
    p_spf: float = 0.0
    spf_recovery_minutes: float = 30.0
    repair: Scenario = Scenario.TRANSPARENT
    reintegration_minutes: float = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("block name must be non-empty")
        if self.quantity < 1 or not float(self.quantity).is_integer():
            raise ParameterError(
                f"{self.name}: quantity must be a positive integer, "
                f"got {self.quantity}"
            )
        if not float(self.min_required).is_integer():
            raise ParameterError(
                f"{self.name}: minimum required quantity must be an "
                f"integer, got {self.min_required}"
            )
        # Sweeps carry N and K as numbers (JSON, float lists); an
        # integral float is the integer it spells, so the generator and
        # every digest see the same block either way.
        object.__setattr__(self, "quantity", int(self.quantity))
        object.__setattr__(self, "min_required", int(self.min_required))
        if not 1 <= self.min_required <= self.quantity:
            raise ParameterError(
                f"{self.name}: minimum required quantity must satisfy "
                f"1 <= K <= N, got K={self.min_required}, N={self.quantity}"
            )
        if self.mtbf_hours <= 0:
            raise ParameterError(
                f"{self.name}: MTBF must be positive, got {self.mtbf_hours}"
            )
        if self.transient_fit < 0:
            raise ParameterError(
                f"{self.name}: transient FIT must be non-negative, "
                f"got {self.transient_fit}"
            )
        for label, value in (
            ("diagnosis time", self.diagnosis_minutes),
            ("corrective action time", self.corrective_minutes),
            ("verification time", self.verification_minutes),
        ):
            if value < 0:
                raise ParameterError(
                    f"{self.name}: {label} must be non-negative, got {value}"
                )
        if self.mttr_minutes_total() <= 0:
            raise ParameterError(
                f"{self.name}: total MTTR (diagnosis + corrective + "
                "verification) must be positive"
            )
        if self.service_response_hours < 0:
            raise ParameterError(
                f"{self.name}: service response time must be non-negative, "
                f"got {self.service_response_hours}"
            )
        for label, value in (
            ("Pcd", self.p_correct_diagnosis),
            ("Plf", self.p_latent_fault),
            ("Pspf", self.p_spf),
        ):
            if not 0.0 <= value <= 1.0:
                raise ParameterError(
                    f"{self.name}: {label} must lie in [0, 1], got {value}"
                )
        if self.mttdlf_hours <= 0:
            raise ParameterError(
                f"{self.name}: MTTDLF must be positive, got {self.mttdlf_hours}"
            )
        if self.ar_time_minutes <= 0:
            raise ParameterError(
                f"{self.name}: AR/failover time must be positive, "
                f"got {self.ar_time_minutes}"
            )
        if self.spf_recovery_minutes <= 0:
            raise ParameterError(
                f"{self.name}: SPF recovery time must be positive, "
                f"got {self.spf_recovery_minutes}"
            )
        if self.reintegration_minutes <= 0:
            raise ParameterError(
                f"{self.name}: reintegration time must be positive, "
                f"got {self.reintegration_minutes}"
            )
        # Scenario fields accept strings for spec-file convenience.
        object.__setattr__(self, "recovery", Scenario.parse(self.recovery))
        object.__setattr__(self, "repair", Scenario.parse(self.repair))

    # ------------------------------------------------------------------
    # derived quantities (canonical units)
    # ------------------------------------------------------------------
    def mttr_minutes_total(self) -> float:
        """Total MTTR in minutes (sum of the three MTTR parts)."""
        return (
            self.diagnosis_minutes
            + self.corrective_minutes
            + self.verification_minutes
        )

    @property
    def mttr_hours(self) -> float:
        """Total MTTR in hours."""
        return minutes(self.mttr_minutes_total())

    @property
    def permanent_rate(self) -> float:
        """Permanent fault rate per unit, per hour (1/MTBF)."""
        return mtbf_to_rate(self.mtbf_hours)

    @property
    def transient_rate(self) -> float:
        """Transient fault rate per unit, per hour (from FIT)."""
        return fit_to_rate(self.transient_fit)

    @property
    def is_redundant(self) -> bool:
        """True when N > K (spare units exist)."""
        return self.quantity > self.min_required

    @property
    def redundancy_depth(self) -> int:
        """Number of unit failures the block tolerates (N - K)."""
        return self.quantity - self.min_required

    @property
    def ar_time_hours(self) -> float:
        return minutes(self.ar_time_minutes)

    @property
    def spf_recovery_hours(self) -> float:
        return minutes(self.spf_recovery_minutes)

    @property
    def reintegration_hours(self) -> float:
        return minutes(self.reintegration_minutes)

    def with_changes(self, **changes: object) -> "BlockParameters":
        """A copy with selected fields replaced (parametric analysis)."""
        try:
            return replace(self, **changes)
        except TypeError as exc:
            raise ParameterError(f"{self.name}: {exc}") from exc


@dataclass(frozen=True)
class GlobalParameters:
    """The Global Parameter Bar: values applied to every block.

    * ``reboot_minutes`` (Tboot) — system reboot time.
    * ``mttm_hours`` (MTTM) — mean time to maintenance (service
      restriction time before a deferred service call).
    * ``mttrfid_hours`` (MTTRFID) — mean time to repair from incorrect
      diagnosis.
    * ``mission_time_hours`` — the T used for interval availability and
      reliability measures.
    """

    reboot_minutes: float = 10.0
    mttm_hours: float = 48.0
    mttrfid_hours: float = 8.0
    mission_time_hours: float = 8760.0

    def __post_init__(self) -> None:
        if self.reboot_minutes <= 0:
            raise ParameterError(
                f"reboot time must be positive, got {self.reboot_minutes}"
            )
        if self.mttm_hours < 0:
            raise ParameterError(
                f"MTTM must be non-negative, got {self.mttm_hours}"
            )
        if self.mttrfid_hours <= 0:
            raise ParameterError(
                f"MTTRFID must be positive, got {self.mttrfid_hours}"
            )
        if self.mission_time_hours <= 0:
            raise ParameterError(
                f"mission time must be positive, got {self.mission_time_hours}"
            )

    @property
    def reboot_hours(self) -> float:
        return minutes(self.reboot_minutes)

    def with_changes(self, **changes: object) -> "GlobalParameters":
        """A copy with selected fields replaced (parametric analysis)."""
        try:
            return replace(self, **changes)
        except TypeError as exc:
            raise ParameterError(f"global parameters: {exc}") from exc
