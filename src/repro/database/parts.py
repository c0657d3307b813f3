"""Part-number lookup for block RAS defaults."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

from ..errors import DatabaseError


@dataclass(frozen=True)
class PartRecord:
    """RAS defaults for one field-replaceable unit (FRU).

    Only the per-unit hardware characteristics live in the database;
    deployment-specific values (quantities, scenarios, service levels)
    belong in the model spec.
    """

    part_number: str
    description: str = ""
    mtbf_hours: float = 1.0e6
    transient_fit: float = 0.0
    diagnosis_minutes: float = 30.0
    corrective_minutes: float = 30.0
    verification_minutes: float = 30.0
    #: Per-unit acquisition cost in arbitrary currency units.  Zero
    #: means "not priced" — cost roll-ups count such parts as free
    #: rather than failing, so catalogs predating the field still load.
    cost: float = 0.0

    def __post_init__(self) -> None:
        if not self.part_number:
            raise DatabaseError("part number must be non-empty")
        if self.mtbf_hours <= 0:
            raise DatabaseError(
                f"{self.part_number}: MTBF must be positive, "
                f"got {self.mtbf_hours}"
            )
        if self.transient_fit < 0:
            raise DatabaseError(
                f"{self.part_number}: FIT must be non-negative, "
                f"got {self.transient_fit}"
            )
        if self.cost < 0:
            raise DatabaseError(
                f"{self.part_number}: cost must be non-negative, "
                f"got {self.cost}"
            )

    def as_block_fields(self) -> Dict[str, float]:
        """Fields in BlockParameters vocabulary (minus identification)."""
        return {
            "mtbf_hours": self.mtbf_hours,
            "transient_fit": self.transient_fit,
            "diagnosis_minutes": self.diagnosis_minutes,
            "corrective_minutes": self.corrective_minutes,
            "verification_minutes": self.verification_minutes,
            "description": self.description,
        }


class PartsDatabase:
    """An in-memory part-number -> :class:`PartRecord` catalog."""

    def __init__(self, records: Optional[Mapping[str, PartRecord]] = None):
        self._records: Dict[str, PartRecord] = {}
        for record in (records or {}).values():
            self.add(record)

    def add(self, record: PartRecord) -> None:
        if record.part_number in self._records:
            raise DatabaseError(
                f"duplicate part number {record.part_number!r}"
            )
        self._records[record.part_number] = record

    def lookup(self, part_number: str) -> PartRecord:
        try:
            return self._records[part_number]
        except KeyError:
            raise DatabaseError(
                f"unknown part number {part_number!r}; "
                f"{len(self._records)} parts in catalog"
            ) from None

    def __contains__(self, part_number: str) -> bool:
        return part_number in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PartRecord]:
        return iter(
            self._records[key] for key in sorted(self._records)
        )

    # ------------------------------------------------------------------
    # persistence (the enterprise-database substitute)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = [asdict(record) for record in self]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PartsDatabase":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatabaseError(f"invalid parts-database JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise DatabaseError("parts-database JSON must be a list")
        database = cls()
        for entry in payload:
            if not isinstance(entry, dict):
                raise DatabaseError(
                    f"parts-database entries must be objects, got {entry!r}"
                )
            try:
                database.add(PartRecord(**entry))
            except TypeError as exc:
                raise DatabaseError(f"bad parts-database entry: {exc}") from exc
        return database

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PartsDatabase":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DatabaseError(
                f"cannot read parts database {path}: {exc}"
            ) from exc
        return cls.from_json(text)


def model_cost(model, database: PartsDatabase) -> float:
    """Sum the catalog cost of every FRU a model deploys.

    The roll-up is solve-free: ``quantity x per-unit cost`` over every
    block carrying a ``part_number``, matching ``component_count``'s
    convention that quantities are per-diagram counts (not multiplied
    through parent levels).  Blocks without a part number — and parts
    priced at the 0.0 "not priced" default — contribute nothing.
    Unknown part numbers raise :class:`~repro.errors.DatabaseError`.
    """
    total = 0.0
    for _level, _path, block in model.walk():
        part_number = block.parameters.part_number
        if not part_number:
            continue
        record = database.lookup(part_number)
        total += block.parameters.quantity * record.cost
    return total
