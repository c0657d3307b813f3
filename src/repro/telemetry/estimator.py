"""Per-FRU online exposure-time MLE rate estimation, mergeable state.

The estimator consumes a monotonic event stream per ``(part, unit)``
and maintains, entirely in integers on the tick grid:

* up/down exposure (a unit is assumed up from the observation start;
  ``failure`` flips it down, ``repair`` flips it up);
* failure / repair / latent-detect counts;
* a per-window failure-count and up-exposure ladder (fixed window
  width, like an :class:`repro.obs.histogram.Histogram` bucket ladder)
  feeding the drift detector;
* the set of accepted event ids, so replays dedup instead of
  double-counting.

**Resting form.**  A unit the stream has not touched since the last
:meth:`RateEstimator.state_digest` (or :meth:`RateEstimator.rest`)
is held as its canonical JSON entry, ``"unit":{...}``: exactly the
bytes ``canonical_json(to_dict())`` holds for it, next to its scalar
counters.  An accepted event decodes only its own unit, the digest
re-encodes only the units touched since the last one and hashes the
resting entries in canonical order, and a merge copies entries instead
of objects — so a batch costs work in proportion to the units it
touches, not to the state ingested so far.  The fit and the event
window read the resting counters, and the drift ladders are kept
summed per part as events arrive, so no read decodes a unit — except
the first drift read after a merge, which rebuilds the sums.

**Merge discipline.**  Exactly like the obs histograms: two estimator
states merge iff their configuration (observation start, window
ladder) matches, by summing integer accumulators — associative and
order-insensitive by construction, because everything is integer
arithmetic and each unit's stream lives wholly in one shard (merging
two states that both saw the same unit raises ``ValueError``; shard
event streams *by unit*, the way cluster workers do).  The fitted
rates are then a pure function of the merged integers, summed in
sorted key order — bit-identical however ingestion was interleaved,
sharded, checkpointed, or resumed.

**Estimate.**  The MLE of an exponential failure rate under exposure
censoring is ``n_failures / up_time``; the confidence interval is the
chi-square (Garwood) bound from the *shared* implementation in
:mod:`repro.validation.intervals` — the same function MEADEP quotes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union,
)

from ..ident import canonical_json, content_digest
from ..validation.intervals import poisson_rate_interval
from .events import (
    TICKS_PER_HOUR,
    FieldEvent,
    OutOfOrderError,
    TelemetryError,
    from_ticks,
    to_ticks,
)

#: Serialization format version, checked by :meth:`RateEstimator.from_dict`.
STATE_FORMAT = 1

_UP = "up"
_DOWN = "down"


@dataclass
class UnitState:
    """One unit's integer accumulators (internal to the estimator)."""

    first_tick: int
    last_tick: int
    status: str
    up_ticks: int = 0
    down_ticks: int = 0
    failures: int = 0
    repairs: int = 0
    latent_detects: int = 0
    window_failures: Dict[int, int] = field(default_factory=dict)
    window_up_ticks: Dict[int, int] = field(default_factory=dict)
    seen: Set[str] = field(default_factory=set)

    def to_dict(self) -> Dict[str, object]:
        return {
            "first_tick": self.first_tick,
            "last_tick": self.last_tick,
            "status": self.status,
            "up_ticks": self.up_ticks,
            "down_ticks": self.down_ticks,
            "failures": self.failures,
            "repairs": self.repairs,
            "latent_detects": self.latent_detects,
            "window_failures": {
                str(k): v for k, v in sorted(self.window_failures.items())
            },
            "window_up_ticks": {
                str(k): v for k, v in sorted(self.window_up_ticks.items())
            },
            "seen": sorted(self.seen),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "UnitState":
        return cls(
            first_tick=int(payload["first_tick"]),
            last_tick=int(payload["last_tick"]),
            status=str(payload["status"]),
            up_ticks=int(payload["up_ticks"]),
            down_ticks=int(payload["down_ticks"]),
            failures=int(payload["failures"]),
            repairs=int(payload["repairs"]),
            latent_detects=int(payload["latent_detects"]),
            window_failures={
                int(k): int(v)
                for k, v in payload["window_failures"].items()  # type: ignore
            },
            window_up_ticks={
                int(k): int(v)
                for k, v in payload["window_up_ticks"].items()  # type: ignore
            },
            seen=set(payload["seen"]),  # type: ignore[arg-type]
        )


def _entry_key(unit: str) -> bytes:
    """The ``"unit":`` prefix of a unit's resting entry."""
    return canonical_json(unit) + b":"


class _Resting(NamedTuple):
    """A unit at rest: its canonical entry plus the scalar counters the
    fit and the event window read, so neither decodes the entry."""

    entry: bytes
    first_tick: int
    last_tick: int
    status: str
    up_ticks: int
    down_ticks: int
    failures: int
    repairs: int
    latent_detects: int

    @classmethod
    def of(cls, unit: str, state: UnitState) -> "_Resting":
        return cls(
            _entry_key(unit) + canonical_json(state.to_dict()),
            state.first_tick,
            state.last_tick,
            state.status,
            state.up_ticks,
            state.down_ticks,
            state.failures,
            state.repairs,
            state.latent_detects,
        )

    def row(self, unit: str) -> bytes:
        """The entry's value: ``canonical_json`` of the unit's
        ``to_dict()``."""
        return self.entry[len(_entry_key(unit)):]


#: A unit in the estimator: live, or at rest.
_Unit = Union[UnitState, _Resting]


def _peek(unit: str, value: _Unit) -> UnitState:
    """A unit's state for reading: live as is, resting decoded anew."""
    if isinstance(value, _Resting):
        return UnitState.from_dict(json.loads(value.row(unit)))
    return value


@dataclass(frozen=True)
class PartFit:
    """One part's fitted rates, counts, and confidence bounds."""

    part: str
    units: int
    failures: int
    repairs: int
    latent_detects: int
    up_hours: float
    down_hours: float
    failure_rate: float
    rate_low: float
    rate_high: float
    mtbf_hours: Optional[float]
    mttr_hours: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "part": self.part,
            "units": self.units,
            "failures": self.failures,
            "repairs": self.repairs,
            "latent_detects": self.latent_detects,
            "up_hours": self.up_hours,
            "down_hours": self.down_hours,
            "failure_rate": self.failure_rate,
            "rate_low": self.rate_low,
            "rate_high": self.rate_high,
            "mtbf_hours": self.mtbf_hours,
            "mttr_hours": self.mttr_hours,
        }


@dataclass(frozen=True)
class FittedRates:
    """The estimator's full fit: per-part rates plus the window."""

    confidence: float
    start_hours: float
    end_hours: Optional[float]
    parts: Tuple[PartFit, ...]

    def part(self, name: str) -> PartFit:
        for entry in self.parts:
            if entry.part == name:
                return entry
        raise TelemetryError(f"no fitted rates for part {name!r}")

    def rate(self, name: str) -> float:
        return self.part(name).failure_rate

    def to_dict(self) -> Dict[str, object]:
        return {
            "confidence": self.confidence,
            "start_hours": self.start_hours,
            "end_hours": self.end_hours,
            "parts": [entry.to_dict() for entry in self.parts],
        }

    def digest(self) -> str:
        """Content digest of the fit — the bit-identity witness."""
        return content_digest(self.to_dict())


class RateEstimator:
    """Mergeable, checkpointable per-FRU rate estimator state."""

    def __init__(
        self,
        start_hours: float = 0.0,
        window_hours: float = 168.0,
    ) -> None:
        if window_hours <= 0:
            raise TelemetryError(
                f"drift window must be positive, got {window_hours}"
            )
        self.start_tick = to_ticks(start_hours)
        if self.start_tick < 0:
            raise TelemetryError(
                f"observation start must be non-negative, got {start_hours}"
            )
        self.window_ticks = to_ticks(window_hours)
        if self.window_ticks <= 0:
            raise TelemetryError(
                f"drift window quantizes to zero ticks: {window_hours}"
            )
        self._reset()

    def _reset(self) -> None:
        #: part -> unit -> live or resting state.
        self._units: Dict[str, Dict[str, _Unit]] = {}
        #: ``(part, unit)`` keys of the live units.
        self._live: Set[Tuple[str, str]] = set()
        #: part -> (window -> up ticks, window -> failures), summed
        #: over the part's units so :meth:`part_windows` decodes
        #: nothing; ``None`` after a merge, until the first read
        #: rebuilds it from the units.
        self._ladders: Optional[
            Dict[str, Tuple[Dict[int, int], Dict[int, int]]]
        ] = {}
        #: Accepted events.
        self._events = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def start_hours(self) -> float:
        return from_ticks(self.start_tick)

    @property
    def window_hours(self) -> float:
        return from_ticks(self.window_ticks)

    @property
    def part_names(self) -> List[str]:
        return sorted(self._units)

    @property
    def parts(self) -> int:
        return len(self._units)

    @property
    def units(self) -> int:
        return sum(len(units) for units in self._units.values())

    @property
    def events_total(self) -> int:
        return self._events

    def _value(self, part: str, unit: str) -> Optional[_Unit]:
        units = self._units.get(part)
        return None if units is None else units.get(unit)

    def unit_state(self, part: str, unit: str) -> Optional[UnitState]:
        """One unit's state, for reading; a resting unit is decoded
        anew and stays at rest."""
        value = self._value(part, unit)
        return None if value is None else _peek(unit, value)

    def last_tick(self, part: str, unit: str) -> Optional[int]:
        """One unit's last accepted tick, without decoding it."""
        value = self._value(part, unit)
        return None if value is None else value.last_tick

    def part_windows(self, part: str) -> List[Tuple[int, int, int]]:
        """Sorted ``(window_index, up_ticks, failures)`` rows for one
        part, summed over its units — the drift detector's input."""
        if self._ladders is None:
            self._ladders = {}
            for name, units in self._units.items():
                for unit, value in units.items():
                    state = _peek(unit, value)
                    self._add_ladders(
                        name, state.window_up_ticks, state.window_failures
                    )
        up, failures = self._ladders.get(part, ({}, {}))
        return [
            (index, up.get(index, 0), failures.get(index, 0))
            for index in sorted(set(up) | set(failures))
        ]

    def event_window(self) -> Optional[Dict[str, object]]:
        """The observed event window ``{start_hours, end_hours,
        events}``, or ``None`` before any event."""
        first: Optional[int] = None
        last: Optional[int] = None
        for units in self._units.values():
            for state in units.values():
                if first is None or state.first_tick < first:
                    first = state.first_tick
                if last is None or state.last_tick > last:
                    last = state.last_tick
        if first is None or last is None:
            return None
        return {
            "start_hours": from_ticks(first),
            "end_hours": from_ticks(last),
            "events": self.events_total,
        }

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: FieldEvent) -> bool:
        """Apply one event; True if accepted, False if a replay.

        Raises :class:`OutOfOrderError` for an event at or before the
        unit's last accepted tick that is *not* a replay of an already
        accepted event.
        """
        return self._apply(event, {})

    def ingest_many(
        self, events: Iterable[FieldEvent]
    ) -> Tuple[int, int]:
        """Apply events in order; ``(accepted, duplicates)``."""
        accepted = duplicates = 0
        peeked: Dict[Tuple[str, str], UnitState] = {}
        for event in events:
            if self._apply(event, peeked):
                accepted += 1
            else:
                duplicates += 1
        return accepted, duplicates

    def _apply(
        self,
        event: FieldEvent,
        peeked: Dict[Tuple[str, str], UnitState],
    ) -> bool:
        """:meth:`ingest`, decoding a resting unit at most once per
        ``peeked``: a replay reads the unit and leaves it at rest, an
        accepted event makes it live."""
        key = (event.part, event.unit)
        value = self._value(*key)
        if value is None:
            state = UnitState(
                first_tick=event.ticks,
                last_tick=self.start_tick,
                status=_UP,
            )
        elif isinstance(value, _Resting):
            state = peeked.get(key)  # type: ignore[assignment]
            if state is None:
                state = peeked[key] = _peek(event.unit, value)
        else:
            state = value
        event_id = event.event_id
        if event.ticks <= state.last_tick:
            if event_id in state.seen:
                return False
            raise OutOfOrderError(
                f"event {event_id} for {event.part!r}/{event.unit!r} at "
                f"{event.time_hours} h is not after the unit's last "
                f"accepted event at {from_ticks(state.last_tick)} h",
                details={
                    "part": event.part,
                    "unit": event.unit,
                    "event_id": event_id,
                    "time_hours": event.time_hours,
                    "last_hours": from_ticks(state.last_tick),
                },
            )
        if value is not state:  # new or resting: live from here on
            self._units.setdefault(event.part, {})[event.unit] = state
            self._live.add(key)
        if self._ladders is None:  # rebuilt from the units when read
            up_sums, failure_sums = {}, {}
        else:
            up_sums, failure_sums = self._ladders.setdefault(
                event.part, ({}, {})
            )
        self._accumulate(state, event.ticks, up_sums)
        if event.kind == "failure":
            state.failures += 1
            window = event.ticks // self.window_ticks
            state.window_failures[window] = (
                state.window_failures.get(window, 0) + 1
            )
            failure_sums[window] = failure_sums.get(window, 0) + 1
            state.status = _DOWN
        elif event.kind == "repair":
            state.repairs += 1
            state.status = _UP
        else:  # latent_detect: counted, no exposure state change
            state.latent_detects += 1
        state.last_tick = event.ticks
        if event.ticks < state.first_tick:  # pragma: no cover - guarded
            state.first_tick = event.ticks
        state.seen.add(event_id)
        self._events += 1
        return True

    def _accumulate(
        self, state: UnitState, tick: int, up_sums: Dict[int, int]
    ) -> None:
        """Charge the interval since the last event to the current
        status, splitting up-exposure across the window ladder (the
        unit's and its part's ``up_sums``)."""
        start, end = state.last_tick, tick
        if end <= start:
            return
        if state.status == _DOWN:
            state.down_ticks += end - start
            return
        state.up_ticks += end - start
        cursor = start
        window = cursor // self.window_ticks
        while cursor < end:
            boundary = (window + 1) * self.window_ticks
            stop = min(end, boundary)
            state.window_up_ticks[window] = (
                state.window_up_ticks.get(window, 0) + (stop - cursor)
            )
            up_sums[window] = up_sums.get(window, 0) + (stop - cursor)
            cursor = stop
            window += 1

    # ------------------------------------------------------------------
    # merge (the obs-histogram discipline)
    # ------------------------------------------------------------------
    def merge(self, other: "RateEstimator") -> "RateEstimator":
        """A new estimator combining two shards' states.

        Requires identical configuration (observation start, window
        ladder) — like histogram bucket ladders — and *disjoint units*:
        one unit's monotonic stream must live wholly in one shard.
        Associative and commutative: everything is integer addition
        over disjoint keys.  Both inputs are put to rest first, so the
        merge copies resting entries, not objects.
        """
        if not isinstance(other, RateEstimator):
            raise ValueError(
                f"cannot merge RateEstimator with {type(other).__name__}"
            )
        if (
            self.start_tick != other.start_tick
            or self.window_ticks != other.window_ticks
        ):
            raise ValueError(
                "cannot merge estimators with different configurations: "
                f"start {self.start_tick} vs {other.start_tick} ticks, "
                f"window {self.window_ticks} vs {other.window_ticks} ticks"
            )
        self.rest()
        other.rest()
        merged = RateEstimator(
            start_hours=self.start_hours, window_hours=self.window_hours
        )
        merged._units = {
            part: dict(units) for part, units in self._units.items()
        }
        for part, units in other._units.items():
            target = merged._units.setdefault(part, {})
            for unit in units:
                if unit in target:
                    raise ValueError(
                        f"unit {part!r}/{unit!r} is present in both "
                        "estimators; shard event streams by unit"
                    )
            target.update(units)
        merged._ladders = None
        merged._events = self._events + other._events
        return merged

    def _add_ladders(
        self, part: str, up: Dict[int, int], failures: Dict[int, int]
    ) -> None:
        """Add window ladders to ``part``'s sums."""
        up_sums, failure_sums = self._ladders.setdefault(  # type: ignore
            part, ({}, {})
        )
        for index, ticks in up.items():
            up_sums[index] = up_sums.get(index, 0) + ticks
        for index, count in failures.items():
            failure_sums[index] = failure_sums.get(index, 0) + count

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def config(self) -> Dict[str, object]:
        """The state's configuration: everything but the units."""
        return {
            "format": STATE_FORMAT,
            "start_tick": self.start_tick,
            "window_ticks": self.window_ticks,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            **self.config(),
            "units": {
                part: {
                    unit: _peek(unit, value).to_dict()
                    for unit, value in sorted(units.items())
                }
                for part, units in sorted(self._units.items())
            },
        }

    @classmethod
    def _configured(cls, payload: object) -> "RateEstimator":
        """An empty estimator with a state document's configuration."""
        if not isinstance(payload, dict):
            raise TelemetryError("estimator state must be a JSON object")
        if payload.get("format") != STATE_FORMAT:
            raise TelemetryError(
                f"unsupported estimator state format "
                f"{payload.get('format')!r} (expected {STATE_FORMAT})"
            )
        estimator = cls.__new__(cls)
        estimator.start_tick = int(payload["start_tick"])
        estimator.window_ticks = int(payload["window_ticks"])
        estimator._reset()
        return estimator

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RateEstimator":
        estimator = cls._configured(payload)
        for part, units in payload["units"].items():  # type: ignore
            target = estimator._units.setdefault(part, {})
            for unit, state in units.items():
                live = target[unit] = UnitState.from_dict(state)
                estimator._live.add((part, unit))
                estimator._events += len(live.seen)  # type: ignore
                estimator._add_ladders(
                    part, live.window_up_ticks, live.window_failures
                )
        return estimator

    @classmethod
    def from_rows(
        cls, config: object, rows: Iterable[Tuple[str, str, str]]
    ) -> "RateEstimator":
        """An estimator resting as :meth:`config` plus per-unit
        ``(part, unit, state)`` rows, as :meth:`rest` returned them.

        Every row is decoded once and put to rest re-encoded, so a row
        that is not a unit state raises here (``ValueError``,
        ``KeyError``, ``TypeError`` or ``AttributeError``) and the
        digest hashes canonical bytes whatever the row's text.
        """
        estimator = cls._configured(config)
        for part, unit, state in rows:
            if not isinstance(part, str) or not isinstance(unit, str):
                raise TypeError(f"unit row key {part!r}/{unit!r}")
            live = UnitState.from_dict(json.loads(state))
            estimator._units.setdefault(part, {})[unit] = _Resting.of(
                unit, live
            )
            estimator._events += len(live.seen)
            estimator._add_ladders(
                part, live.window_up_ticks, live.window_failures
            )
        return estimator

    def rest(self) -> List[Tuple[str, str, bytes]]:
        """Put every live unit back to rest.

        Returns the re-encoded units as sorted ``(part, unit, state)``
        rows, ``state`` being ``canonical_json`` of the unit's
        ``to_dict()``.
        """
        rows = []
        for part, unit in sorted(self._live):
            units = self._units[part]
            resting = units[unit] = _Resting.of(
                unit, units[unit]  # type: ignore[arg-type]
            )
            rows.append((part, unit, resting.row(unit)))
        self._live.clear()
        return rows

    def state_digest(self) -> str:
        """Content digest of the full state (canonical JSON).

        Equal to the content digest of :meth:`to_dict`, by
        construction: the resting entries are hashed in canonical
        order between the document's own keys, with parts and units
        in ``str`` order as ``sort_keys`` has them.
        """
        self.rest()
        sha = hashlib.sha256(
            b'{"format":%s,"start_tick":%s,"units":{'
            % (canonical_json(STATE_FORMAT), canonical_json(self.start_tick))
        )
        separator = b""
        for part in sorted(self._units):
            units = self._units[part]
            sha.update(separator + canonical_json(part) + b":{")
            sha.update(b",".join([
                units[u].entry for u in sorted(units)  # type: ignore
            ]))
            sha.update(b"}")
            separator = b","
        sha.update(b'},"window_ticks":%s}' % canonical_json(self.window_ticks))
        return sha.hexdigest()

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        window_end_hours: Optional[float] = None,
        confidence: float = 0.95,
    ) -> FittedRates:
        """Fit per-part rates from the merged integer accumulators.

        ``window_end_hours`` extends every unit's exposure to the end
        of the observation window (in its current status) without
        mutating state — pass the trace's window so quiet units still
        contribute uptime.  Everything is summed in sorted key order
        from integers, so the fit is bit-identical however the state
        was assembled.
        """
        end_tick = (
            None if window_end_hours is None else to_ticks(window_end_hours)
        )
        fits: List[PartFit] = []
        for part in sorted(self._units):
            failures = repairs = latent = 0
            up_ticks = down_ticks = 0
            units = self._units[part]
            for unit in sorted(units):
                state = units[unit]
                failures += state.failures
                repairs += state.repairs
                latent += state.latent_detects
                up_ticks += state.up_ticks
                down_ticks += state.down_ticks
                if end_tick is not None and end_tick > state.last_tick:
                    tail = end_tick - state.last_tick
                    if state.status == _UP:
                        up_ticks += tail
                    else:
                        down_ticks += tail
            up_hours = up_ticks / TICKS_PER_HOUR
            down_hours = down_ticks / TICKS_PER_HOUR
            if up_hours > 0:
                rate = failures / up_hours
                rate_low, rate_high = poisson_rate_interval(
                    failures, up_hours, confidence
                )
            else:
                rate, rate_low, rate_high = 0.0, 0.0, 0.0
            fits.append(
                PartFit(
                    part=part,
                    units=len(units),
                    failures=failures,
                    repairs=repairs,
                    latent_detects=latent,
                    up_hours=up_hours,
                    down_hours=down_hours,
                    failure_rate=rate,
                    rate_low=rate_low,
                    rate_high=rate_high,
                    mtbf_hours=(
                        up_hours / failures if failures > 0 else None
                    ),
                    mttr_hours=(
                        down_hours / repairs if repairs > 0 else None
                    ),
                )
            )
        return FittedRates(
            confidence=confidence,
            start_hours=self.start_hours,
            end_hours=window_end_hours,
            parts=tuple(fits),
        )
