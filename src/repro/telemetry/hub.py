"""The serving-side telemetry hub: admission, state, proposals.

One :class:`TelemetryHub` sits inside the HTTP service (and behind the
local CLI): it owns a :class:`~repro.telemetry.estimator.RateEstimator`
behind a lock, applies **bounded admission** (a cap on events admitted
but not yet folded into state — beyond it ingest answers
:class:`~repro.telemetry.events.BacklogFullError`, the service's 429),
validates whole batches *before* applying them (a 400 rejects the
batch atomically — no half-ingested payloads), persists state through
:class:`repro.store.SqliteStore`, and keeps the latest calibration
proposal.  One ``telemetry.sqlite3`` holds each unit's estimator state
as a ``telemetry_units`` row (its canonical JSON, the estimator's
resting form) plus the estimator configuration and the latest
proposal as ``telemetry_kv`` documents; a batch upserts only the rows
of the units it touched, with the configuration, in one transaction.
Directories written by earlier releases (``state.json`` /
``proposal.json``) are read as a fallback when the database is empty,
and a version-1 database's whole-state ``state`` document is split
into rows by the version-2 migration.

Batch validation + per-event dedup give the ingest path its replay
idempotency: re-POSTing a delivered batch reports every event as a
duplicate and changes nothing, bit-for-bit.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.block import DiagramBlockModel
from ..engine import Engine
from ..obs import get_logger, get_tracer
from ..store import Migration, Schema, SqliteStore
from .calibrate import build_proposal, publish_proposal
from .drift import DriftConfig
from .estimator import RateEstimator, UnitState
from .events import (
    BacklogFullError,
    FieldEvent,
    NoProposalError,
    OutOfOrderError,
    TelemetryError,
    parse_events,
)

#: Default cap on events admitted but not yet applied.
DEFAULT_MAX_PENDING = 10_000

#: Default cap on one batch's event count (still subject to the HTTP
#: body-size limit underneath).
DEFAULT_MAX_BATCH = 1_024

#: Legacy filenames inside the hub's state directory (pre-database).
STATE_FILENAME = "state.json"
PROPOSAL_FILENAME = "proposal.json"

#: Database file name inside the hub's state directory.
TELEMETRY_DB_FILENAME = "telemetry.sqlite3"

#: What a stored state that cannot be decoded raises.
_UNREADABLE = (
    ValueError, KeyError, TypeError, AttributeError, TelemetryError
)

_UPSERT_UNIT = (
    "INSERT INTO telemetry_units (part, unit, state) VALUES (?, ?, ?) "
    "ON CONFLICT (part, unit) DO UPDATE SET state = excluded.state"
)
_UPSERT_KV = (
    "INSERT INTO telemetry_kv (key, value) VALUES (?, ?) "
    "ON CONFLICT (key) DO UPDATE SET value = excluded.value"
)


def _write_state(
    conn: sqlite3.Connection,
    config: Dict[str, object],
    rows: Iterable[Tuple[str, str, bytes]],
) -> None:
    """Upsert unit rows and the estimator configuration."""
    conn.executemany(
        _UPSERT_UNIT,
        [(part, unit, state.decode("utf-8")) for part, unit, state in rows],
    )
    conn.execute(_UPSERT_KV, ("config", json.dumps(config, sort_keys=True)))


def _split_state_document(conn: sqlite3.Connection) -> None:
    """Migration 2: per-unit rows, importing a v1 ``state`` document."""
    conn.execute(
        """
        CREATE TABLE IF NOT EXISTS telemetry_units (
            part  TEXT,
            unit  TEXT,
            state TEXT NOT NULL,
            PRIMARY KEY (part, unit)
        )
        """
    )
    row = conn.execute(
        "SELECT value FROM telemetry_kv WHERE key = 'state'"
    ).fetchone()
    if row is None:
        return
    conn.execute("DELETE FROM telemetry_kv WHERE key = 'state'")
    try:
        estimator = RateEstimator.from_dict(json.loads(row[0]))
    except _UNREADABLE:
        get_logger("telemetry").warning(
            "discarding unreadable telemetry state during migration"
        )
        return
    _write_state(conn, estimator.config(), estimator.rest())


#: The telemetry schema, versioned via ``PRAGMA user_version``: v1 is a
#: key/value table of JSON documents (``state``, ``proposal``); v2
#: moves the estimator state into one row per unit and keeps its
#: configuration under the ``config`` key.
TELEMETRY_SCHEMA = Schema(
    "telemetry",
    [
        Migration(
            1,
            "kv table for estimator state and proposal",
            """
            CREATE TABLE IF NOT EXISTS telemetry_kv (
                key   TEXT PRIMARY KEY,
                value TEXT NOT NULL
            )
            """,
        ),
        Migration(
            2,
            "per-unit estimator rows; import the v1 state document",
            _split_state_document,
        ),
    ],
)


class TelemetryHub:
    """Thread-safe ingest/fit/propose state for one server or CLI."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        stats=None,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_batch: int = DEFAULT_MAX_BATCH,
        window_hours: float = 168.0,
        start_hours: float = 0.0,
    ) -> None:
        if max_pending < 1:
            raise TelemetryError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_batch < 1:
            raise TelemetryError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self.directory = Path(directory).expanduser() if directory else None
        if self.directory is None:
            self.db = SqliteStore(":memory:", TELEMETRY_SCHEMA)
        else:
            self.db = SqliteStore(
                self.directory / TELEMETRY_DB_FILENAME, TELEMETRY_SCHEMA
            )
        self.stats = stats
        self.max_pending = max_pending
        self.max_batch = max_batch
        self._lock = threading.Lock()
        self._pending = 0
        self._batches = 0
        self._duplicates = 0
        self._rejected = 0
        self._proposals = 0
        #: Rows put to rest but not yet committed (a failed save).
        self._unsaved: Dict[Tuple[str, str], bytes] = {}
        self._estimator = self._load_state(window_hours, start_hours)
        self._proposal = self._load_proposal()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def close(self) -> None:
        self.db.close()

    def _kv_get(self, key: str) -> Optional[Dict[str, object]]:
        with self.db.connection() as conn:
            row = conn.execute(
                "SELECT value FROM telemetry_kv WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        payload = json.loads(row["value"])
        return payload if isinstance(payload, dict) else None

    def _kv_set(self, key: str, payload: Dict[str, object]) -> None:
        with self.db.transaction() as conn:
            conn.execute(
                _UPSERT_KV, (key, json.dumps(payload, sort_keys=True))
            )

    def _legacy_document(
        self, filename: str
    ) -> Optional[Dict[str, object]]:
        """A pre-database JSON file's payload, if present and valid."""
        if self.directory is None:
            return None
        path = self.directory / filename
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _load_state(
        self, window_hours: float, start_hours: float
    ) -> RateEstimator:
        config = self._kv_get("config")
        try:
            if config is not None:
                with self.db.connection() as conn:
                    rows = conn.execute(
                        "SELECT part, unit, state FROM telemetry_units"
                    ).fetchall()
                return RateEstimator.from_rows(config, rows)
            legacy = self._legacy_document(STATE_FILENAME)
            if legacy is not None:
                estimator = RateEstimator.from_dict(legacy)
                with self.db.transaction() as conn:  # imported once
                    _write_state(conn, estimator.config(), estimator.rest())
                return estimator
        except _UNREADABLE:
            get_logger("telemetry").warning(
                "discarding unreadable telemetry state",
                extra={"path": str(self.db.path)},
            )
            with self.db.transaction() as conn:  # the fresh state's rows
                conn.execute("DELETE FROM telemetry_units")
                conn.execute("DELETE FROM telemetry_kv WHERE key = 'config'")
        return RateEstimator(
            start_hours=start_hours, window_hours=window_hours
        )

    def _load_proposal(self) -> Optional[Dict[str, object]]:
        payload = self._kv_get("proposal")
        if payload is None:
            payload = self._legacy_document(PROPOSAL_FILENAME)
        return payload

    def save(self) -> None:
        """Persist the units touched since the last save, with the
        estimator configuration, in one transaction."""
        for part, unit, state in self._estimator.rest():
            self._unsaved[(part, unit)] = state
        with self.db.transaction() as conn:
            _write_state(
                conn,
                self._estimator.config(),
                [(part, unit, state)
                 for (part, unit), state in self._unsaved.items()],
            )
        self._unsaved.clear()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, raw_events: object) -> Dict[str, object]:
        """Validate and apply one batch; the ingest result payload.

        The whole batch is checked first (size, schema, per-unit
        monotonicity against current state) and only then applied, so
        a 400 leaves the estimator untouched.  Admission is bounded:
        events admitted but not yet applied count against
        ``max_pending`` and overflow raises
        :class:`BacklogFullError` (429).
        """
        events = parse_events(raw_events)
        if len(events) > self.max_batch:
            raise TelemetryError(
                f"batch of {len(events)} events exceeds the "
                f"{self.max_batch}-event limit; split the batch",
                details={"events": len(events), "max_batch": self.max_batch},
            )
        with self._lock:
            if self._pending + len(events) > self.max_pending:
                if self.stats is not None:
                    self.stats.increment("telemetry_backpressure")
                raise BacklogFullError(
                    f"telemetry backlog is full "
                    f"({self._pending} pending events, cap "
                    f"{self.max_pending}); retry later",
                    details={
                        "pending": self._pending,
                        "max_pending": self.max_pending,
                    },
                )
            self._pending += len(events)
        tracer = get_tracer()
        try:
            with tracer.span(
                "telemetry.ingest", events=len(events)
            ) as span:
                with self._lock:
                    try:
                        self._validate_batch(events)
                    except TelemetryError:
                        self._rejected += len(events)
                        if self.stats is not None:
                            self.stats.increment(
                                "telemetry_events_rejected", len(events)
                            )
                        raise
                    accepted, duplicates = (
                        self._estimator.ingest_many(events)
                    )
                    self._batches += 1
                    self._duplicates += duplicates
                    self.save()
                    result = {
                        "accepted": accepted,
                        "duplicates": duplicates,
                        "events_total": self._estimator.events_total,
                        "parts": self._estimator.parts,
                        "units": self._estimator.units,
                        "state_digest": self._estimator.state_digest(),
                    }
                span.set_attr("accepted", accepted)
                span.set_attr("duplicates", duplicates)
        finally:
            with self._lock:
                self._pending -= len(events)
        if self.stats is not None:
            self.stats.increment("telemetry_batches")
            if accepted:
                self.stats.increment(
                    "telemetry_events_ingested", accepted
                )
            if duplicates:
                self.stats.increment(
                    "telemetry_events_duplicate", duplicates
                )
            self.stats.set_gauge("telemetry_parts", result["parts"])
            self.stats.set_gauge("telemetry_units", result["units"])
        return result

    def _validate_batch(self, events: List[FieldEvent]) -> None:
        """Dry-run per-unit monotonicity so application cannot fail."""
        cursors: Dict[tuple, int] = {}
        states: Dict[tuple, Optional[UnitState]] = {}
        for event in events:
            key = (event.part, event.unit)
            if key not in cursors:
                last = self._estimator.last_tick(event.part, event.unit)
                cursors[key] = (
                    last if last is not None else self._estimator.start_tick
                )
            if event.ticks <= cursors[key]:
                if key not in states:  # decoded only to check a replay
                    states[key] = self._estimator.unit_state(*key)
                state = states[key]
                if state is not None and event.event_id in state.seen:
                    continue  # replay: skipped at apply time
                raise OutOfOrderError(
                    f"event for {event.part!r}/{event.unit!r} at "
                    f"{event.time_hours} h is out of order within the "
                    "batch or behind the unit's accepted stream",
                    details={
                        "part": event.part,
                        "unit": event.unit,
                        "time_hours": event.time_hours,
                        "event_id": event.event_id,
                    },
                )
            else:
                cursors[key] = event.ticks

    # ------------------------------------------------------------------
    # status / fit / proposals
    # ------------------------------------------------------------------
    @property
    def estimator(self) -> RateEstimator:
        """The live estimator, for reading; ingest through the hub so
        every batch is saved."""
        return self._estimator

    def counts(self) -> Dict[str, object]:
        """The ``/metrics`` telemetry section."""
        with self._lock:
            return {
                "events_total": self._estimator.events_total,
                "parts": self._estimator.parts,
                "units": self._estimator.units,
                "batches": self._batches,
                "duplicates": self._duplicates,
                "rejected": self._rejected,
                "pending": self._pending,
                "max_pending": self.max_pending,
                "proposals": self._proposals,
            }

    def summary(self, confidence: float = 0.95) -> Dict[str, object]:
        """The ``GET /v1/calibration`` status payload."""
        with self._lock:
            with get_tracer().span(
                "telemetry.fit", parts=self._estimator.parts
            ):
                fitted = self._estimator.fit(confidence=confidence)
            proposal = self._proposal
            return {
                "events_total": self._estimator.events_total,
                "parts": self._estimator.parts,
                "units": self._estimator.units,
                "window_hours": self._estimator.window_hours,
                "event_window": self._estimator.event_window(),
                "state_digest": self._estimator.state_digest(),
                "fitted": fitted.to_dict(),
                "proposal": (
                    None
                    if proposal is None
                    else {
                        "model": proposal.get("model"),
                        "proposal_digest": proposal.get("proposal_digest"),
                        "candidate_digest": proposal.get(
                            "candidate_digest"
                        ),
                        "drifted_parts": proposal.get("drift", {}).get(
                            "drifted_parts"
                        ),
                    }
                ),
            }

    def propose(
        self,
        model: DiagramBlockModel,
        engine: Engine,
        drift_config: Optional[DriftConfig] = None,
        options: object = "direct",
        window_end_hours: Optional[float] = None,
        confidence: float = 0.95,
    ) -> Dict[str, object]:
        """Build, remember, and persist a calibration proposal."""
        with self._lock:
            proposal = build_proposal(
                self._estimator,
                model,
                engine,
                drift_config=drift_config,
                options=options,
                window_end_hours=window_end_hours,
                confidence=confidence,
            )
            self._proposal = proposal
            self._proposals += 1
            self._kv_set("proposal", proposal)
        if self.stats is not None:
            self.stats.increment("telemetry_proposals")
        return proposal

    @property
    def last_proposal(self) -> Optional[Dict[str, object]]:
        with self._lock:
            return self._proposal

    def require_proposal(self) -> Dict[str, object]:
        proposal = self.last_proposal
        if proposal is None:
            raise NoProposalError(
                "no calibration proposal exists; propose first"
            )
        return proposal

    def publish(
        self,
        registry,
        name: str,
        tag: Optional[str] = None,
        force: bool = False,
        threshold: Optional[float] = None,
    ):
        """Publish the remembered proposal; the registry's result."""
        proposal = self.require_proposal()
        result = publish_proposal(
            registry,
            proposal,
            name,
            tag=tag,
            force=force,
            threshold=threshold,
        )
        if self.stats is not None:
            self.stats.increment("telemetry_published")
        return result
