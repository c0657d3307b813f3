"""Telemetry persistence: per-unit rows, restart, and the v1 import."""

import json
import sqlite3
from contextlib import contextmanager

import pytest

from repro.errors import StoreBusyError
from repro.ident import canonical_json, content_digest
from repro.library import e10000_model
from repro.telemetry import (
    FieldEvent,
    RateEstimator,
    TelemetryHub,
    parse_events,
    synthetic_field_events,
)
from repro.telemetry.hub import (
    STATE_FILENAME,
    TELEMETRY_DB_FILENAME,
    TELEMETRY_SCHEMA,
)

BOOT_DISK = "E10000 Server/Boot Disk"


def trace_batches(size=7):
    """The 15-month Boot Disk trace as event-body batches."""
    events = synthetic_field_events(
        e10000_model(), window_hours=10_950.0, seed=3,
        mtbf_shifts={BOOT_DISK: 0.01},
    )
    bodies = [event.to_dict() for event in events]
    return [bodies[lo:lo + size] for lo in range(0, len(bodies), size)]


def reference(batches):
    """An estimator that only ever ingested ``batches``, in order."""
    estimator = RateEstimator(window_hours=168.0)
    for batch in batches:
        estimator.ingest_many(parse_events(batch))
    return estimator


def unit_rows(directory):
    with sqlite3.connect(directory / TELEMETRY_DB_FILENAME) as conn:
        return conn.execute(
            "SELECT part, unit, state FROM telemetry_units"
        ).fetchall()


def kv_keys(directory):
    with sqlite3.connect(directory / TELEMETRY_DB_FILENAME) as conn:
        return {
            key for (key,) in conn.execute("SELECT key FROM telemetry_kv")
        }


def write_v1_database(directory, state, proposal):
    """A version-1 file: whole-state and proposal kv documents."""
    directory.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(directory / TELEMETRY_DB_FILENAME)
    conn.execute(
        "CREATE TABLE telemetry_kv (key TEXT PRIMARY KEY, "
        "value TEXT NOT NULL)"
    )
    for key, payload in (("state", state), ("proposal", proposal)):
        conn.execute(
            "INSERT INTO telemetry_kv (key, value) VALUES (?, ?)",
            (key, json.dumps(payload, sort_keys=True)),
        )
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()


class TestRestart:
    def test_reopened_hub_has_the_same_state_and_dedups(self, tmp_path):
        batches = trace_batches()
        hub = TelemetryHub(tmp_path)
        for batch in batches:
            answer = hub.ingest(batch)
        digest = hub.estimator.state_digest()
        fit = hub.estimator.fit().digest()
        total = hub.estimator.events_total
        hub.close()
        assert answer["state_digest"] == digest

        reopened = TelemetryHub(tmp_path)
        assert reopened.estimator.state_digest() == digest
        assert reopened.estimator.fit().digest() == fit
        assert reopened.estimator.events_total == total
        expected = reference(batches)
        assert reopened.estimator.event_window() == expected.event_window()
        for part in expected.part_names:
            assert reopened.estimator.part_windows(part) == (
                expected.part_windows(part)
            )
        again = reopened.ingest(batches[-1])
        assert again["accepted"] == 0
        assert again["duplicates"] == len(batches[-1])
        assert again["events_total"] == total
        assert again["state_digest"] == digest
        reopened.close()

    def test_restart_keeps_the_configuration(self, tmp_path):
        hub = TelemetryHub(tmp_path, window_hours=24.0, start_hours=5.0)
        hub.ingest([FieldEvent("Sys/Disk", "u#0", "failure", 50.0)
                    .to_dict()])
        hub.close()
        reopened = TelemetryHub(tmp_path)  # defaults lose to the file
        assert reopened.estimator.window_hours == 24.0
        assert reopened.estimator.start_hours == 5.0
        reopened.close()


class TestRows:
    def test_each_row_is_the_units_canonical_json(self, tmp_path):
        batches = trace_batches()
        hub = TelemetryHub(tmp_path)
        for batch in batches:
            hub.ingest(batch)
        hub.close()
        expected = reference(batches)
        rows = unit_rows(tmp_path)
        assert len(rows) == expected.units
        for part, unit, state in rows:
            assert state == canonical_json(
                expected.unit_state(part, unit).to_dict()
            ).decode("utf-8")

    def test_configuration_is_its_own_kv_document(self, tmp_path):
        hub = TelemetryHub(tmp_path)
        hub.ingest(trace_batches()[0])
        hub.close()
        assert kv_keys(tmp_path) == {"config"}


def rewrite_row(directory, part, unit, text):
    with sqlite3.connect(directory / TELEMETRY_DB_FILENAME) as conn:
        conn.execute(
            "UPDATE telemetry_units SET state = ? "
            "WHERE part = ? AND unit = ?",
            (text, part, unit),
        )


class TestUnreadableRows:
    @pytest.mark.parametrize("text", [
        "{not json", "[]", "{}", '{"seen": 5}',
    ])
    def test_a_corrupted_row_discards_the_state_at_load(
        self, tmp_path, text
    ):
        batches = trace_batches()
        hub = TelemetryHub(tmp_path)
        for batch in batches:
            hub.ingest(batch)
        hub.close()
        part, unit, _ = unit_rows(tmp_path)[0]
        rewrite_row(tmp_path, part, unit, text)

        reopened = TelemetryHub(tmp_path)  # no error at load ...
        empty = RateEstimator(window_hours=168.0)
        assert reopened.estimator.units == 0
        assert reopened.estimator.events_total == 0
        assert reopened.summary()["state_digest"] == empty.state_digest()
        # ... nor after: the feed starts over on a fresh state.
        answer = reopened.ingest(batches[0])
        assert answer["accepted"] == len(batches[0])
        assert answer["state_digest"] == reference(batches[:1]).state_digest()
        reopened.close()
        # The discarded rows are gone, so a restart cannot revive them.
        assert len(unit_rows(tmp_path)) == reference(batches[:1]).units
        again = TelemetryHub(tmp_path)
        assert again.estimator.state_digest() == answer["state_digest"]
        again.close()

    def test_a_non_canonical_row_digests_canonically(self, tmp_path):
        batches = trace_batches()
        hub = TelemetryHub(tmp_path)
        for batch in batches:
            hub.ingest(batch)
        digest = hub.estimator.state_digest()
        hub.close()
        part, unit, state = unit_rows(tmp_path)[0]
        payload = json.loads(state)
        rewrite_row(tmp_path, part, unit, json.dumps(payload, indent=2))

        reopened = TelemetryHub(tmp_path)
        assert reopened.estimator.state_digest() == digest
        assert reopened.estimator.state_digest() == content_digest(
            reopened.estimator.to_dict()
        )
        reopened.close()


class TestFailedSave:
    def test_rows_of_a_failed_save_go_out_with_the_next(
        self, tmp_path, monkeypatch
    ):
        batches = [
            [FieldEvent("Sys/Disk", unit, "failure", 10.0).to_dict()]
            for unit in ("u#0", "u#1", "u#2")
        ]
        hub = TelemetryHub(tmp_path)
        hub.ingest(batches[0])

        @contextmanager
        def busy(immediate=False):
            raise StoreBusyError("locked", retry_after=0.1)
            yield  # pragma: no cover

        monkeypatch.setattr(hub.db, "transaction", busy)
        with pytest.raises(StoreBusyError):
            hub.ingest(batches[1])  # applied in memory, not committed
        monkeypatch.undo()
        hub.ingest(batches[2])  # touches another unit only
        hub.close()
        reopened = TelemetryHub(tmp_path)
        assert reopened.estimator.units == 3
        assert (
            reopened.estimator.state_digest()
            == reference(batches).state_digest()
        )
        reopened.close()


class TestV1Import:
    def test_state_document_becomes_one_row_per_unit(self, tmp_path):
        batches = trace_batches()
        expected = reference(batches)
        proposal = {"model": "E10000", "proposal_digest": "abc"}
        write_v1_database(tmp_path, expected.to_dict(), proposal)

        hub = TelemetryHub(tmp_path)
        assert hub.db.user_version() == TELEMETRY_SCHEMA.version == 2
        assert hub.estimator.state_digest() == expected.state_digest()
        assert hub.estimator.events_total == expected.events_total
        assert hub.last_proposal == proposal  # untouched
        hub.close()
        assert "state" not in kv_keys(tmp_path)
        rows = unit_rows(tmp_path)
        assert len(rows) == expected.units
        assert len({(part, unit) for part, unit, _ in rows}) == len(rows)

    def test_unreadable_state_document_is_discarded(self, tmp_path):
        write_v1_database(tmp_path, {"format": 99}, {"model": "m"})
        hub = TelemetryHub(tmp_path)
        assert hub.db.user_version() == 2
        assert hub.estimator.units == 0
        assert hub.last_proposal == {"model": "m"}
        hub.close()
        assert kv_keys(tmp_path) == {"proposal"}


class TestLegacyFile:
    def test_state_json_directory_still_loads(self, tmp_path):
        expected = reference(trace_batches())
        (tmp_path / STATE_FILENAME).write_text(
            json.dumps(expected.to_dict())
        )
        hub = TelemetryHub(tmp_path)
        assert hub.estimator.state_digest() == expected.state_digest()
        hub.close()
        # Imported into rows once: the file is no longer needed.
        (tmp_path / STATE_FILENAME).unlink()
        assert len(unit_rows(tmp_path)) == expected.units
        reopened = TelemetryHub(tmp_path)
        assert reopened.estimator.state_digest() == expected.state_digest()
        reopened.close()


#: Names that exercise ``ensure_ascii`` escaping and ``str`` ordering:
#: non-ASCII (in and beyond the BMP), quotes, backslashes, controls.
AWKWARD_PARTS = ('Sys/Dïsk "α"', "Sys\\CPU", "Sys/PSU\t😀", "Z", "a")
AWKWARD_UNITS = ('u"#0', "u\\#1", "ü#2", "u# ", "U#😀", "u#10", "u#9")


def awkward_events():
    events = []
    for p, part in enumerate(AWKWARD_PARTS):
        for u, unit in enumerate(AWKWARD_UNITS):
            base = 10.0 * (p + u + 1)
            events.append(FieldEvent(part, unit, "failure", base))
            events.append(FieldEvent(part, unit, "repair", base + 400.0))
    return events


class TestEscaping:
    def test_awkward_names_digest_like_the_canonical_document(self):
        estimator = RateEstimator(window_hours=168.0)
        estimator.ingest_many(awkward_events())
        expected = content_digest(estimator.to_dict())
        assert estimator.state_digest() == expected
        # And again from rest, after a partial re-touch.
        estimator.ingest(FieldEvent('Sys/Dïsk "α"', 'u"#0', "failure",
                                    9_000.0))
        assert estimator.state_digest() == content_digest(
            estimator.to_dict()
        )

    def test_awkward_names_survive_rows_and_restart(self, tmp_path):
        events = awkward_events()
        hub = TelemetryHub(tmp_path)
        hub.ingest([event.to_dict() for event in events])
        hub.close()
        reopened = TelemetryHub(tmp_path)
        expected = RateEstimator(window_hours=168.0)
        expected.ingest_many(events)
        assert reopened.estimator.state_digest() == content_digest(
            expected.to_dict()
        )
        assert reopened.estimator.to_dict() == expected.to_dict()
        reopened.close()
