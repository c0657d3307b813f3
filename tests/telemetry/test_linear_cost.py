"""Complexity regression: a telemetry batch costs O(units it touches).

Field feeds run for months, so the cost of one ``POST /v1/events``
batch must not grow with everything ingested before it.  The hub
re-encodes and upserts only the units a batch touches; what stays
proportional to the whole state is one SHA-256 pass over the resting
bytes.  A deterministic test counts the per-unit work, and a timing
test bounds late batches against early ones on a fleet stream shaped
like the ``ingest_stream`` benchmark's (50-event batches of E10000
servers whose every part runs at 0.5 % of its datasheet MTBF).
"""

import gc
import sqlite3
import statistics
import time

import pytest

from repro.engine import Engine
from repro.library import e10000_model
from repro.telemetry import (
    FieldEvent,
    OutOfOrderError,
    TelemetryHub,
    synthetic_field_events,
)
from repro.telemetry.estimator import UnitState
from repro.telemetry.hub import TELEMETRY_DB_FILENAME
from repro.telemetry.source import reference_rates

BATCH = 50

#: Largest allowed ratio of late-batch to early-batch CPU time.  Work
#: proportional to the state (re-encoding and rewriting all of it)
#: measured about 12x here; touched-units work plus the one hash pass
#: about 2x.
MAX_LATE_TO_EARLY = 4.0
EARLY = range(30, 50)    # batches 31-50
LATE = range(390, 410)   # batches 391-410


def fleet_batches(count, seed=3):
    """``count`` 50-event batches of consecutive simulated servers."""
    model = e10000_model()
    shifts = {path: 0.005 for path in reference_rates(model)}
    events = []
    server = 0
    while len(events) < count * BATCH:
        events.extend(synthetic_field_events(
            model, window_hours=8_760.0, seed=seed,
            server=f"srv-{server:03d}", mtbf_shifts=shifts,
        ))
        server += 1
    bodies = [event.to_dict() for event in events]
    return [bodies[i * BATCH:(i + 1) * BATCH] for i in range(count)]


def count_upserts(directory):
    """Install triggers counting every insert and update of a row."""
    with sqlite3.connect(directory / TELEMETRY_DB_FILENAME) as conn:
        conn.executescript(
            """
            CREATE TABLE upserts (n INTEGER NOT NULL);
            INSERT INTO upserts VALUES (0);
            CREATE TRIGGER count_insert AFTER INSERT ON telemetry_units
            BEGIN UPDATE upserts SET n = n + 1; END;
            CREATE TRIGGER count_update AFTER UPDATE ON telemetry_units
            BEGIN UPDATE upserts SET n = n + 1; END;
            """
        )


def upserts(directory):
    with sqlite3.connect(directory / TELEMETRY_DB_FILENAME) as conn:
        return conn.execute("SELECT n FROM upserts").fetchone()[0]


def count_encodes(monkeypatch):
    """Count ``UnitState.to_dict`` calls (one per unit encoded)."""
    encodes = [0]
    to_dict = UnitState.to_dict

    def counted(self):
        encodes[0] += 1
        return to_dict(self)

    monkeypatch.setattr(UnitState, "to_dict", counted)
    return encodes


def count_decodes(monkeypatch):
    """Count ``UnitState.from_dict`` calls (one per unit decoded)."""
    decodes = [0]
    from_dict = UnitState.from_dict

    def counted(payload):
        decodes[0] += 1
        return from_dict(payload)

    monkeypatch.setattr(UnitState, "from_dict", staticmethod(counted))
    return decodes


def test_batch_work_is_bounded_by_the_units_it_touches(
    tmp_path, monkeypatch
):
    encodes = count_encodes(monkeypatch)
    hub = TelemetryHub(tmp_path)
    count_upserts(tmp_path)
    for index, batch in enumerate(fleet_batches(60)):
        touched = len({(event["part"], event["unit"]) for event in batch})
        encodes[0] = 0
        before = upserts(tmp_path)
        hub.ingest(batch)
        assert encodes[0] <= touched, index
        assert upserts(tmp_path) - before <= touched, index
    assert hub.estimator.units > 5 * touched  # the state outgrew a batch
    hub.close()


def test_batches_that_change_nothing_write_nothing(tmp_path, monkeypatch):
    batches = fleet_batches(22)
    hub = TelemetryHub(tmp_path)
    for batch in batches[:20]:
        hub.ingest(batch)
    count_upserts(tmp_path)
    encodes = count_encodes(monkeypatch)

    replay = hub.ingest(batches[5])  # a client retry: all duplicates
    assert replay["accepted"] == 0
    assert encodes[0] == 0
    assert upserts(tmp_path) == 0

    first = batches[0][0]
    behind = FieldEvent(first["part"], first["unit"], "repair", 1e-3)
    with pytest.raises(OutOfOrderError):  # a 400: the batch is rejected
        hub.ingest(batches[20] + [behind.to_dict()])
    hub.ingest(batches[21])
    touched = {(event["part"], event["unit"]) for event in batches[21]}
    assert encodes[0] <= len(touched)
    assert upserts(tmp_path) <= len(touched)
    hub.close()


def test_reads_decode_no_resting_unit(tmp_path, monkeypatch):
    hub = TelemetryHub(tmp_path)
    for batch in fleet_batches(60):
        hub.ingest(batch)
    units = hub.estimator.units
    decodes = count_decodes(monkeypatch)
    summary = hub.summary()  # GET /v1/calibration
    assert summary["units"] == units
    assert decodes[0] == 0
    proposal = hub.propose(e10000_model(), Engine())
    assert proposal["drift"]["drifted_parts"]
    assert decodes[0] == 0
    hub.close()


def test_late_batches_cost_about_what_early_ones_do(tmp_path):
    batches = fleet_batches(LATE[-1] + 1)
    hub = TelemetryHub(tmp_path)
    seconds = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for batch in batches:
            start = time.process_time()
            hub.ingest(batch)
            seconds.append(time.process_time() - start)
    finally:
        if enabled:
            gc.enable()
    hub.close()
    early = statistics.median(seconds[i] for i in EARLY)
    late = statistics.median(seconds[i] for i in LATE)
    assert late <= MAX_LATE_TO_EARLY * early, (
        f"batches {LATE[0] + 1}-{LATE[-1] + 1} cost {late * 1e3:.2f} ms, "
        f"{late / early:.1f}x batches {EARLY[0] + 1}-{EARLY[-1] + 1} "
        f"({early * 1e3:.2f} ms); bound {MAX_LATE_TO_EARLY}x"
    )
