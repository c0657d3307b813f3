"""The ingest answer reports the state its own batch left behind."""

import threading

from repro.telemetry import (
    FieldEvent,
    RateEstimator,
    TelemetryHub,
    parse_events,
)


class HookStats:
    """Engine-stats stand-in that runs ``hook`` at the first batch count.

    The hub counts a batch after applying it; the hook lands a second
    thread's batch at exactly that point.
    """

    def __init__(self) -> None:
        self.hook = None

    def increment(self, name, amount=1):
        if name == "telemetry_batches" and self.hook is not None:
            hook, self.hook = self.hook, None
            hook()

    def set_gauge(self, name, value):
        pass


def batch(unit, times):
    return [
        FieldEvent("Sys/Disk", unit, kind, t).to_dict()
        for t, kind in zip(times, ("failure", "repair", "failure"))
    ]


def test_answer_is_read_before_another_batch_lands():
    first = batch("u#0", (10.0, 20.0, 30.0))
    second = batch("u#1", (15.0, 25.0, 35.0))
    stats = HookStats()
    hub = TelemetryHub(stats=stats)
    workers = []

    def land_second_batch():
        worker = threading.Thread(target=hub.ingest, args=(second,))
        workers.append(worker)
        worker.start()
        # A hub that still holds its lock here blocks the worker;
        # the timeout keeps that from hanging the test.
        worker.join(timeout=2.0)

    stats.hook = land_second_batch
    answer = hub.ingest(first)
    for worker in workers:
        worker.join(timeout=10.0)
        assert not worker.is_alive()

    alone = RateEstimator(window_hours=168.0)
    alone.ingest_many(parse_events(first))
    assert answer["state_digest"] == alone.state_digest()
    assert answer["events_total"] == len(first)
    assert answer["units"] == 1
    assert hub.counts()["events_total"] == len(first) + len(second)
