"""Seeded generators: same seed, same bodies; the stated invariants."""

import json

import workloads


def test_solve_bodies_repeat_per_seed_and_cycle_the_library():
    first = [workloads.solve_model_name(7, 0, i) for i in range(30)]
    again = [workloads.solve_model_name(7, 0, i) for i in range(30)]
    other = [workloads.solve_model_name(8, 0, i) for i in range(30)]
    assert first == again
    assert first != other
    for cycle in range(10):
        assert sorted(first[3 * cycle:3 * cycle + 3]) == sorted(
            workloads.LIBRARY
        )
    assert json.loads(workloads.solve_body("e10000")) == {
        "model_ref": "e10000"
    }


def test_sweep_values_repeat_per_seed_and_never_collide():
    spec = workloads.sweep_spec()

    def bodies(seed, connection):
        values = workloads.SweepValues(seed, connection, 2)
        return [
            workloads.sweep_body(spec, values.batch(i)) for i in range(50)
        ]

    assert bodies(3, 0) == bodies(3, 0)
    assert bodies(3, 0) != bodies(4, 0)
    seen = []
    for connection in range(2):
        source = workloads.SweepValues(3, connection, 2)
        for index in range(200):
            batch = source.batch(index)
            assert len(batch) == workloads.SWEEP_POINTS
            seen.extend(batch)
    assert len(seen) == len(set(seen))
    assert min(seen) > max(workloads.SWEEP_WARMUP_VALUES)


def test_sweep_spec_widens_only_the_cpu_module():
    from repro.library import e10000_model
    from repro.spec import model_to_spec

    original = model_to_spec(e10000_model())
    widened = workloads.sweep_spec()
    changed = [
        (a["name"], a["min_required"], b["min_required"])
        for a, b in zip(
            original["diagram"]["blocks"], widened["diagram"]["blocks"]
        )
        if a != b
    ]
    assert changed == [("CPU Module", 60, workloads.SWEEP_MIN_REQUIRED)]


def test_event_batches_repeat_per_seed_and_keep_unit_order():
    first = workloads.EventStream(5, 2)
    again = workloads.EventStream(5, 2)
    other = workloads.EventStream(6, 2)
    for connection in range(2):
        for index in range(30):
            assert workloads.events_body(
                first.batch(connection, index)
            ) == workloads.events_body(again.batch(connection, index))
    assert first.batch(0, 0) != other.batch(0, 0)

    owner = {}
    last_tick = {}
    for connection in range(2):
        for index in range(30):
            batch = first.batch(connection, index)
            assert len(batch) == workloads.INGEST_BATCH
            for event in batch:
                assert owner.setdefault(event.unit, connection) == connection
                assert event.ticks > last_tick.get(event.unit, -1)
                last_tick[event.unit] = event.ticks


def test_warmup_units_are_outside_the_measured_fleet():
    batch = workloads.warmup_events(5)
    assert len(batch) == workloads.INGEST_BATCH
    warm = {event.unit for event in batch}
    stream = workloads.EventStream(5, 2)
    measured = {
        event.unit
        for connection in range(2)
        for index in range(30)
        for event in stream.batch(connection, index)
    }
    assert warm and not warm & measured


def test_ingest_reference_is_order_free_across_units():
    stream = workloads.EventStream(5, 2)
    conn0 = [stream.batch(0, i) for i in range(5)]
    conn1 = [stream.batch(1, i) for i in range(5)]
    interleaved = [b for pair in zip(conn0, conn1) for b in pair]
    assert workloads.ingest_reference(conn0 + conn1) == (
        workloads.ingest_reference(interleaved)
    )


def test_check_ingest_answer():
    good = json.dumps({"accepted": 3, "duplicates": 0}).encode()
    dup = json.dumps({"accepted": 2, "duplicates": 1}).encode()
    assert workloads.check_ingest_answer(good, 3) is None
    assert workloads.check_ingest_answer(dup, 3) is not None
