"""Property-based tests for the telemetry estimator (hypothesis).

The load-bearing invariant of the streaming estimator is that its
fitted rates are a pure function of the event *set*, not of the order
events arrive or the tree shape merges take.  These properties drive
randomized per-unit event streams through permuted interleavings and
arbitrary merge trees and require bit-identical state and fit digests.
A last property runs random programs over the estimator's API, so
units move between live objects and resting bytes in every order, and
checks each observation against ``content_digest(to_dict())`` of an
estimator that only ever ingested.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ident import canonical_json, content_digest
from repro.telemetry import FieldEvent, RateEstimator

PARTS = ("Sys/Disk", "Sys/CPU", "Sys/PSU")


@st.composite
def unit_streams(draw, max_units=4, max_events=6):
    """A dict unit -> monotone event list, the legal per-unit order."""
    n_units = draw(st.integers(min_value=1, max_value=max_units))
    streams = {}
    for u in range(n_units):
        unit = f"u#{u}"
        part = draw(st.sampled_from(PARTS))
        n_events = draw(st.integers(min_value=1, max_value=max_events))
        # Strictly increasing integer-hour timestamps keep the stream
        # monotone per unit without floating-point ties.
        times = sorted(
            draw(
                st.sets(
                    st.integers(min_value=1, max_value=5_000),
                    min_size=n_events,
                    max_size=n_events,
                )
            )
        )
        events, down = [], False
        for t in times:
            kind = "repair" if down else draw(
                st.sampled_from(["failure", "latent_detect"])
            )
            down = kind == "failure"
            events.append(FieldEvent(part, unit, kind, float(t)))
        streams[unit] = events
    return streams


def interleave(streams, order_seed):
    """Deterministically interleave unit streams, preserving each
    unit's internal order (the only order the estimator requires)."""
    cursors = {unit: 0 for unit in streams}
    merged = []
    step = 0
    while any(cursors[u] < len(streams[u]) for u in streams):
        live = sorted(
            u for u in streams if cursors[u] < len(streams[u])
        )
        unit = live[(order_seed + step) % len(live)]
        merged.append(streams[unit][cursors[unit]])
        cursors[unit] += 1
        step += 1
    return merged


def ingest(events):
    estimator = RateEstimator(window_hours=168.0)
    estimator.ingest_many(events)
    return estimator


class TestIngestOrderInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(streams=unit_streams(), seeds=st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ))
    def test_any_legal_interleaving_is_bit_identical(self, streams, seeds):
        first = ingest(interleave(streams, seeds[0]))
        second = ingest(interleave(streams, seeds[1]))
        assert first.state_digest() == second.state_digest()
        assert first.fit().digest() == second.fit().digest()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(streams=unit_streams())
    def test_replay_of_the_whole_stream_is_a_no_op(self, streams):
        events = interleave(streams, 0)
        estimator = ingest(events)
        digest = estimator.state_digest()
        accepted, duplicates = estimator.ingest_many(events)
        assert accepted == 0
        assert duplicates == len(events)
        assert estimator.state_digest() == digest


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(streams=unit_streams(max_units=5))
    def test_merge_tree_shape_is_irrelevant(self, streams):
        shards = [ingest(events) for events in streams.values()]
        # Left fold, right fold, and the single-pass reference must
        # all land on the same state.
        left = shards[0]
        for shard in shards[1:]:
            left = left.merge(shard)
        right = shards[-1]
        for shard in reversed(shards[:-1]):
            right = shard.merge(right)
        single = ingest(interleave(streams, 0))
        assert (
            left.state_digest()
            == right.state_digest()
            == single.state_digest()
        )
        assert left.fit().digest() == single.fit().digest()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(streams=unit_streams(max_units=4), pivot=st.integers(
        min_value=0, max_value=3
    ))
    def test_merge_is_commutative_at_any_split(self, streams, pivot):
        units = sorted(streams)
        cut = min(pivot, len(units) - 1)
        head = {u: streams[u] for u in units[: cut + 1]}
        tail = {u: streams[u] for u in units[cut + 1 :]}
        if not tail:
            return
        a = ingest(interleave(head, 0))
        b = ingest(interleave(tail, 0))
        assert a.merge(b).state_digest() == b.merge(a).state_digest()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(streams=unit_streams(max_units=3))
    def test_merged_state_survives_serialization(self, streams):
        shards = [ingest(events) for events in streams.values()]
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        restored = RateEstimator.from_dict(merged.to_dict())
        assert restored.state_digest() == merged.state_digest()
        assert restored.fit().digest() == merged.fit().digest()


class TestOverlapRefusal:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(streams=unit_streams(max_units=2))
    def test_a_shard_never_merges_with_itself(self, streams):
        estimator = ingest(interleave(streams, 0))
        twin = ingest(interleave(streams, 0))
        with pytest.raises(ValueError):
            estimator.merge(twin)


#: Operations of a random estimator program.
OPERATIONS = (
    "ingest", "ingest", "digest", "merge", "round_trip", "reload", "fit",
    "peek", "replay", "events_total",
)


def windows(estimator):
    """Everything the drift detector and the proposal read."""
    return estimator.event_window(), [
        (part, estimator.part_windows(part))
        for part in estimator.part_names
    ]


def reload(estimator):
    """The estimator rebuilt from per-unit rows, as a hub restart does."""
    document = estimator.to_dict()
    rows = [
        (part, unit, canonical_json(state).decode("utf-8"))
        for part, units in document["units"].items()
        for unit, state in units.items()
    ]
    return RateEstimator.from_rows(estimator.config(), rows)


class TestRestingFormOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        streams=unit_streams(max_units=6, max_events=5),
        merged_units=st.integers(min_value=0, max_value=3),
        program=st.lists(
            st.tuples(
                st.sampled_from(OPERATIONS),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=14,
        ),
    )
    def test_every_observation_matches_the_canonical_document(
        self, streams, merged_units, program
    ):
        units = sorted(streams)
        shards = [streams[u] for u in units[:merged_units]]
        events = interleave(
            {u: streams[u] for u in units[merged_units:]}, 0
        )
        estimator = RateEstimator(window_hours=168.0)
        applied, last = [], []

        def oracle():
            reference = ingest(applied)
            return reference, content_digest(reference.to_dict())

        for operation, size in program + [("ingest", len(events))] + [
            ("merge", 0)
        ] * len(shards):
            if operation == "ingest":
                last = events[:size]
                del events[:size]
                estimator.ingest_many(last)
                applied.extend(last)
            elif operation == "replay":
                assert estimator.ingest_many(last) == (0, len(last))
            elif operation == "merge" and shards:
                shard = shards.pop()
                estimator = estimator.merge(ingest(shard))
                applied.extend(shard)
            elif operation == "round_trip":
                estimator = RateEstimator.from_dict(estimator.to_dict())
            elif operation == "reload":
                estimator = reload(estimator)
            elif operation == "peek" and applied:
                event = applied[size % len(applied)]
                estimator.rest()
                assert estimator.unit_state(event.part, event.unit)
                assert estimator.rest() == []  # reading wakes nothing
            reference, expected = oracle()
            if operation == "digest":
                assert estimator.state_digest() == expected
            elif operation == "fit":
                assert estimator.fit().digest() == reference.fit().digest()
            elif operation == "events_total":
                assert estimator.events_total == len(applied)
            assert content_digest(estimator.to_dict()) == expected
            assert windows(estimator) == windows(reference)
        assert estimator.state_digest() == oracle()[1]
        assert estimator.events_total == len(applied)
