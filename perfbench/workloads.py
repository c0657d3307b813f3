"""The three workloads: seeded request bodies and in-process references.

Every body is a pure function of ``(seed, connection, index)``.  The
server receives only those bodies; the references are computed here,
in the client process, from the same library code the server runs.

* ``solve_warm`` — ``POST /v1/solve {"model_ref": name}`` cycling the
  three library models, each cycle in a seeded order.  After warm-up
  every solve is an engine cache hit, so the time goes to protocol,
  registry resolve, ``parse_spec``, the queue and ``core.measures``.
* ``sweep_cold`` — ``POST /v1/sweep`` of an inline E10000 spec whose
  CPU Module tolerates 34 failures (a 208-state chain).  Each request
  carries :data:`SWEEP_POINTS` seeded ``mtbf_hours`` values that never
  repeat within a run, so every point misses the block cache and the
  time goes to the engine, ``core.generator``, ``markov`` and ``num``.
* ``ingest_stream`` — ``POST /v1/events`` batches of a seeded
  ``synthetic_field_events`` trace over a growing fleet of servers.
  Units are split between connections by a hash of their name, so
  each unit's events arrive in order.  The time goes to protocol
  (bodies of several KiB), telemetry, and store write transactions.
"""

from __future__ import annotations

import copy
import json
import random
import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

LIBRARY = ("e10000", "datacenter", "workgroup")

SWEEP_BLOCK = "E10000 Server/CPU Module"
SWEEP_MIN_REQUIRED = 30
SWEEP_POINTS = 4
#: Measured values are 50 000 h + k/100 h for distinct integers k.
SWEEP_BASE_HOURS = 50_000.0
SWEEP_STEPS = 10_000_000
#: Warm-up values lie below the measured range, so they never collide.
SWEEP_WARMUP_VALUES = (20_000.0, 30_000.0)

#: Events per ``POST /v1/events`` batch.
INGEST_BATCH = 50
#: Hours of field history each simulated server reports.
INGEST_WINDOW_HOURS = 8_760.0
#: Every leaf block fails at this multiple of its datasheet MTBF, so a
#: server-year yields about a thousand events: enough for a run to
#: ingest thousands of events while the estimator state grows.
INGEST_MTBF_FACTOR = 0.005
#: The server's default drift-ladder window (``--telemetry-window``).
INGEST_ESTIMATOR_WINDOW = 168.0


def encode(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _rng(seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *salt)))


# ----------------------------------------------------------------------
# solve_warm
# ----------------------------------------------------------------------
def solve_model_name(seed: int, connection: int, index: int) -> str:
    """The library model request ``index`` of ``connection`` names.

    Requests cycle the three models; each cycle is a seeded
    permutation, so every model gets an equal share of the traffic.
    """
    cycle, position = divmod(index, len(LIBRARY))
    order = list(LIBRARY)
    _rng(seed, "solve", connection, cycle).shuffle(order)
    return order[position]


def solve_body(name: str) -> bytes:
    return encode({"model_ref": name})


def solve_references() -> Dict[str, bytes]:
    """Model name -> the exact ``/v1/solve`` body the server must send."""
    from repro.core import translate
    from repro.library import datacenter_model, e10000_model, workgroup_model
    from repro.service.app import solution_payload
    from repro.spec import model_to_spec, parse_spec

    factories = {
        "e10000": e10000_model,
        "datacenter": datacenter_model,
        "workgroup": workgroup_model,
    }
    return {
        name: encode(solution_payload(
            translate(parse_spec(model_to_spec(factory())))
        ))
        for name, factory in factories.items()
    }


# ----------------------------------------------------------------------
# sweep_cold
# ----------------------------------------------------------------------
def sweep_spec() -> Dict[str, object]:
    """The E10000 spec with its CPU Module widened to a 208-state chain."""
    from repro.library import e10000_model
    from repro.spec import model_to_spec

    spec = copy.deepcopy(model_to_spec(e10000_model()))
    for block in spec["diagram"]["blocks"]:  # type: ignore[index]
        if block["name"] == SWEEP_BLOCK.rsplit("/", 1)[1]:
            block["min_required"] = SWEEP_MIN_REQUIRED
            return spec
    raise KeyError(SWEEP_BLOCK)


class SweepValues:
    """Seeded, never-repeating ``mtbf_hours`` values per connection.

    Connection ``c`` of ``n`` draws step numbers ``k`` with
    ``k % n == c``, so no value repeats across connections either.
    """

    def __init__(self, seed: int, connection: int, connections: int) -> None:
        self._rng = _rng(seed, "sweep", connection)
        self._connection = connection
        self._connections = connections
        self._seen: set = set()
        self._batches: List[Tuple[float, ...]] = []

    def batch(self, index: int) -> Tuple[float, ...]:
        while len(self._batches) <= index:
            values = []
            while len(values) < SWEEP_POINTS:
                step = self._rng.randrange(
                    SWEEP_STEPS // self._connections
                ) * self._connections + self._connection
                if step not in self._seen:
                    self._seen.add(step)
                    values.append(SWEEP_BASE_HOURS + step / 100.0)
            self._batches.append(tuple(values))
        return self._batches[index]


def sweep_body(spec: Dict[str, object], values: Sequence[float]) -> bytes:
    return encode({
        "spec": spec,
        "block": SWEEP_BLOCK,
        "field": "mtbf_hours",
        "values": list(values),
    })


class SweepReference:
    """In-process ``Engine.sweep_block_field`` answers, memoized per batch."""

    def __init__(self, spec: Dict[str, object]) -> None:
        from repro.engine import Engine
        from repro.spec import parse_spec

        self.model = parse_spec(spec)
        self.engine = Engine(jobs=1)
        self._answers: Dict[Tuple[float, ...], bytes] = {}

    def expected(self, values: Tuple[float, ...]) -> bytes:
        if values not in self._answers:
            points = self.engine.sweep_block_field(
                self.model, SWEEP_BLOCK, "mtbf_hours", list(values)
            )
            self._answers[values] = encode({
                "model": self.model.name,
                "field": "mtbf_hours",
                "block": SWEEP_BLOCK,
                "points": [
                    {
                        "value": point.value,
                        "availability": point.availability,
                        "yearly_downtime_minutes": (
                            point.yearly_downtime_minutes
                        ),
                    }
                    for point in points
                ],
            })
        return self._answers[values]


# ----------------------------------------------------------------------
# ingest_stream
# ----------------------------------------------------------------------
def connection_of(unit: str, connections: int) -> int:
    """The connection that owns ``unit``'s events."""
    return zlib.crc32(unit.encode("utf-8")) % connections


def server_events(seed: int, server: str) -> list:
    """One simulated server's field events, in canonical order."""
    from repro.library import e10000_model
    from repro.telemetry import synthetic_field_events
    from repro.telemetry.source import reference_rates

    model = e10000_model()
    shifts = {path: INGEST_MTBF_FACTOR for path in reference_rates(model)}
    return synthetic_field_events(
        model, window_hours=INGEST_WINDOW_HOURS, seed=seed,
        server=server, mtbf_shifts=shifts,
    )


class EventStream:
    """The fleet trace, split into per-connection batches on demand.

    Servers ``srv-000``, ``srv-001``, ... are generated lazily in
    order; connection ``c`` sends the events of its own units, server
    after server, :data:`INGEST_BATCH` at a time.
    """

    def __init__(self, seed: int, connections: int) -> None:
        self.seed = seed
        self.connections = connections
        self._lock = threading.Lock()
        self._servers: List[list] = []
        self._streams: List[list] = [[] for _ in range(connections)]

    def _extend(self) -> None:
        events = server_events(self.seed, f"srv-{len(self._servers):03d}")
        self._servers.append(events)
        for event in events:
            self._streams[connection_of(event.unit, self.connections)].append(
                event
            )

    def batch(self, connection: int, index: int) -> list:
        with self._lock:
            needed = (index + 1) * INGEST_BATCH
            while len(self._streams[connection]) < needed:
                self._extend()
            return self._streams[connection][
                index * INGEST_BATCH:needed
            ]


def warmup_events(seed: int) -> list:
    """The warm-up batch: a server outside the measured fleet."""
    return server_events(seed, "warmup")[:INGEST_BATCH]


def events_body(events: Sequence) -> bytes:
    return encode({"events": [event.to_dict() for event in events]})


def ingest_reference(batches: Sequence[Sequence]) -> Tuple[str, int]:
    """``(state_digest, state bytes)`` after applying ``batches`` in order."""
    from repro.telemetry import RateEstimator

    estimator = RateEstimator(window_hours=INGEST_ESTIMATOR_WINDOW)
    for batch in batches:
        estimator.ingest_many(batch)
    state = json.dumps(estimator.to_dict(), sort_keys=True)
    return estimator.state_digest(), len(state.encode("utf-8"))


def check_ingest_answer(body: bytes, sent: int) -> Optional[str]:
    """Why one ingest answer is wrong, or None if it is right."""
    answer = json.loads(body)
    if answer.get("accepted") != sent or answer.get("duplicates") != 0:
        return (
            f"accepted {answer.get('accepted')} / duplicates "
            f"{answer.get('duplicates')} for {sent} new events"
        )
    return None
