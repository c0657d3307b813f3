"""The repository benchmark: one workload against a served ``rascad``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_warm --seed 1 --seconds 20 --trace 0

Each run spawns ``python -m repro serve --jobs 1 --cache-dir <fresh>``
(file-backed stores, as deployed), drives it as a closed loop over
:data:`CONNECTIONS` keep-alive connections, and checks every answer
against an in-process reference.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: throughput, client-side
latency p50/p90, set-up time (median of :data:`SETUPS` spawns to a
healthy ``/healthz`` plus warm-up), the server's peak RSS and its CPU
per request.

``--trace 1`` runs the workload twice, once on the plain server and
once on the same server started through ``launcher.py``, which times
each layer's public functions.  It reports per-layer metrics from the
spans and from ``/metrics`` counter deltas, plus the tracing overhead
(the traced run's throughput and latency against the plain run's).

Everything the run writes lives under ``.perfbench_tmp/`` in the
repository root and is removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from harness import BenchError, Exchange, LoopResult, Server  # noqa: E402

#: Keep-alive connections the closed loop drives (the sandbox has 2 CPUs).
CONNECTIONS = 2
#: Server spawns per run whose set-up times ``setup_s`` is the median of.
SETUPS = 5
#: The tail percentile reported.
TAIL_Q = 0.90
#: Windows the measured phase is cut into.  The fastest and the
#: slowest window are dropped and every end-to-end figure except
#: ``setup_s`` and ``server_rss_mb`` comes from the rest.
WINDOWS = 6
#: A run adds windows, up to this multiple of ``--seconds``, until the
#: kept windows hold at least 10 samples beyond the p90.
MAX_OVERRUN = 4.0

#: Layers this benchmark does not measure, and why.
UNMEASURED = {
    "jobs": "needs separate worker processes",
    "cluster": "needs worker processes; scaling cannot show on 2 CPUs",
    "studies": "needs long-running background evaluation",
}

#: Stores whose ``/metrics`` storage counters are reported: the two the
#: workloads touch (the jobs and studies stores stay idle).
STORES = ("registry", "telemetry")
BACKENDS = ("dense-direct", "gth", "power", "sparse-direct", "sparse-iterative")

#: Layer self-time shares: metric prefix -> span names it sums.
SHARES = {
    "app.unattributed": ("app.handle",),
    "queue": ("queue.solve",),
    "registry": ("registry.resolve",),
    "spec": ("spec.parse",),
    "engine": ("engine.solve", "engine.sweep"),
    "generator": ("generator.chain",),
    "measures": ("measures.compute",),
    "num": ("num.steady",),
    "store": ("store.txn", "store.conn"),
    "telemetry": (
        "telemetry.ingest", "telemetry.apply", "telemetry.save",
        "telemetry.digest",
    ),
    "telemetry.apply": ("telemetry.apply",),
    "telemetry.save": ("telemetry.save",),
    "telemetry.digest": ("telemetry.digest",),
}

#: Per-call p50 times printed in the attribution table: metric -> span.
CALL_TIMES = {
    "protocol.read_ms": "protocol.read",
    "protocol.encode_ms": "protocol.encode",
    "app.handle_ms": "app.handle",
    "app.decode_ms": "app.decode",
    "queue.solve_ms": "queue.solve",
    "registry.resolve_ms": "registry.resolve",
    "spec.parse_ms": "spec.parse",
    "engine.solve_ms": "engine.solve",
    "engine.sweep_ms": "engine.sweep",
    "generator.chain_ms": "generator.chain",
    "measures.compute_ms": "measures.compute",
    "num.steady_ms": "num.steady",
    "store.txn_span_ms": "store.txn",
    "store.conn_span_ms": "store.conn",
    "telemetry.ingest_ms": "telemetry.ingest",
    "telemetry.apply_ms": "telemetry.apply",
    "telemetry.save_ms": "telemetry.save",
    "telemetry.digest_ms": "telemetry.digest",
}

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MiB",
    "server_cpu_ms_per_req": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Every ``--trace 1`` metric name -> its unit, in report order."""
    units = {
        "protocol.read_ms": "ms",
        "protocol.encode_ms": "ms",
        "protocol.bytes_in": "B",
        "protocol.bytes_out": "B",
        "app.handle_ms": "ms",
        "app.decode_ms": "ms",
        "app.unattributed_ms": "ms",
    }
    for prefix in SHARES:
        units[f"{prefix}.share_pct"] = "%"
    units.update({
        "trace.requests": "count",
        "queue.solve_calls": "count",
        "queue.dedup_ratio": "ratio",
        "queue.batches": "count",
        "queue.batch_mean": "count",
        "queue.rejections": "count",
        "registry.resolve_calls": "count",
        "spec.parse_calls": "count",
        "engine.system_lookups": "count",
        "engine.system_hit_ratio": "ratio",
        "engine.block_lookups": "count",
        "engine.block_hit_ratio": "ratio",
        "engine.block_solves": "count",
        "generator.calls": "count",
        "generator.states_per_call": "count",
        "measures.calls": "count",
        "num.steady_calls": "count",
    })
    for backend in BACKENDS:
        units[f"num.by_backend.{backend}"] = "count"
    for store in STORES:
        units[f"store.{store}.txn_count"] = "count"
        units[f"store.{store}.busy_retries"] = "count"
        units[f"store.{store}.bytes_delta"] = "B"
    units.update({
        "telemetry.batches": "count",
        "telemetry.state_bytes": "B",
        "tracing.throughput_overhead_pct": "%",
        "tracing.latency_overhead_pct": "%",
    })
    return units


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One traffic mix: warm-up, request sources and answer checks."""

    name = ""
    path = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self, server: Server) -> None:
        raise NotImplementedError

    def sources(self) -> List[harness.Source]:
        raise NotImplementedError

    def check(self, exchange: Exchange) -> Optional[str]:
        """Why one 200 answer is wrong, or None."""
        raise NotImplementedError

    def finish(
        self, server: Server, loop: LoopResult
    ) -> Tuple[Dict[str, float], List[str]]:
        """Checks on the server after the measured phase:
        ``(extra per-layer figures, failures)``."""
        return {}, []


def _post_ok(server: Server, path: str, body: bytes) -> bytes:
    status, answer = harness.request_once(server, "POST", path, body)
    if status != 200:
        raise BenchError(f"warm-up POST {path} answered {status}")
    return answer


class SolveWarm(Workload):
    name = "solve_warm"
    path = "/v1/solve"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.references = workloads.solve_references()

    def warm_up(self, server: Server) -> None:
        for _ in range(2):
            for name in workloads.LIBRARY:
                answer = _post_ok(server, self.path, workloads.solve_body(name))
                if answer != self.references[name]:
                    raise BenchError(f"warm-up solve of {name} is wrong")

    def sources(self) -> List[harness.Source]:
        def source(connection: int) -> harness.Source:
            def next_request(index: int):
                name = workloads.solve_model_name(self.seed, connection, index)
                return name, workloads.solve_body(name)
            return next_request
        return [source(c) for c in range(CONNECTIONS)]

    def check(self, exchange: Exchange) -> Optional[str]:
        if exchange.body != self.references[exchange.tag]:
            return f"solve of {exchange.tag} differs from the reference"
        return None


class SweepCold(Workload):
    name = "sweep_cold"
    path = "/v1/sweep"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec = workloads.sweep_spec()
        self.reference = workloads.SweepReference(self.spec)

    def warm_up(self, server: Server) -> None:
        values = workloads.SWEEP_WARMUP_VALUES
        answer = _post_ok(
            server, self.path, workloads.sweep_body(self.spec, values)
        )
        if answer != self.reference.expected(values):
            raise BenchError("warm-up sweep is wrong")

    def sources(self) -> List[harness.Source]:
        def source(connection: int) -> harness.Source:
            values = workloads.SweepValues(self.seed, connection, CONNECTIONS)

            def next_request(index: int):
                batch = values.batch(index)
                return batch, workloads.sweep_body(self.spec, batch)
            return next_request
        return [source(c) for c in range(CONNECTIONS)]

    def check(self, exchange: Exchange) -> Optional[str]:
        if exchange.body != self.reference.expected(exchange.tag):
            return f"sweep points for {exchange.tag} differ from the reference"
        return None


class IngestStream(Workload):
    name = "ingest_stream"
    path = "/v1/events"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.stream = workloads.EventStream(seed, CONNECTIONS)
        self.warmup = workloads.warmup_events(seed)
        self.stream.batch(CONNECTIONS - 1, 0)

    def warm_up(self, server: Server) -> None:
        answer = _post_ok(
            server, self.path, workloads.events_body(self.warmup)
        )
        why = workloads.check_ingest_answer(answer, len(self.warmup))
        if why:
            raise BenchError(f"warm-up ingest is wrong: {why}")

    def sources(self) -> List[harness.Source]:
        def source(connection: int) -> harness.Source:
            def next_request(index: int):
                batch = self.stream.batch(connection, index)
                return (connection, index), workloads.events_body(batch)
            return next_request
        return [source(c) for c in range(CONNECTIONS)]

    def check(self, exchange: Exchange) -> Optional[str]:
        connection, index = exchange.tag
        return workloads.check_ingest_answer(
            exchange.body, len(self.stream.batch(connection, index))
        )

    def finish(
        self, server: Server, loop: LoopResult
    ) -> Tuple[Dict[str, float], List[str]]:
        """The server's final state must equal an in-process replay."""
        applied = [self.warmup] + [
            self.stream.batch(*exchange.tag)
            for exchange in loop.exchanges
            if exchange.status == 200
        ]
        digest, state_bytes = workloads.ingest_reference(applied)
        served = harness.get_json(server, "/v1/calibration")["state_digest"]
        failures = []
        if served != digest:
            failures.append(f"final state_digest {served} != in-process {digest}")
        return {"telemetry.state_bytes": float(state_bytes)}, failures


WORKLOADS = {
    cls.name: cls for cls in (SolveWarm, SweepCold, IngestStream)
}


# ----------------------------------------------------------------------
# one measured phase
# ----------------------------------------------------------------------
class Phase:
    """The outcome of driving one server through the measured phase."""

    def __init__(self) -> None:
        self.loop = LoopResult()
        self.failures: List[str] = []
        self.rss_mb = 0.0
        self.metrics_before: Dict[str, float] = {}
        self.metrics_after: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.loop.exchanges)

    @property
    def kept(self) -> List[spanlib.Window]:
        return kept_windows(self.loop)

    def delta(self, key: str) -> float:
        return self.metrics_after.get(key, 0.0) - self.metrics_before.get(
            key, 0.0
        )


def flatten(document: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a ``/metrics`` document, keyed by dotted path."""
    flat: Dict[str, float] = {}
    if isinstance(document, dict):
        for key, value in document.items():
            flat.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(document, (int, float)) and not isinstance(document, bool):
        flat[prefix[:-1]] = float(document)
    return flat


def kept_windows(loop: LoopResult) -> List[spanlib.Window]:
    """The measured phase's windows without the fastest and slowest."""
    return spanlib.trimmed(spanlib.split_windows(
        ((e.end, e.end - e.start) for e in loop.exchanges), loop.boundaries
    ))


def tail_supported(loop: LoopResult) -> bool:
    """Whether the kept windows hold enough samples for the p90."""
    latencies = [v for w in kept_windows(loop) for v in w.latencies]
    if len(latencies) < spanlib.samples_needed(TAIL_Q):
        return False
    threshold = spanlib.percentile(latencies, TAIL_Q)
    return spanlib.tail_count(latencies, threshold) >= spanlib.MIN_TAIL_SAMPLES


def measure(
    workload: Workload, server: Server, seconds: float
) -> Phase:
    phase = Phase()
    phase.metrics_before = flatten(harness.get_json(server, "/metrics"))
    phase.loop = harness.closed_loop(
        server, workload.path, workload.sources(),
        window_seconds=seconds / WINDOWS,
        min_windows=WINDOWS,
        max_windows=int(WINDOWS * MAX_OVERRUN),
        enough=tail_supported,
    )
    phase.metrics_after = flatten(harness.get_json(server, "/metrics"))
    phase.rss_mb = server.peak_rss_mb()
    phase.extra, phase.failures = workload.finish(server, phase.loop)
    return phase


def verify(workload: Workload, phase: Phase) -> None:
    """Count every non-2xx status and every wrong answer as a failure."""
    for exchange in phase.loop.exchanges:
        if exchange.status != 200:
            phase.failures.append(
                f"{workload.path} answered {exchange.status}: "
                f"{exchange.body[:200]!r}"
            )
            continue
        why = workload.check(exchange)
        if why:
            phase.failures.append(why)


class Run:
    """Spawns servers under one scratch directory and stops them all."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.servers: List[Server] = []

    def spawn(self, spans_out: Optional[Path] = None) -> Server:
        workdir = self.scratch / f"server-{len(self.servers)}"
        server = harness.start_server(ROOT, workdir, spans_out)
        self.servers.append(server)
        return server

    def close(self) -> None:
        for server in self.servers:
            if server.process.poll() is None:
                harness.stop_server(server)


def setup(run: Run, workload: Workload, spans_out: Optional[Path] = None
          ) -> Tuple[Server, float]:
    """Spawn, wait for ``/healthz``, warm up; the server and its time."""
    started = time.perf_counter()
    server = run.spawn(spans_out)
    workload.warm_up(server)
    return server, time.perf_counter() - started


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def loop_figures(phase: Phase) -> Dict[str, float]:
    """Throughput, latency and CPU over the kept windows."""
    kept = phase.kept
    latencies_ms = [v * 1000.0 for w in kept for v in w.latencies]
    p90, _ = spanlib.tail_percentile(latencies_ms, TAIL_Q)
    completed = len(latencies_ms)
    return {
        "throughput_rps": completed / sum(w.seconds for w in kept),
        "latency_p50_ms": spanlib.percentile(latencies_ms, 0.5),
        "latency_p90_ms": p90,
        "server_cpu_ms_per_req": (
            sum(w.cpu_seconds for w in kept) * 1000.0 / completed
        ),
    }


def end_to_end(phase: Phase, setups: Sequence[float]) -> Dict[str, float]:
    figures = loop_figures(phase)
    return {
        "throughput_rps": figures["throughput_rps"],
        "latency_p50_ms": figures["latency_p50_ms"],
        "latency_p90_ms": figures["latency_p90_ms"],
        "setup_s": statistics.median(setups),
        "server_rss_mb": phase.rss_mb,
        "server_cpu_ms_per_req": figures["server_cpu_ms_per_req"],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    workload: Workload, plain: Phase, traced: Phase, recorded: list
) -> Tuple[Dict[str, float], Dict[str, float], Tuple[float, float]]:
    """(per-layer metrics, p50 per-call times, handle closure sums)."""
    requests = spanlib.group_requests(
        recorded, workload.path, (traced.loop.start, traced.loop.end)
    )
    if not requests:
        raise BenchError("the traced run recorded no measured requests")
    summary = spanlib.layer_summary(requests)

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def p50_ms(name: str, field: str = "durations") -> float:
        values = summary.get(name, {}).get(field) or [0.0]
        return spanlib.percentile(values, 0.5) * 1000.0

    def attr_p50(name: str) -> float:
        values = [
            float(v) for v in summary.get(name, {}).get("attrs", [])
            if v is not None
        ]
        return spanlib.percentile(values, 0.5) if values else 0.0

    handle_total, self_total = spanlib.handle_closure(requests)
    metrics: Dict[str, float] = {
        "protocol.read_ms": p50_ms("protocol.read"),
        "protocol.encode_ms": p50_ms("protocol.encode"),
        "protocol.bytes_in": attr_p50("protocol.read"),
        "protocol.bytes_out": attr_p50("protocol.encode"),
        "app.handle_ms": p50_ms("app.handle"),
        "app.decode_ms": p50_ms("app.decode"),
        "app.unattributed_ms": p50_ms("app.handle", "self"),
    }
    for prefix, names in SHARES.items():
        busy = sum(
            sum(summary.get(name, {}).get("self", [])) for name in names
        )
        metrics[f"{prefix}.share_pct"] = 100.0 * _ratio(busy, handle_total)

    admitted = traced.delta("engine.counters.service_admitted")
    dedup = traced.delta("engine.counters.service_dedup_hits")
    batches = traced.delta("engine.counters.service_batches")
    system_hits = traced.delta("engine.system_cache_hits")
    system_lookups = system_hits + traced.delta("engine.system_solves")
    block_hits = traced.delta("engine.block_cache_hits")
    block_solves = traced.delta("engine.block_solves")
    chain_sizes = [
        float(v) for v in summary.get("generator.chain", {}).get("attrs", [])
        if v is not None
    ]
    metrics.update({
        "trace.requests": float(len(requests)),
        "queue.solve_calls": admitted + dedup,
        "queue.dedup_ratio": _ratio(dedup, admitted + dedup),
        "queue.batches": batches,
        "queue.batch_mean": _ratio(admitted, batches),
        "queue.rejections": traced.delta("engine.counters.service_rejections"),
        "registry.resolve_calls": float(calls("registry.resolve")),
        "spec.parse_calls": float(calls("spec.parse")),
        "engine.system_lookups": system_lookups,
        "engine.system_hit_ratio": _ratio(system_hits, system_lookups),
        "engine.block_lookups": block_hits + block_solves,
        "engine.block_hit_ratio": _ratio(block_hits, block_hits + block_solves),
        "engine.block_solves": block_solves,
        "generator.calls": float(calls("generator.chain")),
        "generator.states_per_call": (
            statistics.fmean(chain_sizes) if chain_sizes else 0.0
        ),
        "measures.calls": float(calls("measures.compute")),
        "num.steady_calls": float(calls("num.steady")),
    })
    for backend in BACKENDS:
        metrics[f"num.by_backend.{backend}"] = traced.delta(
            f"solvers.solves_by_backend.{backend}"
        )
    for store in STORES:
        metrics[f"store.{store}.txn_count"] = traced.delta(
            f"storage.{store}.transactions"
        )
        metrics[f"store.{store}.busy_retries"] = traced.delta(
            f"storage.{store}.busy_retries"
        )
        metrics[f"store.{store}.bytes_delta"] = traced.delta(
            f"storage.{store}.size_bytes"
        )
    metrics["telemetry.batches"] = traced.delta("telemetry.batches")
    metrics["telemetry.state_bytes"] = traced.extra.get(
        "telemetry.state_bytes", 0.0
    )
    plain_figures = loop_figures(plain)
    traced_figures = loop_figures(traced)
    metrics["tracing.throughput_overhead_pct"] = 100.0 * (
        1.0 - traced_figures["throughput_rps"] / plain_figures["throughput_rps"]
    )
    metrics["tracing.latency_overhead_pct"] = 100.0 * (
        traced_figures["latency_p50_ms"] / plain_figures["latency_p50_ms"]
        - 1.0
    )

    call_times = {metric: p50_ms(name) for metric, name in CALL_TIMES.items()}
    for store in STORES:
        call_times[f"store.{store}.txn_ms"] = 1000.0 * _ratio(
            traced.delta(f"storage.{store}.txn_seconds_total"),
            traced.delta(f"storage.{store}.transactions"),
        )
    return metrics, call_times, (handle_total, self_total)


def machine_facts() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def print_metrics(title: str, metrics: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def execute(args: argparse.Namespace, scratch: Path) -> Dict[str, object]:
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(scratch)
    try:
        phases: List[Phase] = []
        if args.trace == 0:
            setups = []
            for _ in range(SETUPS):
                if run.servers:
                    harness.stop_server(run.servers[-1])
                server, seconds = setup(run, workload)
                setups.append(seconds)
            phase = measure(workload, server, args.seconds)
            harness.stop_server(server)
            phases.append(phase)
            verify(workload, phase)
            metrics = end_to_end(phase, setups)
            units = END_TO_END_UNITS
            print(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
        else:
            plain_server, _ = setup(run, workload)
            plain = measure(workload, plain_server, args.seconds)
            harness.stop_server(plain_server)
            spans_out = scratch / "spans.json"
            traced_server, _ = setup(run, workload, spans_out)
            traced = measure(workload, traced_server, args.seconds)
            harness.stop_server(traced_server)
            phases.extend([plain, traced])
            for phase in phases:
                verify(workload, phase)
            recorded = [
                tuple(span) for span in
                json.loads(spans_out.read_text())["spans"]
            ]
            metrics, call_times, closure = per_layer(
                workload, plain, traced, recorded
            )
            units = per_layer_units()
            print_metrics(
                f"{workload.name}: p50 per call (traced run)",
                call_times, {name: "ms" for name in call_times},
            )
            handle_total, self_total = closure
            print(
                f"# app.handle total {handle_total * 1000:.3f} ms = "
                f"layer self times + unattributed {self_total * 1000:.3f} ms"
            )
    finally:
        run.close()

    attempted = sum(phase.attempted for phase in phases)
    failures = [why for phase in phases for why in phase.failures]
    for why in failures[:10]:
        print(f"# FAILED: {why}")
    for layer, why in UNMEASURED.items():
        print(f"# unmeasured layer {layer}: {why}")
    print("# machine: " + ", ".join(
        f"{key}={value}" for key, value in machine_facts().items()
    ))
    for phase in phases:
        kept = phase.kept
        latencies = [v for w in kept for v in w.latencies]
        beyond = spanlib.tail_count(
            latencies, spanlib.percentile(latencies, TAIL_Q)
        )
        windows = len(phase.loop.boundaries) - 1
        print(
            f"# phase: {phase.attempted} requests in "
            f"{phase.loop.end - phase.loop.start:.3f} s, "
            f"{len(phase.failures)} failed (fail_ratio "
            f"{len(phase.failures) / phase.attempted:.6f}); figures from "
            f"{len(kept)} of {windows} windows, {len(latencies)} samples, "
            f"{beyond} beyond the p90"
        )
    print_metrics(f"{workload.name} (trace={args.trace})", metrics, units)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_tmp" / (
        f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    scratch.mkdir(parents=True)
    os.environ["RASCAD_CACHE_DIR"] = str(scratch / "client-cache")
    try:
        result = execute(args, scratch)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
