"""Command-line interface — the tool-access substitute for RAScad's web UI.

Usage (installed as ``rascad``, or ``python -m repro``):

    rascad solve model.json            # system measures
    rascad tree model.json             # the diagram/block tree
    rascad report model.json           # full markdown RAS report
    rascad budget model.json           # downtime budget, worst first
    rascad dot model.json "Sys/Block"  # Graphviz dot of one chain
    rascad sweep model.json "Sys/Block" mtbf_hours 1e5 2e5 5e5
    rascad validate model.json         # Monte Carlo cross-check
    rascad parts                       # the builtin component catalog
    rascad stats [--json]              # last run's engine counters
    rascad serve --port 8080           # the HTTP model-serving API
    rascad jobs submit model.json --kind sweep --field mtbf_hours \\
        --block "Sys/Block" --values 1e5:1e6:50   # durable batch job
    rascad jobs worker --jobs 4        # run queued jobs, resumably
    rascad trace tail traces/          # recent exported spans
    rascad trace summary traces/       # per-span latency rollup
    rascad cluster coordinator --worker http://h1:8081 \\
        --worker http://h2:8081        # shard sweeps over a fleet
    rascad cluster worker --coordinator http://h0:8080  # join a fleet
    rascad cluster status http://h0:8080   # fleet + workload view
    rascad sweep model.json "Sys/Block" mtbf_hours 1e5:1e6:200 \\
        --cluster http://h0:8080       # run the sweep on the fleet
    rascad models publish model.json --name myserver --tag prod
    rascad models list                 # registered models and tags
    rascad models show myserver@prod   # one version: lineage, numbers
    rascad models diff myserver@prod myserver@latest
    rascad models check model.json --name myserver --tag prod
    rascad models tag myserver prod a1b2c3d4   # move a tag
    rascad models rollback myserver prod       # undo the last move
    rascad importance model.json       # Birnbaum importance ranking
    rascad study run study.json        # design-space Pareto search
    rascad study status                # recorded studies
    rascad study front study-ab12..    # a study's cost/downtime front
    rascad study publish study-ab12.. --tag prod  # winner -> registry
    rascad events replay model.json --seed 3 \\
        --shift "Sys/Disk=0.01" --out trace.json  # synthetic field trace
    rascad events ingest trace.json --url http://h0:8080  # batch ingest
    rascad calibrate run model.json --events trace.json   # queued job
    rascad calibrate status            # fitted rates, stored proposal
    rascad calibrate propose model.json   # drift -> re-fitted proposal
    rascad calibrate publish --name myserver --tag prod   # gated

Specs are the JSON engineering-language format of :mod:`repro.spec`;
part numbers resolve against the builtin catalog unless ``--database``
points at a saved catalog file.

``solve``, ``sweep`` and ``validate`` run on the evaluation engine
(:mod:`repro.engine`): ``--jobs`` fans work out over processes,
``--cache-dir`` enables the persistent solve cache (default
``~/.cache/rascad``), ``--no-cache`` disables caching for the run.

``serve`` starts the :mod:`repro.service` HTTP API on the same engine
flags, so the server and CLI runs share one persistent cache.

Every engine-backed command also takes the shared observability flags
(:mod:`repro.obs`): ``--trace``/``--trace-dir`` enable tracing (the
latter exports spans to ``DIR/spans.jsonl`` for ``rascad trace``),
``--trace-detail`` adds per-block solve spans, ``--log-level`` and
``--log-json`` control structured logging.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .analysis import downtime_budget, expand_values
from .core import translate
from .database import PartsDatabase, builtin_database
from .engine import Engine, default_cache_dir, load_stats
from .errors import RascadError
from .render import chain_to_dot, model_report, render_model_tree
from .spec import load_spec
from .units import nines


def _parts_database(args: argparse.Namespace) -> PartsDatabase:
    """The ``--database`` catalog, or the built-in one."""
    if args.database:
        return PartsDatabase.load(args.database)
    return builtin_database()


def _load(args: argparse.Namespace):
    return load_spec(args.spec, database=_parts_database(args))


def _configure_obs(args: argparse.Namespace) -> None:
    """Install logging/tracing from the shared observability flags."""
    from .obs import configure_logging, configure_tracing

    configure_logging(
        level=getattr(args, "log_level", "info"),
        json_output=getattr(args, "log_json", False),
    )
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is not None or getattr(args, "trace", False):
        configure_tracing(
            enabled=True,
            trace_dir=trace_dir,
            sample_ratio=getattr(args, "trace_sample", 1.0),
            detail=getattr(args, "trace_detail", False),
        )


def _engine_from_args(args: argparse.Namespace) -> Engine:
    """Build the evaluation engine an engine-backed command runs on."""
    return Engine(
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
    )


def _solver_options_from_args(args: argparse.Namespace):
    """The solver configuration selected by the shared solver flags.

    CLI flags take precedence over every other layer (request
    payloads, job params, defaults); unset flags fall back to the
    canonical defaults, so plain runs stay bit-identical to the
    pre-registry dense direct solve.
    """
    from .num import SolverOptions

    changes = {}
    steady = getattr(args, "steady_method", None)
    if steady is not None:
        changes["steady_method"] = steady
    transient = getattr(args, "transient_method", None)
    if transient is not None:
        changes["transient_method"] = transient
    representation = getattr(args, "representation", None)
    if representation is not None:
        changes["representation"] = representation
    return SolverOptions(**changes)


def _persist_stats(engine: Engine, args: argparse.Namespace) -> None:
    """Best-effort snapshot persistence for a later ``rascad stats``."""
    directory = getattr(args, "cache_dir", None) or default_cache_dir()
    try:
        engine.save_stats(directory)
    except OSError:
        pass


def _cmd_solve(args: argparse.Namespace) -> int:
    _configure_obs(args)
    model = _load(args)
    engine = _engine_from_args(args)
    try:
        measures = engine.measures(
            model, _solver_options_from_args(args), args.mission
        )
    finally:
        _persist_stats(engine, args)
    print(f"model                     : {model.name}")
    print(f"availability              : {measures.availability:.8f} "
          f"({nines(measures.availability):.2f} nines)")
    print(f"yearly downtime           : "
          f"{measures.yearly_downtime_minutes:.2f} minutes")
    print(f"interruptions per year    : {measures.failures_per_year:.3f}")
    print(f"mean downtime per event   : "
          f"{measures.mean_downtime_hours * 60:.1f} minutes")
    print(f"mission time T            : {measures.mission_time_hours:.0f} h")
    print(f"interval availability     : {measures.interval_availability:.8f}")
    print(f"reliability at T          : {measures.reliability_at_mission:.6f}")
    print(f"MTTF                      : {measures.mttf_hours:.0f} h")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    print(render_model_tree(_load(args)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(model_report(_load(args)))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    solution = translate(_load(args))
    print(f"{'min/yr':>10}  {'share':>6}  block")
    for row in downtime_budget(solution):
        print(f"{row.yearly_downtime_minutes:>10.3f}  "
              f"{row.share:>6.1%}  {row.path}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    solution = translate(_load(args))
    block = solution.block(args.block)
    if block.chain is None:
        raise RascadError(
            f"block {args.block!r} is a pass-through RBD block; "
            "pick one of its chain-backed children"
        )
    print(chain_to_dot(block.chain))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _configure_obs(args)
    values = expand_values(args.values)
    if args.cluster:
        return _cluster_sweep(args, values)
    model = _load(args)
    engine = _engine_from_args(args)
    points = engine.sweep_block_field(
        model, args.block, args.field, values,
        method=_solver_options_from_args(args),
    )
    _persist_stats(engine, args)
    _print_sweep_points(
        (point.value, point.availability, point.yearly_downtime_minutes)
        for point in points
    )
    return 0


def _print_sweep_points(points) -> None:
    print(f"{'value':>12}  {'availability':>13}  {'min/yr':>10}")
    for value, availability, downtime in points:
        print(f"{value:>12g}  {availability:>13.8f}  {downtime:>10.3f}")


def _cluster_sweep(args: argparse.Namespace, values: List[float]) -> int:
    """Run the sweep through a cluster coordinator instead of locally."""
    import json
    from pathlib import Path

    from .cluster import CoordinatorClient

    spec_doc = json.loads(Path(args.spec).read_text())
    payload: dict = {
        "spec": spec_doc,
        "block": args.block,
        "field": args.field,
        "values": values,
    }
    solver = _solver_options_from_args(args).to_dict()
    if solver:
        payload["solver"] = solver
    client = CoordinatorClient(args.cluster)
    merged = client.sweep(payload, timeout=args.cluster_timeout)
    _print_sweep_points(
        (
            point["value"],
            point["availability"],
            point["yearly_downtime_minutes"],
        )
        for point in merged["points"]
    )
    digest = merged.get("result_digest")
    if digest:
        print(f"result digest: {digest}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _configure_obs(args)
    model = _load(args)
    if args.deep:
        from .validation import validate_model

        report = validate_model(
            model,
            simulation_horizon=args.horizon,
            simulation_replications=args.replications,
            seed=args.seed,
        )
        print(report.summary())
        return 0 if report.passed else 1
    engine = _engine_from_args(args)
    solution = engine.solve(model, _solver_options_from_args(args))
    result = engine.simulate_system(
        solution,
        horizon=args.horizon,
        replications=args.replications,
        seed=args.seed,
    )
    _persist_stats(engine, args)
    agree = result.contains(solution.availability)
    print(f"analytic availability : {solution.availability:.6f}")
    print(f"simulated             : {result.mean:.6f} "
          f"[{result.low:.6f}, {result.high:.6f}] "
          f"({result.replications} reps x {args.horizon:.0f} h)")
    print(f"agreement             : {'PASS' if agree else 'FAIL'}")
    return 0 if agree else 1


def _cmd_requirement(args: argparse.Namespace) -> int:
    from .analysis import check_requirement

    model = _load(args)
    check = check_requirement(
        model,
        target_availability=args.availability,
        target_nines=args.nines,
        max_downtime_minutes=args.downtime,
    )
    print(f"target   : {check.target_availability:.8f} "
          f"({check.target_nines:.2f} nines)")
    print(f"achieved : {check.achieved_availability:.8f} "
          f"({check.achieved_nines:.2f} nines)")
    print(f"margin   : {check.margin_minutes:+.2f} min/yr downtime budget")
    print(f"verdict  : {'MEETS' if check.meets else 'MISSES'} requirement")
    return 0 if check.meets else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import comparison_table

    database = _parts_database(args)
    candidates = []
    for path in args.specs:
        model = load_spec(path, database=database)
        candidates.append((model.name, model))
    print(comparison_table(candidates))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .spec import diff_impact, diff_models, format_diff

    database = _parts_database(args)
    old = load_spec(args.old, database=database)
    new = load_spec(args.new, database=database)
    entries = diff_models(old, new)
    print(format_diff(entries))
    if entries:
        impact = diff_impact(old, new)
        delta = impact["downtime_delta_minutes"]
        print()
        print(f"availability: {impact['old_availability']:.8f} -> "
              f"{impact['new_availability']:.8f} "
              f"({delta:+.2f} min/yr downtime)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .engine import SolveCache, metrics_payload

    directory = args.cache_dir or default_cache_dir()
    stats = load_stats(directory)
    disk_usage = SolveCache(cache_dir=directory).disk_usage()
    if args.json:
        # The same serialization the service's GET /metrics emits.
        print(json.dumps(
            metrics_payload(stats, disk_usage=disk_usage),
            indent=2, sort_keys=True,
        ))
        return 0
    if stats is None:
        print(f"no engine stats recorded under {directory}")
        print("run an engine-backed command (solve, sweep, validate) first")
        return 0
    print(f"engine stats ({directory})")
    print(stats.format())
    entries, size = disk_usage
    print(f"persistent cache     : {entries} entries, {size} bytes")
    return 0


def _service_config(args: argparse.Namespace, **server_only):
    """The ``ServiceConfig`` of ``serve`` and ``cluster coordinator|worker``.

    Reads the bind and engine flags all three share; ``server_only``
    adds the settings only one command has.
    """
    from .service import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        jobs_db=getattr(args, "jobs_db", None),
        default_solver=_solver_options_from_args(args),
        **server_only,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    _configure_obs(args)
    return serve(_service_config(
        args,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        warm_start=args.warm_start,
        registry_db=args.registry_db,
        registry_threshold=args.registry_threshold,
        registry_seed=not args.no_registry_seed,
        telemetry_max_pending=args.telemetry_max_pending,
        telemetry_max_batch=args.telemetry_max_batch,
        telemetry_window_hours=args.telemetry_window,
    ))


def _cmd_trace_tail(args: argparse.Namespace) -> int:
    import json

    from .obs import read_spans

    spans = read_spans(
        args.trace_dir, limit=args.limit, trace_id=args.trace_id
    )
    if args.name:
        spans = [s for s in spans if s.get("name") == args.name]
    if args.json:
        for span in spans:
            print(json.dumps(span, sort_keys=True))
        return 0
    if not spans:
        print(f"no spans under {args.trace_dir}")
        return 0
    print(f"{'trace':<8} {'span':<8} {'parent':<8} "
          f"{'name':<24} {'ms':>10}  status")
    for span in spans:
        duration_ms = float(span.get("duration", 0.0) or 0.0) * 1000.0
        parent = span.get("parent_id") or "-"
        print(
            f"{str(span.get('trace_id', ''))[:8]:<8} "
            f"{str(span.get('span_id', ''))[:8]:<8} "
            f"{str(parent)[:8]:<8} "
            f"{str(span.get('name', '')):<24} "
            f"{duration_ms:>10.3f}  {span.get('status', 'ok')}"
        )
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from .obs import Histogram, read_spans

    spans = read_spans(args.trace_dir)
    if not spans:
        print(f"no spans under {args.trace_dir}")
        return 0
    groups: dict = {}
    for span in spans:
        name = str(span.get("name", "?"))
        entry = groups.setdefault(name, [Histogram(), 0])
        duration = span.get("duration")
        if isinstance(duration, (int, float)):
            entry[0].observe(float(duration))
        if span.get("status") == "error":
            entry[1] += 1
    print(f"{'name':<24} {'count':>7} {'total s':>9} "
          f"{'mean ms':>9} {'p95 ms':>9} {'errors':>7}")
    for name in sorted(groups):
        histogram, errors = groups[name]
        print(
            f"{name:<24} {histogram.count:>7} {histogram.sum:>9.3f} "
            f"{histogram.mean * 1000:>9.3f} "
            f"{histogram.quantile(0.95) * 1000:>9.3f} {errors:>7}"
        )
    traces = len({span.get("trace_id") for span in spans})
    print(f"{len(spans)} spans across {traces} trace(s)")
    return 0


def _jobs_open(args: argparse.Namespace):
    """The job store the jobs subcommands share."""
    from .jobs import open_store

    return open_store(
        db_path=getattr(args, "db", None),
        cache_dir=getattr(args, "cache_dir", None),
        database=_parts_database(args),
    )


def _print_job(record, verbose: bool = False) -> None:
    import json

    print(f"id        : {record.id}")
    print(f"kind      : {record.kind}")
    print(f"state     : {record.state}")
    print(f"attempts  : {record.attempts}/{record.max_attempts}")
    if record.worker:
        print(f"worker    : {record.worker}")
    if record.error:
        print(f"error     : {record.error}")
    if record.result is not None:
        print("result    :")
        print(json.dumps(record.result, indent=2, sort_keys=True))
    elif verbose:
        print("result    : (none yet)")


def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .jobs import JobSpec

    spec_doc = json.loads(Path(args.spec).read_text())
    params: dict = {}
    if args.params:
        params.update(json.loads(Path(args.params).read_text()))
    if args.method:
        params["method"] = args.method
    if args.kind == "sweep":
        if args.field:
            params["field"] = args.field
        if args.block:
            params["block"] = args.block
        if args.values:
            params["values"] = expand_values(args.values)
    elif args.kind == "validate":
        if args.replications is not None:
            params["replications"] = args.replications
        if args.horizon is not None:
            params["horizon"] = args.horizon
        if args.seed is not None:
            params["seed"] = args.seed
    job = JobSpec(
        kind=args.kind,
        spec=spec_doc,
        params=params,
        priority=args.priority,
        max_attempts=args.max_attempts,
    )
    store = _jobs_open(args)
    record, created = store.submit(job)
    verb = "submitted" if created else "already queued (deduplicated)"
    print(f"{record.id} {verb}")
    print(f"state: {record.state}")
    return 0


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    store = _jobs_open(args)
    _print_job(store.get(args.id), verbose=True)
    return 0


def _cmd_jobs_list(args: argparse.Namespace) -> int:
    store = _jobs_open(args)
    records = store.list_jobs(
        state=args.state, kind=args.kind, limit=args.limit
    )
    if not records:
        print("no jobs")
        return 0
    print(f"{'id':<40} {'kind':<12} {'state':<10} {'att':>3}  error")
    for record in records:
        error = (record.error or "")[:40]
        print(f"{record.id:<40} {record.kind:<12} {record.state:<10} "
              f"{record.attempts:>3}  {error}")
    return 0


def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    store = _jobs_open(args)
    record = store.cancel(args.id)
    print(f"{record.id} -> {record.state}"
          + (" (cancellation requested)"
             if record.state == "running" else ""))
    return 0


def _cmd_jobs_worker(args: argparse.Namespace) -> int:
    from .jobs import Worker, WorkerConfig

    _configure_obs(args)
    store = _jobs_open(args)
    engine = _engine_from_args(args)
    worker = Worker(
        store,
        engine,
        WorkerConfig(
            poll_interval=args.poll,
            lease_timeout=args.lease_timeout,
            checkpoint_every=args.checkpoint_every,
            once=args.once,
            max_jobs=args.max_jobs,
        ),
    )
    worker.install_signal_handlers()
    print(f"worker {worker.config.name} polling {store.path}", flush=True)
    processed = worker.run()
    _persist_stats(engine, args)
    print(f"worker exiting after {processed} job(s)", flush=True)
    return 0


def _cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig
    from .service import serve

    _configure_obs(args)
    return serve(_service_config(args, cluster=ClusterConfig(
        workers=tuple(args.worker or ()),
        shard_size=args.shard_size,
        lease_timeout=args.lease_timeout,
        steal_after=args.steal_after,
        max_shard_attempts=args.max_shard_attempts,
        call_timeout=args.call_timeout,
        fanout_threshold=args.fanout_threshold,
    )))


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import HeartbeatPusher
    from .service import Server

    _configure_obs(args)
    config = _service_config(args)

    async def run() -> int:
        server = Server(config)
        host, port = await server.start()
        server.install_signal_handlers()
        advertise = args.advertise or f"http://{host}:{port}"
        pusher = HeartbeatPusher(
            args.coordinator, advertise,
            interval=args.heartbeat_interval,
        )
        pusher.start()
        print(
            f"rascad cluster worker {advertise} registering with "
            f"{args.coordinator}",
            flush=True,
        )
        try:
            await server.serve_until_shutdown()
        finally:
            pusher.stop()
        print("rascad cluster worker drained and stopped", flush=True)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal path
        return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from .cluster import CoordinatorClient

    status = CoordinatorClient(args.coordinator).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    totals = status.get("totals", {})
    print(f"coordinator {args.coordinator}")
    print(f"jobs completed   : {totals.get('jobs_completed', 0)}")
    print(f"shards completed : {totals.get('shards_completed', 0)}")
    print(f"shards stolen    : {totals.get('shards_stolen', 0)}")
    print(f"shards retried   : {totals.get('shards_retried', 0)}")
    workers = status.get("workers", [])
    if not workers:
        print("no workers registered")
        return 0
    print(f"{'worker':<24} {'state':<14} {'done':>6} {'fail':>6} "
          f"{'stolen':>7} {'in flight':>10}")
    for row in workers:
        print(f"{row.get('id', '?'):<24} {row.get('state', '?'):<14} "
              f"{row.get('shards_done', 0):>6} "
              f"{row.get('shards_failed', 0):>6} "
              f"{row.get('shards_stolen', 0):>7} "
              f"{row.get('in_flight', 0):>10}")
    active = status.get("active", [])
    for entry in active:
        print(f"active: {entry.get('workload')} "
              f"{entry.get('done')}/{entry.get('shards')} shards")
    return 0


def _registry_open(args: argparse.Namespace, engine=None):
    """The registry a ``rascad models`` subcommand works against."""
    from .registry import open_registry

    return open_registry(
        db_path=getattr(args, "registry_db", None),
        cache_dir=getattr(args, "cache_dir", None),
        engine=engine,
        database=_parts_database(args),
    )


def _model_slug(name: str) -> str:
    """A legal registry name derived from a model's display name."""
    import re as _re

    slug = _re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-._").lower()
    return slug[:64] or "model"


def _print_version_record(record, heading: str = "version") -> None:
    evaluation = record.evaluation or {}
    print(f"{heading}   : {record.name}@{record.digest[:12]}")
    print(f"digest    : {record.digest}")
    parent = record.parent_digest
    print(f"parent    : {parent[:12] if parent else '(root)'}")
    if evaluation:
        print(f"availability : {evaluation['availability']:.8f}")
        print(f"downtime     : "
              f"{evaluation['yearly_downtime_minutes']:.3f} min/yr")
        print(f"MTTF         : {evaluation['mttf_hours']:.0f} h")
    if record.diff:
        print("changes vs parent:")
        for entry in record.diff:
            if entry["kind"] == "changed":
                print(f"  ~ {entry['path']}: {entry['field']} "
                      f"{entry['old']!r} -> {entry['new']!r}")
            else:
                sign = "+" if entry["kind"] == "added" else "-"
                print(f"  {sign} {entry['path']}")


def _cmd_models_publish(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .spec import parse_spec

    _configure_obs(args)
    engine = _engine_from_args(args)
    registry = _registry_open(args, engine=engine)
    try:
        spec_doc = json.loads(Path(args.spec).read_text())
        name = args.name
        if name is None:
            model = parse_spec(spec_doc, database=registry.database)
            name = _model_slug(model.name)
        result = registry.publish(
            spec_doc, name,
            description=args.description,
            tag=args.tag,
            force=args.force,
            threshold=args.threshold,
        )
    finally:
        _persist_stats(engine, args)
        registry.close()
    verb = "published" if result.created else "already published"
    print(f"{verb} {name}@{result.version.digest[:12]}")
    tags = ["latest"] + ([args.tag] if args.tag else [])
    print(f"tags      : {', '.join(dict.fromkeys(tags))}")
    evaluation = result.version.evaluation or {}
    if evaluation:
        print(f"availability : {evaluation['availability']:.8f}")
        print(f"downtime     : "
              f"{evaluation['yearly_downtime_minutes']:.3f} min/yr")
    gate = result.gate
    if gate is not None:
        delta = gate["downtime_delta_minutes"]
        print(f"gate      : {delta:+.3f} min/yr vs {gate['tag']} "
              f"baseline (threshold {gate['threshold_minutes']:g})"
              + (" [FORCED]" if gate.get("forced") else ""))
    return 0


def _cmd_models_list(args: argparse.Namespace) -> int:
    registry = _registry_open(args)
    try:
        rows = registry.list_models()
    finally:
        registry.close()
    if not rows:
        print("no models registered")
        return 0
    print(f"{'name':<20} {'vers':>4}  {'tags':<32} description")
    for row in rows:
        tags = ", ".join(
            f"{tag}={digest[:8]}"
            for tag, digest in sorted(row["tags"].items())
        )
        print(f"{row['name']:<20} {row['versions']:>4}  {tags:<32} "
              f"{row['description']}")
    return 0


def _cmd_models_show(args: argparse.Namespace) -> int:
    from .registry import parse_ref

    registry = _registry_open(args)
    try:
        name, selector = parse_ref(args.ref)
        if selector is None:
            detail = registry.model_detail(name)
            print(f"model     : {detail['name']}")
            if detail["description"]:
                print(f"about     : {detail['description']}")
            tags = detail["tags"]
            for tag in sorted(tags):
                print(f"tag       : {tag} -> {tags[tag][:12]}")
            print(f"{'digest':<14} {'parent':<14} {'min/yr':>10}")
            for version in detail["versions"]:
                evaluation = version["evaluation"] or {}
                downtime = evaluation.get("yearly_downtime_minutes")
                rendered = (
                    "-" if downtime is None else f"{downtime:.3f}"
                )
                parent = version["parent_digest"]
                parent_text = parent[:12] if parent else "(root)"
                print(f"{version['digest'][:12]:<14} "
                      f"{parent_text:<14} {rendered:>10}")
            return 0
        record = registry.resolve(args.ref)
        _print_version_record(record)
        return 0
    finally:
        registry.close()


def _cmd_models_diff(args: argparse.Namespace) -> int:
    from .spec import diff_models, format_diff, parse_spec

    registry = _registry_open(args)
    try:
        old = registry.resolve(args.old)
        new = registry.resolve(args.new)
        old_model = parse_spec(old.spec, database=registry.database)
        new_model = parse_spec(new.spec, database=registry.database)
    finally:
        registry.close()
    print(f"--- {args.old} ({old.digest[:12]})")
    print(f"+++ {args.new} ({new.digest[:12]})")
    print(format_diff(diff_models(old_model, new_model)))
    return 0


def _cmd_models_tag(args: argparse.Namespace) -> int:
    registry = _registry_open(args)
    try:
        previous, digest = registry.move_tag(
            args.name, args.tag, args.selector
        )
    finally:
        registry.close()
    was = previous[:12] if previous else "(unset)"
    print(f"{args.name}@{args.tag}: {was} -> {digest[:12]}")
    return 0


def _cmd_models_rollback(args: argparse.Namespace) -> int:
    registry = _registry_open(args)
    try:
        current, previous = registry.rollback(args.name, args.tag)
    finally:
        registry.close()
    print(f"{args.name}@{args.tag}: rolled back "
          f"{current[:12]} -> {previous[:12]}")
    return 0


def _cmd_models_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    _configure_obs(args)
    engine = _engine_from_args(args)
    registry = _registry_open(args, engine=engine)
    try:
        spec_doc = json.loads(Path(args.spec).read_text())
        verdict = registry.check(
            spec_doc, args.name, args.tag, threshold=args.threshold
        )
    finally:
        _persist_stats(engine, args)
        registry.close()
    print(f"candidate : {verdict['candidate_digest'][:12]}")
    baseline = verdict["baseline_digest"]
    print(f"baseline  : {baseline[:12] if baseline else '(none)'}")
    delta = verdict["downtime_delta_minutes"]
    if delta is not None:
        print(f"delta     : {delta:+.3f} min/yr "
              f"(threshold {verdict['threshold_minutes']:g})")
    rejected = bool(verdict["would_reject"])
    print(f"verdict   : {'REJECT' if rejected else 'PASS'}")
    return 1 if rejected else 0


def _cmd_importance(args: argparse.Namespace) -> int:
    from .analysis import birnbaum_importance

    _configure_obs(args)
    model = _load(args)
    engine = _engine_from_args(args)
    solution = engine.solve(model, _solver_options_from_args(args))
    _persist_stats(engine, args)
    print(f"model        : {model.name}")
    print(f"availability : {solution.availability:.8f}")
    print()
    print(f"{'birnbaum':>10}  {'avail':>10}  {'potential min/yr':>16}  "
          "block")
    for row in birnbaum_importance(solution):
        print(f"{row.birnbaum:>10.6f}  {row.availability:>10.6f}  "
              f"{row.potential_downtime_minutes:>16.3f}  {row.path}")
    return 0


def _study_store_open(args: argparse.Namespace):
    """The study store a ``rascad study`` subcommand works against.

    Shares the server's layout: ``STUDIES_DIR`` explicitly, else
    ``CACHE_DIR/studies``, falling back to the default cache
    directory — so CLI runs and a ``--cache-dir`` server see the same
    records.
    """
    from pathlib import Path

    from .studies import StudyStore

    directory = getattr(args, "studies_dir", None)
    if directory is None:
        base = getattr(args, "cache_dir", None) or default_cache_dir()
        directory = Path(base) / "studies"
    return StudyStore(directory)


def _study_parse(args: argparse.Namespace, document):
    """Parse a study document against the selected parts catalog."""
    from .studies import parse_study

    database = _parts_database(args)
    return parse_study(document, database=database), database


def _cmd_study_run(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .render import render_front_table
    from .studies import run_study, study_digest

    _configure_obs(args)
    document = json.loads(Path(args.study).read_text())
    if args.base is not None:
        document["base"] = json.loads(Path(args.base).read_text())
    study, database = _study_parse(args, document)
    study_id = study_digest(study, database=database)
    store = _study_store_open(args)
    record, created = store.submit(study_id, study.to_dict())
    if not created and record.get("state") == "succeeded" and not args.rerun:
        print(f"{study_id} already solved (--rerun to force)")
        print()
        print(render_front_table(record["result"]))
        return 0
    engine = _engine_from_args(args)
    try:
        result = run_study(study, engine=engine, database=database)
    except RascadError as error:
        store.fail(study_id, f"{type(error).__name__}: {error}")
        raise
    finally:
        _persist_stats(engine, args)
    store.succeed(study_id, result)
    print(f"study     : {study_id}")
    print(f"digest    : {result['result_digest']}")
    print()
    print(render_front_table(result))
    return 0


def _cmd_study_status(args: argparse.Namespace) -> int:
    store = _study_store_open(args)
    if args.id is not None:
        record = store.get(args.id)
        print(f"study    : {record['study_id']}")
        print(f"name     : {record.get('name')}")
        print(f"strategy : {record.get('strategy')}")
        print(f"state    : {record.get('state')}")
        if record.get("error"):
            print(f"error    : {record['error']}")
        result = record.get("result")
        if isinstance(result, dict):
            print(f"evaluated: {result.get('evaluated')} "
                  f"({result.get('feasible')} feasible)")
            print(f"front    : {result.get('front')}")
            print(f"winner   : {result.get('winner')}")
            print(f"digest   : {result.get('result_digest')}")
        return 0
    summaries = store.list()
    if not summaries:
        print("no studies recorded")
        return 0
    print(f"{'study id':<40} {'strategy':<10} {'state':<10} "
          f"{'eval':>5} {'front':>5}  name")
    for row in summaries:
        evaluated = row["evaluated"] if row["evaluated"] is not None else "-"
        front = row["front_size"] if row["front_size"] is not None else "-"
        print(f"{row['study_id']:<40} {row['strategy']:<10} "
              f"{row['state']:<10} {evaluated:>5} {front:>5}  "
              f"{row['name']}")
    return 0


def _study_result(store, study_id):
    record = store.get(study_id)
    result = record.get("result")
    if not isinstance(result, dict):
        raise RascadError(
            f"study {study_id} is {record.get('state')}; no result "
            "to render"
        )
    return record, result


def _cmd_study_front(args: argparse.Namespace) -> int:
    from .render import front_to_dot, render_front_table

    _, result = _study_result(_study_store_open(args), args.id)
    print(front_to_dot(result) if args.dot else render_front_table(result))
    return 0


def _cmd_study_publish(args: argparse.Namespace) -> int:
    from .spec import model_to_spec
    from .studies import CandidateFactory, parse_study

    _configure_obs(args)
    store = _study_store_open(args)
    record, result = _study_result(store, args.id)
    winner = result.get("winner")
    if winner is None:
        raise RascadError(
            f"study {args.id} has an empty front; nothing to publish"
        )
    rows = [
        row for row in result.get("candidates", [])
        if row.get("index") == winner
    ]
    if not rows:
        raise RascadError(
            f"study {args.id} result names winner {winner} but has "
            "no such candidate row"
        )
    engine = _engine_from_args(args)
    registry = _registry_open(args, engine=engine)
    try:
        study = parse_study(
            record["document"], database=registry.database
        )
        base_model = parse_spec_document(
            study.base, registry.database
        )
        factory = CandidateFactory(study, base_model, registry.database)
        candidate = factory.build(tuple(rows[0]["assignment"]))
        spec_doc = model_to_spec(candidate.model)
        name = args.name or _model_slug(f"{study.name}-winner")
        publish = registry.publish(
            spec_doc, name,
            description=args.description,
            tag=args.tag,
            force=args.force,
            source={
                "study_id": args.id,
                "candidate": winner,
                "result_digest": result.get("result_digest"),
            },
        )
    finally:
        _persist_stats(engine, args)
        registry.close()
    verb = "published" if publish.created else "already published"
    print(f"{verb} {name}@{publish.version.digest[:12]} "
          f"from study {args.id} candidate {winner}")
    print(f"cost      : {rows[0]['cost']:.2f}")
    print(f"downtime  : {rows[0]['yearly_downtime_minutes']:.3f} min/yr")
    return 0


def parse_spec_document(base, database):
    """Parse an inline base spec document (study publish helper)."""
    from .spec import parse_spec

    return parse_spec(dict(base), database=database)


def _http_json(url: str, path: str, payload=None):
    """One JSON call to ``path`` on the rascad server at ``url``.

    Returns ``(status, document, headers)``; an unreachable server or
    a non-JSON body raises :class:`ClientError`.
    """
    from .service.client import call

    reply = call(
        "GET" if payload is None else "POST", url.rstrip("/") + path, payload
    )
    return reply.status, reply.json(), reply.headers


def _http_expect(url: str, path: str, payload=None):
    """A JSON call that turns error envelopes into CLI errors."""
    status, document, _headers = _http_json(url, path, payload)
    if status not in (200, 201):
        error = document.get("error", {})
        raise RascadError(
            f"{url.rstrip('/')}{path} answered {status} "
            f"{error.get('code', '?')}: {error.get('message', '')}"
        )
    return document


def _parse_shifts(raw) -> dict:
    """``PATH=FACTOR`` tokens into the synthetic-source shift map."""
    shifts: dict = {}
    for token in raw or []:
        path, separator, factor = token.rpartition("=")
        if not separator or not path:
            raise RascadError(
                f"--shift must be PATH=FACTOR, got {token!r}"
            )
        try:
            shifts[path] = float(factor)
        except ValueError:
            raise RascadError(
                f"--shift factor must be a number, got {factor!r}"
            ) from None
    return shifts


def _telemetry_hub_open(args: argparse.Namespace):
    """The local telemetry hub a CLI subcommand works against.

    State lives under ``CACHE_DIR/telemetry`` — the same directory a
    ``rascad serve --cache-dir`` server persists to, so local and
    served workflows see one estimator.
    """
    from pathlib import Path as _Path

    from .engine import default_cache_dir
    from .telemetry import TelemetryHub

    base = getattr(args, "cache_dir", None) or default_cache_dir()
    return TelemetryHub(
        directory=_Path(base) / "telemetry",
        window_hours=getattr(args, "window", None) or 168.0,
    )


def _drift_overrides(args: argparse.Namespace) -> dict:
    """The drift flags given on the command line, by config field."""
    flags = {
        "shift": "drift_shift",
        "threshold": "drift_threshold",
        "min_events": "min_events",
    }
    return {
        field: getattr(args, flag)
        for field, flag in flags.items()
        if getattr(args, flag, None) is not None
    }


def _drift_config_from_args(args: argparse.Namespace, window_hours):
    from .telemetry import DriftConfig

    return DriftConfig(window_hours=window_hours, **_drift_overrides(args))


def _cmd_events_replay(args: argparse.Namespace) -> int:
    """Generate a reproducible synthetic field trace from a spec."""
    import json
    from pathlib import Path

    from .telemetry import synthetic_field_events

    _configure_obs(args)
    model = _load(args)
    events = synthetic_field_events(
        model,
        window_hours=args.window,
        seed=args.seed,
        server=args.server,
        mtbf_shifts=_parse_shifts(args.shift) or None,
    )
    document = {
        "model": model.name,
        "window_hours": args.window,
        "seed": args.seed,
        "events": [event.to_dict() for event in events],
    }
    if args.url:
        accepted, duplicates = _post_events(
            args.url, document["events"], args.batch_size
        )
        print(f"replayed {accepted} event(s) to {args.url} "
              f"({duplicates} duplicate(s) skipped)")
        return 0
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {len(events)} event(s) to {args.out}")
    else:
        print(text)
    return 0


def _post_events(url: str, events, batch_size: int):
    """POST events in batches, honouring 429 Retry-After backpressure."""
    import time as _time

    accepted = duplicates = 0
    for lo in range(0, len(events), max(1, batch_size)):
        batch = events[lo:lo + max(1, batch_size)]
        for _attempt in range(10):
            status, document, headers = _http_json(
                url, "/v1/events", {"events": batch}
            )
            if status != 429:
                break
            _time.sleep(float(headers.get("Retry-After", 1)))
        if status != 200:
            error = document.get("error", {})
            raise RascadError(
                f"ingest batch at {lo} answered {status} "
                f"{error.get('code', '?')}: {error.get('message', '')}"
            )
        accepted += int(document.get("accepted", 0))
        duplicates += int(document.get("duplicates", 0))
    return accepted, duplicates


def _read_events_file(path) -> list:
    """The event list from a trace file (bare list or ``{"events"}``)."""
    import json
    from pathlib import Path

    document = json.loads(Path(path).read_text())
    events = (
        document.get("events") if isinstance(document, dict) else document
    )
    if not isinstance(events, list):
        raise RascadError(
            f"{path} holds no event list; expected a JSON array or "
            "an object with an 'events' key"
        )
    return events


def _cmd_events_ingest(args: argparse.Namespace) -> int:
    """Ingest a trace file into a server or the local estimator."""
    from .telemetry import parse_events

    _configure_obs(args)
    events = _read_events_file(args.events)
    if args.url:
        accepted, duplicates = _post_events(
            args.url, events, args.batch_size
        )
        print(f"ingested {accepted} event(s) into {args.url} "
              f"({duplicates} duplicate(s) skipped)")
        return 0
    hub = _telemetry_hub_open(args)
    parsed = parse_events(events)
    accepted = duplicates = 0
    for lo in range(0, len(parsed), max(1, args.batch_size)):
        result = hub.ingest(
            [
                event.to_dict()
                for event in parsed[lo:lo + max(1, args.batch_size)]
            ]
        )
        accepted += int(result["accepted"])
        duplicates += int(result["duplicates"])
    print(f"ingested {accepted} event(s) "
          f"({duplicates} duplicate(s) skipped)")
    print(f"state digest : {hub.estimator.state_digest()}")
    print(f"parts        : {hub.estimator.parts}, "
          f"units: {hub.estimator.units}")
    return 0


def _print_calibration_summary(summary: dict) -> None:
    print(f"events       : {summary['events_total']} across "
          f"{summary['parts']} part(s), {summary['units']} unit(s)")
    window = summary.get("event_window")
    if window:
        print(f"window       : {window['start_hours']:.1f} .. "
              f"{window['end_hours']:.1f} h")
    print(f"state digest : {summary['state_digest']}")
    fitted = summary.get("fitted", {})
    rows = fitted.get("parts", [])
    if rows:
        print(f"{'failures':>8} {'rate/h':>12} {'mtbf h':>12}  part")
        for row in rows:
            mtbf = row.get("mtbf_hours")
            mtbf_text = f"{mtbf:.0f}" if mtbf else "-"
            print(f"{row['failures']:>8} {row['failure_rate']:>12.3e} "
                  f"{mtbf_text:>12}  {row['part']}")
    proposal = summary.get("proposal")
    if proposal:
        print(f"proposal     : {proposal['proposal_digest'][:16]} "
              f"({', '.join(proposal.get('drifted_parts') or [])})")


def _cmd_calibrate_status(args: argparse.Namespace) -> int:
    if args.url:
        summary = _http_expect(args.url, "/v1/calibration")
    else:
        summary = _telemetry_hub_open(args).summary()
    import json

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    _print_calibration_summary(summary)
    return 0


def _cmd_calibrate_run(args: argparse.Namespace) -> int:
    """Submit a checkpointed ``kind="calibration"`` background job."""
    import json
    from pathlib import Path

    from .jobs import JobSpec

    _configure_obs(args)
    spec_doc = json.loads(Path(args.spec).read_text())
    if args.events:
        source: dict = {
            "kind": "events", "events": _read_events_file(args.events),
        }
    else:
        source = {
            "kind": "synthetic",
            "seed": args.seed,
            "window_hours": args.trace_window,
            "server": args.server,
        }
        shifts = _parse_shifts(args.shift)
        if shifts:
            source["shifts"] = shifts
    params: dict = {
        "source": source,
        "chunk_events": args.chunk_events,
        "window_hours": args.window,
    }
    drift = _drift_overrides(args)
    if drift:
        params["drift"] = drift
    job = JobSpec(kind="calibration", spec=spec_doc, params=params)
    store = _jobs_open(args)
    record, created = store.submit(job)
    verb = "submitted" if created else "already queued (deduplicated)"
    print(f"{record.id} {verb}")
    print(f"state: {record.state}")
    print("run it with: rascad jobs worker --once")
    return 0


def _cmd_calibrate_propose(args: argparse.Namespace) -> int:
    """Fit, drift-detect against a spec, and store a proposal."""
    import json
    from pathlib import Path

    _configure_obs(args)
    if args.url:
        payload: dict = {
            "spec": json.loads(Path(args.spec).read_text())
        }
        drift = _drift_overrides(args)
        if drift:
            payload["drift"] = drift
        document = _http_expect(
            args.url, "/v1/calibration/propose", payload
        )
        proposal = document["proposal"]
    else:
        hub = _telemetry_hub_open(args)
        model = _load(args)
        engine = _engine_from_args(args)
        try:
            proposal = hub.propose(
                model,
                engine,
                drift_config=_drift_config_from_args(
                    args, hub.estimator.window_hours
                ),
                options=_solver_options_from_args(args),
            )
        finally:
            _persist_stats(engine, args)
    drift = proposal.get("drift", {})
    print(f"proposal  : {proposal['proposal_digest'][:16]}")
    print(f"model     : {proposal['model']}")
    print(f"drifted   : {', '.join(drift.get('drifted_parts', []))}")
    for part, entry in sorted(proposal.get("refit", {}).items()):
        new = entry.get("new_mtbf_hours")
        new_text = f"{new:.0f}" if new else "-"
        print(f"  ~ {part}: mtbf {entry['old_mtbf_hours']:.0f} "
              f"-> {new_text} h")
    evaluation = proposal.get("evaluation", {})
    if evaluation:
        print(f"candidate : {evaluation['availability']:.8f} avail, "
              f"{evaluation['yearly_downtime_minutes']:.3f} min/yr")
    return 0


def _cmd_calibrate_publish(args: argparse.Namespace) -> int:
    """Publish the stored proposal to the registry (gated when tagged)."""
    _configure_obs(args)
    if args.url:
        payload: dict = {"name": args.name}
        if args.tag:
            payload["tag"] = args.tag
        if args.force:
            payload["force"] = True
        if args.threshold is not None:
            payload["threshold"] = args.threshold
        document = _http_expect(
            args.url, "/v1/calibration/publish", payload
        )
        version = document.get("version", {})
        verb = (
            "published" if document.get("created") else "already published"
        )
        print(f"{verb} {args.name}@{version.get('digest', '')[:12]}")
        return 0
    hub = _telemetry_hub_open(args)
    engine = _engine_from_args(args)
    registry = _registry_open(args, engine=engine)
    try:
        result = hub.publish(
            registry,
            args.name,
            tag=args.tag,
            force=args.force,
            threshold=args.threshold,
        )
    finally:
        _persist_stats(engine, args)
        registry.close()
    verb = "published" if result.created else "already published"
    print(f"{verb} {args.name}@{result.version.digest[:12]} "
          "from calibration proposal")
    source = result.version.source or {}
    rates = source.get("fitted_rates", {})
    for part, rate in sorted(rates.items()):
        print(f"  {part}: fitted rate {rate:.3e}/h")
    gate = result.gate
    if gate is not None:
        delta = gate["downtime_delta_minutes"]
        print(f"gate      : {delta:+.3f} min/yr vs {gate['tag']} "
              f"baseline (threshold {gate['threshold_minutes']:g})"
              + (" [FORCED]" if gate.get("forced") else ""))
    return 0


def _db_targets(args: argparse.Namespace) -> List[dict]:
    """The databases a ``rascad db`` verb operates on.

    Explicit paths win; otherwise the known store databases under the
    cache directory (default ``~/.cache/rascad``) are discovered.
    """
    from pathlib import Path

    from .store import discover_databases

    paths = getattr(args, "paths", None) or []
    if paths:
        return [{"name": Path(p).stem, "path": p} for p in paths]
    base = getattr(args, "cache_dir", None) or default_cache_dir()
    found = discover_databases(base)
    if not found:
        raise RascadError(
            f"no store databases under {base} "
            "(pass database paths explicitly, or --cache-dir)"
        )
    return found


def _cmd_db_status(args: argparse.Namespace) -> int:
    import json

    from .store import db_status

    statuses = []
    for target in _db_targets(args):
        status = db_status(target["path"])
        status["name"] = target["name"]
        statuses.append(status)
    if args.json:
        print(json.dumps(statuses, indent=2, sort_keys=True))
        return 0
    print(f"{'store':<12} {'uv':>3} {'journal':<8} {'bytes':>12}  rows")
    for status in statuses:
        rows = ", ".join(
            f"{table}={count}"
            for table, count in sorted(status["tables"].items())
        ) or "-"
        print(f"{status['name']:<12} {status['user_version']:>3} "
              f"{status['journal_mode']:<8} "
              f"{status['size_bytes']:>12}  {rows}")
    return 0


def _cmd_db_check(args: argparse.Namespace) -> int:
    import json

    from .store import db_check

    reports = []
    for target in _db_targets(args):
        report = db_check(target["path"])
        report["name"] = target["name"]
        reports.append(report)
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for report in reports:
            verdict = "ok" if report["ok"] else "CORRUPT"
            print(f"{report['name']:<12} {verdict}  {report['path']}")
            if not report["ok"]:
                for message in report["messages"]:
                    print(f"  {message}")
    return 0 if all(report["ok"] for report in reports) else 1


def _cmd_db_backup(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .store import db_backup, default_backup_destination

    targets = _db_targets(args)
    if args.out and len(targets) != 1:
        raise RascadError(
            "--out names one file; it needs exactly one database "
            f"(got {len(targets)})"
        )
    results = []
    for target in targets:
        destination = (
            Path(args.out)
            if args.out
            else default_backup_destination(
                target["path"], args.out_dir
            )
        )
        result = db_backup(
            target["path"], destination, pages=args.pages
        )
        result["name"] = target["name"]
        results.append(result)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for result in results:
            print(f"{result['name']:<12} {result['size_bytes']:>12} "
                  f"bytes -> {result['destination']}")
    return 0


def _cmd_parts(args: argparse.Namespace) -> int:
    database = _parts_database(args)
    print(f"{'part':<12} {'MTBF h':>10} {'FIT':>8}  description")
    for record in database:
        print(f"{record.part_number:<12} {record.mtbf_hours:>10.0f} "
              f"{record.transient_fit:>8.0f}  {record.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rascad",
        description="RAScad-style availability modeling from "
                    "engineering-language specs",
    )
    parser.add_argument(
        "--database", metavar="PARTS.json", default=None,
        help="component catalog file (default: builtin catalog)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
        help="print the version and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for batch evaluation (default: 1)",
        )
        subparser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="enable the persistent solve cache at DIR "
                 "(default: in-memory cache only)",
        )
        subparser.add_argument(
            "--no-cache", action="store_true",
            help="disable the solve cache for this run",
        )
        add_solver_flags(subparser)
        add_obs_flags(subparser)

    def add_solver_flags(subparser: argparse.ArgumentParser) -> None:
        from .num import STEADY_ALIASES, TRANSIENT_METHODS, backend_names

        subparser.add_argument(
            "--steady-method", default=None, metavar="BACKEND",
            choices=sorted(set(backend_names()) | set(STEADY_ALIASES)),
            help="steady-state solver backend "
                 "(default: dense-direct; see docs/solvers.md)",
        )
        subparser.add_argument(
            "--transient-method", default=None, metavar="METHOD",
            choices=sorted(TRANSIENT_METHODS),
            help="transient method label: uniformization, expm, ode, or "
                 "auto (default: uniformization); it only keys the solve "
                 "cache, every transient measure uses uniformization",
        )
        subparser.add_argument(
            "--representation", default=None,
            choices=["auto", "dense", "sparse"],
            help="generator storage: dense ndarray, sparse CSR, or "
                 "auto-select by size and fill-in (default: auto)",
        )

    def add_obs_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--trace", action="store_true",
            help="enable tracing without a span export file",
        )
        subparser.add_argument(
            "--trace-dir", default=None, metavar="DIR",
            help="enable tracing and export spans to DIR/spans.jsonl",
        )
        subparser.add_argument(
            "--trace-detail", action="store_true",
            help="also emit per-block solve spans (deep-dive traces)",
        )
        subparser.add_argument(
            "--log-level", default="info", metavar="LEVEL",
            choices=["debug", "info", "warning", "error"],
            help="log level for the rascad logger (default: info)",
        )
        subparser.add_argument(
            "--log-json", action="store_true",
            help="emit structured JSON log lines (with trace ids)",
        )

    solve = commands.add_parser("solve", help="system measures")
    solve.add_argument("spec")
    solve.add_argument("--mission", type=float, default=None,
                       help="mission time T in hours")
    add_engine_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    tree = commands.add_parser("tree", help="diagram/block tree")
    tree.add_argument("spec")
    tree.set_defaults(handler=_cmd_tree)

    report = commands.add_parser("report", help="markdown RAS report")
    report.add_argument("spec")
    report.set_defaults(handler=_cmd_report)

    importance = commands.add_parser(
        "importance",
        help="Birnbaum importance and improvement potentials",
    )
    importance.add_argument("spec")
    add_engine_flags(importance)
    importance.set_defaults(handler=_cmd_importance)

    budget = commands.add_parser("budget", help="downtime budget")
    budget.add_argument("spec")
    budget.set_defaults(handler=_cmd_budget)

    dot = commands.add_parser("dot", help="Graphviz dot of one chain")
    dot.add_argument("spec")
    dot.add_argument("block", help="block path, e.g. 'Sys/Server/CPU'")
    dot.set_defaults(handler=_cmd_dot)

    sweep = commands.add_parser("sweep", help="parametric sweep")
    sweep.add_argument("spec")
    sweep.add_argument("block")
    sweep.add_argument("field")
    sweep.add_argument("values", nargs="+")
    sweep.add_argument(
        "--cluster", default=None, metavar="URL",
        help="run the sweep through a cluster coordinator at URL "
             "instead of the local engine",
    )
    sweep.add_argument(
        "--cluster-timeout", type=float, default=600.0, metavar="SECONDS",
        help="deadline for a --cluster sweep (default: 600)",
    )
    add_engine_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    validate = commands.add_parser(
        "validate", help="Monte Carlo cross-check of the analytic solution"
    )
    validate.add_argument("spec")
    validate.add_argument("--replications", type=int, default=40)
    validate.add_argument("--horizon", type=float, default=30_000.0)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--deep", action="store_true",
        help="run the full Section-5 protocol (independent analytic "
             "path, Monte Carlo, field-data loop)",
    )
    add_engine_flags(validate)
    validate.set_defaults(handler=_cmd_validate)

    requirement = commands.add_parser(
        "requirement", help="check the model against an availability target"
    )
    requirement.add_argument("spec")
    target_group = requirement.add_mutually_exclusive_group(required=True)
    target_group.add_argument("--availability", type=float, default=None)
    target_group.add_argument("--nines", type=float, default=None)
    target_group.add_argument(
        "--downtime", type=float, default=None,
        help="maximum downtime budget in minutes/year",
    )
    requirement.set_defaults(handler=_cmd_requirement)

    compare = commands.add_parser(
        "compare", help="side-by-side comparison of several specs"
    )
    compare.add_argument("specs", nargs="+")
    compare.set_defaults(handler=_cmd_compare)

    diff = commands.add_parser(
        "diff", help="what changed between two specs, and its impact"
    )
    diff.add_argument("old")
    diff.add_argument("new")
    diff.set_defaults(handler=_cmd_diff)

    parts = commands.add_parser("parts", help="list the component catalog")
    parts.set_defaults(handler=_cmd_parts)

    stats = commands.add_parser(
        "stats", help="engine counters and cache usage from the last run"
    )
    stats.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory to inspect (default: ~/.cache/rascad)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="machine-readable output (the service's /metrics document)",
    )
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve", help="run the HTTP model-serving API"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free port (default: 8080)",
    )
    add_engine_flags(serve)
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="distinct solves admitted before 429 backpressure "
             "(default: 64)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="default and maximum per-request deadline (default: 30)",
    )
    serve.add_argument(
        "--warm-start", action="store_true",
        help="pre-solve the library models into the cache at startup",
    )
    serve.add_argument(
        "--jobs-db", default=None, metavar="PATH",
        help="job store database for the /v1/jobs endpoints "
             "(default: jobs.sqlite3 inside --cache-dir; jobs are "
             "disabled when neither flag is given)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATIO",
        help="head-sampling ratio in [0, 1]; errors and slow spans "
             "are always kept (default: 1.0)",
    )
    serve.add_argument(
        "--registry-db", default=None, metavar="PATH",
        help="model registry database for /v1/models "
             "(default: registry.sqlite3 inside --cache-dir, else "
             "in-memory for the server's lifetime)",
    )
    serve.add_argument(
        "--registry-threshold", type=float, default=1.0,
        metavar="MINUTES",
        help="regression-gate threshold in extra yearly downtime "
             "minutes a tagged publish may cost (default: 1.0)",
    )
    serve.add_argument(
        "--no-registry-seed", action="store_true",
        help="do not publish the built-in library models into the "
             "registry at startup",
    )
    serve.add_argument(
        "--telemetry-max-pending", type=int, default=10_000, metavar="N",
        help="field events admitted but not yet applied before "
             "POST /v1/events answers 429 (default: 10000)",
    )
    serve.add_argument(
        "--telemetry-max-batch", type=int, default=1_024, metavar="N",
        help="maximum events in one /v1/events batch (default: 1024)",
    )
    serve.add_argument(
        "--telemetry-window", type=float, default=168.0, metavar="HOURS",
        help="drift-detection window width in hours (default: 168)",
    )
    serve.set_defaults(handler=_cmd_serve)

    trace = commands.add_parser(
        "trace", help="inspect exported trace spans"
    )
    trace_commands = trace.add_subparsers(
        dest="trace_command", required=True
    )

    tail = trace_commands.add_parser(
        "tail", help="most recent spans from a trace directory"
    )
    tail.add_argument(
        "trace_dir", help="directory holding spans.jsonl",
    )
    tail.add_argument(
        "--limit", type=int, default=50, metavar="N",
        help="show at most the last N spans (default: 50)",
    )
    tail.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="only spans of one trace",
    )
    tail.add_argument(
        "--name", default=None, metavar="NAME",
        help="only spans with this name (e.g. engine.solve)",
    )
    tail.add_argument(
        "--json", action="store_true",
        help="one JSON span object per line instead of a table",
    )
    tail.set_defaults(handler=_cmd_trace_tail)

    summary = trace_commands.add_parser(
        "summary", help="per-span-name latency/error rollup"
    )
    summary.add_argument(
        "trace_dir", help="directory holding spans.jsonl",
    )
    summary.set_defaults(handler=_cmd_trace_summary)

    jobs = commands.add_parser(
        "jobs", help="durable background jobs (submit, inspect, run)"
    )
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)

    # Every jobs subcommand finds the store the same way: --db, else
    # jobs.sqlite3 inside --cache-dir (the worker's --cache-dir comes
    # with its engine flags).
    jobs_db = argparse.ArgumentParser(add_help=False)
    jobs_db.add_argument(
        "--db", default=None, metavar="PATH",
        help="job store database (default: jobs.sqlite3 inside "
             "--cache-dir, else ~/.cache/rascad/jobs.sqlite3)",
    )
    jobs_store = argparse.ArgumentParser(add_help=False, parents=[jobs_db])
    jobs_store.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="use the job store in DIR, as 'jobs worker --cache-dir DIR' "
             "and 'serve --cache-dir DIR' do",
    )

    submit = jobs_commands.add_parser(
        "submit", parents=[jobs_store],
        help="enqueue a sweep/uncertainty/validate/study job",
    )
    submit.add_argument("spec", help="model spec file")
    submit.add_argument(
        "--kind",
        choices=["sweep", "uncertainty", "validate", "study",
                 "calibration"],
        default="sweep",
    )
    submit.add_argument("--block", default=None,
                        help="block path for a sweep (omit for global)")
    submit.add_argument("--field", default=None,
                        help="field to sweep")
    submit.add_argument(
        "--values", nargs="+", default=None, metavar="V",
        help="sweep values; numbers or start:stop:count ranges "
             "(e.g. 1e5:1e6:10)",
    )
    from .num import STEADY_ALIASES, backend_names

    submit.add_argument(
        "--method", default=None,
        choices=sorted(set(backend_names()) | set(STEADY_ALIASES)),
        help="steady-state backend the job's solves use "
             "(full control via a 'solver' object in --params)",
    )
    submit.add_argument("--replications", type=int, default=None)
    submit.add_argument("--horizon", type=float, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--params", default=None, metavar="PARAMS.json",
        help="kind-specific parameters as a JSON file (merged under "
             "any explicit flags; required for uncertainty and "
             "study jobs — a study's params are the study document "
             "minus 'base')",
    )
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default: 0)")
    submit.add_argument("--max-attempts", type=int, default=3)
    submit.set_defaults(handler=_cmd_jobs_submit)

    status = jobs_commands.add_parser(
        "status", parents=[jobs_store], help="one job's state"
    )
    status.add_argument("id")
    status.set_defaults(handler=_cmd_jobs_status)

    jlist = jobs_commands.add_parser(
        "list", parents=[jobs_store], help="recent jobs"
    )
    jlist.add_argument("--state", default=None,
                       choices=["queued", "running", "succeeded",
                                "failed", "cancelled"])
    jlist.add_argument("--kind", default=None,
                       choices=["sweep", "uncertainty", "validate",
                                "study", "calibration"])
    jlist.add_argument("--limit", type=int, default=50)
    jlist.set_defaults(handler=_cmd_jobs_list)

    cancel = jobs_commands.add_parser(
        "cancel", parents=[jobs_store], help="cancel a job"
    )
    cancel.add_argument("id")
    cancel.set_defaults(handler=_cmd_jobs_cancel)

    worker = jobs_commands.add_parser(
        "worker", parents=[jobs_db], help="run a job worker loop"
    )
    add_engine_flags(worker)
    worker.add_argument(
        "--once", action="store_true",
        help="drain the queue, then exit instead of polling",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle polling interval (default: 0.5)",
    )
    worker.add_argument(
        "--lease-timeout", type=float, default=60.0, metavar="SECONDS",
        help="heartbeat age before a running job is presumed crashed "
             "and reclaimed (default: 60)",
    )
    worker.add_argument(
        "--checkpoint-every", type=int, default=25, metavar="POINTS",
        help="points solved between durable checkpoints (default: 25)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after processing N jobs",
    )
    worker.set_defaults(handler=_cmd_jobs_worker)

    cluster = commands.add_parser(
        "cluster",
        help="sharded multi-worker fleet (coordinator, worker, status)",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    def add_bind_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--host", default="127.0.0.1",
            help="bind address (default: 127.0.0.1)",
        )
        subparser.add_argument(
            "--port", type=int, default=0,
            help="bind port; 0 picks a free port (default: 0)",
        )
        add_engine_flags(subparser)

    coordinator = cluster_commands.add_parser(
        "coordinator",
        help="serve as a coordinator fanning sweeps out over workers",
    )
    add_bind_flags(coordinator)
    coordinator.add_argument(
        "--worker", action="append", default=None, metavar="URL",
        help="static worker base URL (repeatable); more workers may "
             "join dynamically via POST /v1/cluster/workers",
    )
    coordinator.add_argument(
        "--jobs-db", default=None, metavar="PATH",
        help="SQLite path persisting the shard table (and /v1/jobs); "
             "a restarted coordinator resumes completed shards from it",
    )
    coordinator.add_argument(
        "--shard-size", type=int, default=16, metavar="POINTS",
        help="points per shard (default: 16)",
    )
    coordinator.add_argument(
        "--lease-timeout", type=float, default=15.0, metavar="SECONDS",
        help="heartbeat age before a dynamic worker leaves placement "
             "(default: 15)",
    )
    coordinator.add_argument(
        "--steal-after", type=float, default=5.0, metavar="SECONDS",
        help="shard runtime before idle workers re-execute it "
             "speculatively (default: 5)",
    )
    coordinator.add_argument(
        "--max-shard-attempts", type=int, default=4, metavar="N",
        help="attempts per shard before the workload fails (default: 4)",
    )
    coordinator.add_argument(
        "--call-timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket timeout for one shard HTTP call (default: 60)",
    )
    coordinator.add_argument(
        "--fanout-threshold", type=int, default=2, metavar="POINTS",
        help="minimum sweep size worth sharding (default: 2)",
    )
    coordinator.set_defaults(handler=_cmd_cluster_coordinator)

    cluster_worker = cluster_commands.add_parser(
        "worker",
        help="serve solves and register with a coordinator",
    )
    add_bind_flags(cluster_worker)
    cluster_worker.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="coordinator base URL to register with",
    )
    cluster_worker.add_argument(
        "--advertise", default=None, metavar="URL",
        help="URL the coordinator should dial back "
             "(default: http://HOST:PORT as bound)",
    )
    cluster_worker.add_argument(
        "--heartbeat-interval", type=float, default=2.0,
        metavar="SECONDS",
        help="seconds between registration heartbeats (default: 2)",
    )
    cluster_worker.set_defaults(handler=_cmd_cluster_worker)

    cluster_status = cluster_commands.add_parser(
        "status", help="one coordinator's fleet and workload view"
    )
    cluster_status.add_argument(
        "coordinator", metavar="URL", help="coordinator base URL"
    )
    cluster_status.add_argument(
        "--json", action="store_true",
        help="print the raw /v1/cluster/status document",
    )
    cluster_status.set_defaults(handler=_cmd_cluster_status)

    models = commands.add_parser(
        "models",
        help="versioned model registry (publish, tag, gate, rollback)",
    )
    models_commands = models.add_subparsers(
        dest="models_command", required=True
    )

    def add_registry_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--registry-db", default=None, metavar="PATH",
            help="registry database "
                 "(default: ~/.cache/rascad/registry.sqlite3)",
        )

    publish = models_commands.add_parser(
        "publish",
        help="publish a spec as an immutable version, optionally "
             "moving a tag through the regression gate",
    )
    publish.add_argument("spec", help="model spec file")
    publish.add_argument(
        "--name", default=None, metavar="NAME",
        help="registry model name (default: slug of the spec's "
             "model name)",
    )
    publish.add_argument(
        "--tag", default=None, metavar="TAG",
        help="also point TAG at the new version (gated against the "
             "tag's current holder)",
    )
    publish.add_argument(
        "--force", action="store_true",
        help="override a regression-gate rejection (recorded)",
    )
    publish.add_argument(
        "--threshold", type=float, default=None, metavar="MINUTES",
        help="gate threshold in extra yearly downtime minutes "
             "(default: 1.0)",
    )
    publish.add_argument(
        "--description", default=None,
        help="one-line model description (first publish wins)",
    )
    add_registry_flag(publish)
    add_engine_flags(publish)
    publish.set_defaults(handler=_cmd_models_publish)

    mlist = models_commands.add_parser(
        "list", help="registered models, their tags and version counts"
    )
    add_registry_flag(mlist)
    mlist.set_defaults(handler=_cmd_models_list)

    show = models_commands.add_parser(
        "show",
        help="one model (bare name) or one version (name@tag / "
             "name@digest)",
    )
    show.add_argument("ref", help="name, name@tag, or name@digest")
    add_registry_flag(show)
    show.set_defaults(handler=_cmd_models_show)

    mdiff = models_commands.add_parser(
        "diff", help="structured diff between two registry versions"
    )
    mdiff.add_argument("old", help="baseline ref (name@tag/@digest)")
    mdiff.add_argument("new", help="candidate ref")
    add_registry_flag(mdiff)
    mdiff.set_defaults(handler=_cmd_models_diff)

    mtag = models_commands.add_parser(
        "tag", help="point a tag at a version (ungated operator move)"
    )
    mtag.add_argument("name")
    mtag.add_argument("tag")
    mtag.add_argument(
        "selector", help="tag or digest prefix to point at"
    )
    add_registry_flag(mtag)
    mtag.set_defaults(handler=_cmd_models_tag)

    rollback = models_commands.add_parser(
        "rollback",
        help="move a tag back to its previous distinct version",
    )
    rollback.add_argument("name")
    rollback.add_argument("tag")
    add_registry_flag(rollback)
    rollback.set_defaults(handler=_cmd_models_rollback)

    check = models_commands.add_parser(
        "check",
        help="dry-run the regression gate (exit 1 on would-reject)",
    )
    check.add_argument("spec", help="candidate model spec file")
    check.add_argument("--name", required=True, metavar="NAME")
    check.add_argument("--tag", required=True, metavar="TAG")
    check.add_argument(
        "--threshold", type=float, default=None, metavar="MINUTES",
        help="gate threshold in extra yearly downtime minutes "
             "(default: 1.0)",
    )
    add_registry_flag(check)
    add_engine_flags(check)
    check.set_defaults(handler=_cmd_models_check)

    study = commands.add_parser(
        "study",
        help="design-space studies (run, status, front, publish)",
    )
    study_commands = study.add_subparsers(
        dest="study_command", required=True
    )

    def add_studies_flag(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--studies-dir", default=None, metavar="DIR",
            help="study record directory "
                 "(default: CACHE_DIR/studies, ~/.cache/rascad/studies)",
        )

    run = study_commands.add_parser(
        "run", help="run a study document and print its Pareto front"
    )
    run.add_argument("study", help="study document file (JSON)")
    run.add_argument(
        "--base", default=None, metavar="SPEC.json",
        help="base model spec file (overrides the document's 'base')",
    )
    run.add_argument(
        "--rerun", action="store_true",
        help="re-run even if this study id already has a result",
    )
    add_studies_flag(run)
    add_engine_flags(run)
    run.set_defaults(handler=_cmd_study_run)

    sstatus = study_commands.add_parser(
        "status", help="recorded studies, or one study's state"
    )
    sstatus.add_argument("id", nargs="?", default=None,
                         help="study id (omit to list all)")
    add_studies_flag(sstatus)
    sstatus.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache directory holding studies/")
    sstatus.set_defaults(handler=_cmd_study_status)

    front = study_commands.add_parser(
        "front", help="a finished study's Pareto front"
    )
    front.add_argument("id", help="study id")
    front.add_argument(
        "--dot", action="store_true",
        help="emit a Graphviz scatter (render with dot -Kneato)",
    )
    add_studies_flag(front)
    front.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory holding studies/")
    front.set_defaults(handler=_cmd_study_front)

    spublish = study_commands.add_parser(
        "publish",
        help="publish a study's winning candidate to the model "
             "registry, with the study id in its lineage",
    )
    spublish.add_argument("id", help="study id")
    spublish.add_argument(
        "--name", default=None, metavar="NAME",
        help="registry model name (default: slug of '<study>-winner')",
    )
    spublish.add_argument(
        "--tag", default=None, metavar="TAG",
        help="also point TAG at the published version (gated)",
    )
    spublish.add_argument(
        "--force", action="store_true",
        help="override a regression-gate rejection (recorded)",
    )
    spublish.add_argument(
        "--description", default=None,
        help="one-line model description (first publish wins)",
    )
    add_studies_flag(spublish)
    add_registry_flag(spublish)
    add_engine_flags(spublish)
    spublish.set_defaults(handler=_cmd_study_publish)

    events = commands.add_parser(
        "events",
        help="field-event traces (replay a synthetic trace, ingest)",
    )
    events_commands = events.add_subparsers(
        dest="events_command", required=True
    )

    def add_ingest_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--url", default=None, metavar="URL",
            help="POST to a running rascad serve instead of the "
                 "local telemetry state",
        )
        subparser.add_argument(
            "--batch-size", type=int, default=256, metavar="N",
            help="events per ingest batch (default: 256)",
        )

    replay = events_commands.add_parser(
        "replay",
        help="generate a reproducible synthetic field trace from a spec",
    )
    replay.add_argument("spec", help="model spec file")
    replay.add_argument(
        "--window", type=float, default=10_950.0, metavar="HOURS",
        help="observation window in hours (default: 10950, ~15 months)",
    )
    replay.add_argument(
        "--seed", type=int, default=0,
        help="trace seed (default: 0)",
    )
    replay.add_argument(
        "--server", default="server-A", metavar="NAME",
        help="unit-name prefix for the simulated fleet "
             "(default: server-A)",
    )
    replay.add_argument(
        "--shift", action="append", default=None, metavar="PATH=FACTOR",
        help="multiply one part's spec MTBF by FACTOR before "
             "simulating (repeatable; <1 injects drift)",
    )
    replay.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the trace to FILE instead of stdout",
    )
    add_ingest_flags(replay)
    add_obs_flags(replay)
    replay.set_defaults(handler=_cmd_events_replay)

    ingest = events_commands.add_parser(
        "ingest",
        help="feed a trace file into a server or the local estimator",
    )
    ingest.add_argument(
        "events", metavar="TRACE.json",
        help="event trace file (array, or object with 'events')",
    )
    ingest.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="local telemetry state directory root "
             "(default: ~/.cache/rascad; state in DIR/telemetry)",
    )
    ingest.add_argument(
        "--window", type=float, default=None, metavar="HOURS",
        help="drift window for fresh local state (default: 168)",
    )
    add_ingest_flags(ingest)
    add_obs_flags(ingest)
    ingest.set_defaults(handler=_cmd_events_ingest)

    calibrate = commands.add_parser(
        "calibrate",
        help="online rate calibration from field events "
             "(run, status, propose, publish)",
    )
    calibrate_commands = calibrate.add_subparsers(
        dest="calibrate_command", required=True
    )

    def add_drift_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--drift-shift", type=float, default=None, metavar="S",
            help="rate-shift factor the CUSUM tests for (default: 2.0)",
        )
        subparser.add_argument(
            "--drift-threshold", type=float, default=None, metavar="H",
            help="CUSUM decision threshold (default: 8.0)",
        )
        subparser.add_argument(
            "--min-events", type=int, default=None, metavar="N",
            help="failures required before deterioration is "
                 "confirmable (default: 5)",
        )

    crun = calibrate_commands.add_parser(
        "run", parents=[jobs_store],
        help="submit a checkpointed calibration job "
             "(execute with: rascad jobs worker)",
    )
    crun.add_argument("spec", help="model spec file")
    crun.add_argument(
        "--events", default=None, metavar="TRACE.json",
        help="ingest this trace file (default: a synthetic trace)",
    )
    crun.add_argument("--seed", type=int, default=0,
                      help="synthetic trace seed (default: 0)")
    crun.add_argument(
        "--trace-window", type=float, default=10_950.0, metavar="HOURS",
        help="synthetic observation window (default: 10950)",
    )
    crun.add_argument(
        "--server", default="server-A", metavar="NAME",
        help="synthetic fleet unit-name prefix (default: server-A)",
    )
    crun.add_argument(
        "--shift", action="append", default=None, metavar="PATH=FACTOR",
        help="synthetic MTBF shift (repeatable; <1 injects drift)",
    )
    crun.add_argument(
        "--chunk-events", type=int, default=256, metavar="N",
        help="events per checkpointable chunk (default: 256)",
    )
    crun.add_argument(
        "--window", type=float, default=168.0, metavar="HOURS",
        help="drift-detection window width (default: 168)",
    )
    add_drift_flags(crun)
    add_obs_flags(crun)
    crun.set_defaults(handler=_cmd_calibrate_run)

    cstatus = calibrate_commands.add_parser(
        "status", help="fitted per-part rates and the stored proposal"
    )
    cstatus.add_argument(
        "--url", default=None, metavar="URL",
        help="query a running rascad serve instead of local state",
    )
    cstatus.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="local telemetry state directory root")
    cstatus.add_argument("--window", type=float, default=None,
                         metavar="HOURS",
                         help="drift window for fresh local state")
    cstatus.add_argument(
        "--json", action="store_true",
        help="print the raw /v1/calibration document",
    )
    cstatus.set_defaults(handler=_cmd_calibrate_status)

    cpropose = calibrate_commands.add_parser(
        "propose",
        help="detect drift against a spec and store a re-fitted "
             "calibration proposal",
    )
    cpropose.add_argument("spec", help="model spec file")
    cpropose.add_argument(
        "--url", default=None, metavar="URL",
        help="propose on a running rascad serve instead of locally",
    )
    add_drift_flags(cpropose)
    cpropose.add_argument("--window", type=float, default=None,
                          metavar="HOURS",
                          help="drift window for fresh local state")
    add_engine_flags(cpropose)
    cpropose.set_defaults(handler=_cmd_calibrate_propose)

    cpublish = calibrate_commands.add_parser(
        "publish",
        help="publish the stored proposal to the model registry "
             "(tagging runs the regression gate)",
    )
    cpublish.add_argument(
        "--name", required=True, metavar="NAME",
        help="registry model name",
    )
    cpublish.add_argument(
        "--tag", default=None, metavar="TAG",
        help="also point TAG at the published version (gated)",
    )
    cpublish.add_argument(
        "--force", action="store_true",
        help="override a regression-gate rejection (recorded)",
    )
    cpublish.add_argument(
        "--threshold", type=float, default=None, metavar="MINUTES",
        help="gate threshold in extra yearly downtime minutes "
             "(default: 1.0)",
    )
    cpublish.add_argument(
        "--url", default=None, metavar="URL",
        help="publish through a running rascad serve instead of locally",
    )
    cpublish.add_argument("--window", type=float, default=None,
                          metavar="HOURS",
                          help="drift window for fresh local state")
    add_registry_flag(cpublish)
    add_engine_flags(cpublish)
    cpublish.set_defaults(handler=_cmd_calibrate_publish)

    db = commands.add_parser(
        "db",
        help="store database operations (status, check, backup)",
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    def add_db_flags(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "paths", nargs="*", metavar="DB",
            help="database file(s); omit to discover the known store "
                 "databases under the cache directory",
        )
        subparser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache directory to discover databases in "
                 "(default: ~/.cache/rascad)",
        )
        subparser.add_argument(
            "--json", action="store_true",
            help="print machine-readable JSON",
        )

    dstatus = db_commands.add_parser(
        "status",
        help="size, schema version, journal mode, and row counts",
    )
    add_db_flags(dstatus)
    dstatus.set_defaults(handler=_cmd_db_status)

    dcheck = db_commands.add_parser(
        "check",
        help="PRAGMA integrity_check (exit 1 on any corruption)",
    )
    add_db_flags(dcheck)
    dcheck.set_defaults(handler=_cmd_db_check)

    dbackup = db_commands.add_parser(
        "backup",
        help="online backup to <name>.backup.sqlite3 (writers keep "
             "writing)",
    )
    add_db_flags(dbackup)
    dbackup.add_argument(
        "--out", default=None, metavar="FILE",
        help="backup file name (single database only)",
    )
    dbackup.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="directory for default-named backups "
             "(default: beside each source)",
    )
    dbackup.add_argument(
        "--pages", type=int, default=256, metavar="N",
        help="pages copied per backup step (default: 256)",
    )
    dbackup.set_defaults(handler=_cmd_db_backup)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RascadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; the
        # conventional Unix response is a silent, successful exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
