"""Tests for the command-line interface."""

import contextlib
import http.server
import json
import threading
import time
from pathlib import Path

import pytest

from repro import datacenter_model, save_spec, workgroup_model
from repro.cli import main
from repro.jobs.store import JOBS_SCHEMA


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    save_spec(workgroup_model(), path)
    return str(path)


class TestSolve:
    def test_prints_measures(self, spec_path, capsys):
        assert main(["solve", spec_path]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "yearly downtime" in out
        assert "Workgroup Server" in out

    def test_mission_override(self, spec_path, capsys):
        assert main(["solve", spec_path, "--mission", "100"]) == 0
        out = capsys.readouterr().out
        assert "100 h" in out

    @pytest.mark.parametrize("mission", ["nan", "inf", "0", "-1"])
    def test_non_positive_or_non_finite_mission_is_an_error(
        self, spec_path, capsys, mission
    ):
        assert main(["solve", spec_path, "--mission", mission]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "mission time" in captured.err
        assert "nan" not in captured.out


class TestMissingDatabase:
    @pytest.mark.parametrize("command", [
        ["parts"], ["solve", "SPEC"], ["jobs", "list"],
    ])
    def test_missing_database_file_is_a_clear_error(
        self, spec_path, tmp_path, capsys, command
    ):
        missing = tmp_path / "MISSING.json"
        argv = [spec_path if arg == "SPEC" else arg for arg in command]
        if command[0] == "jobs":
            argv += ["--db", str(tmp_path / "jobs.sqlite3")]
        code = main(["--database", str(missing)] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "MISSING.json" in err
        assert "Traceback" not in err


class TestTreeAndReport:
    def test_tree(self, spec_path, capsys):
        assert main(["tree", spec_path]) == 0
        out = capsys.readouterr().out
        assert "Mirrored Disk" in out
        assert "Type 0" in out

    def test_report(self, spec_path, capsys):
        assert main(["report", spec_path]) == 0
        out = capsys.readouterr().out
        assert "# RAS model report" in out


class TestBudget:
    def test_rows_printed(self, spec_path, capsys):
        assert main(["budget", spec_path]) == 0
        out = capsys.readouterr().out
        assert "Operating System" in out
        assert "share" in out


class TestDot:
    def test_chain_export(self, spec_path, capsys):
        assert main(
            ["dot", spec_path, "Workgroup Server/Operating System"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_passthrough_block_errors(self, tmp_path, capsys):
        path = tmp_path / "dc.json"
        save_spec(datacenter_model(), path)
        code = main(["dot", str(path), "Data Center System/Server Box"])
        assert code == 2
        assert "pass-through" in capsys.readouterr().err


class TestSweep:
    def test_table_printed(self, spec_path, capsys):
        assert main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "20000", "40000",
        ]) == 0
        out = capsys.readouterr().out
        assert "20000" in out and "40000" in out

    def test_downtime_monotone_in_output(self, spec_path, capsys):
        main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "20000", "40000",
        ])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        downtimes = [float(line.split()[-1]) for line in lines]
        assert downtimes[0] > downtimes[1]

    def test_range_shorthand_expands(self, spec_path, capsys):
        assert main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "20000:40000:3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 3
        assert [float(line.split()[0]) for line in lines] == [
            20000.0, 30000.0, 40000.0,
        ]

    def test_ranges_mix_with_plain_values(self, spec_path, capsys):
        assert main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "10000", "20000:40000:2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 3

    def test_malformed_range_is_a_clear_error(self, spec_path, capsys):
        code = main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "20000:40000",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "20000:40000" in err
        assert "start:stop:count" in err

    def test_range_count_below_two_rejected(self, spec_path, capsys):
        code = main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "1:2:1",
        ])
        assert code == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1:2:0", "1:2:-3"])
    def test_non_positive_range_count_is_a_clear_error(
        self, spec_path, capsys, token
    ):
        code = main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", token,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert token in err
        assert "positive" in err

    def test_absurd_range_count_is_refused_before_allocating(
        self, spec_path, capsys
    ):
        code = main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "1:2:999999999",
        ])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err


class TestValidate:
    def test_agreement(self, spec_path, capsys):
        code = main([
            "validate", spec_path,
            "--replications", "20", "--horizon", "20000", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert "PASS" in out
        assert code == 0


class TestRequirement:
    def test_met_requirement_exits_zero(self, spec_path, capsys):
        assert main(["requirement", spec_path, "--nines", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "MEETS" in out

    def test_missed_requirement_exits_nonzero(self, spec_path, capsys):
        assert main(["requirement", spec_path, "--nines", "5"]) == 1
        out = capsys.readouterr().out
        assert "MISSES" in out

    def test_downtime_budget_form(self, spec_path, capsys):
        assert main(
            ["requirement", spec_path, "--downtime", "1000"]
        ) == 0
        assert "margin" in capsys.readouterr().out


class TestCompare:
    def test_side_by_side(self, spec_path, tmp_path, capsys):
        path2 = tmp_path / "dc.json"
        save_spec(datacenter_model(), path2)
        assert main(["compare", spec_path, str(path2)]) == 0
        out = capsys.readouterr().out
        assert "Workgroup Server" in out
        assert "Data Center System" in out
        assert "availability" in out


class TestDiff:
    def test_identical_specs(self, spec_path, capsys):
        assert main(["diff", spec_path, spec_path]) == 0
        assert "identical" in capsys.readouterr().out

    def test_changed_spec_reports_impact(self, spec_path, tmp_path, capsys):
        import json

        payload = json.loads(Path(spec_path).read_text())
        for block in payload["diagram"]["blocks"]:
            if block["name"] == "Operating System":
                block["mtbf_hours"] = 300_000.0
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(payload))
        assert main(["diff", spec_path, str(changed)]) == 0
        out = capsys.readouterr().out
        assert "mtbf_hours" in out
        assert "min/yr" in out


class TestParts:
    def test_builtin_catalog(self, capsys):
        assert main(["parts"]) == 0
        out = capsys.readouterr().out
        assert "CPU-400" in out
        assert "HDD-36G" in out


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestEngineFlags:
    def test_sweep_jobs_matches_serial(self, spec_path, capsys):
        argv = [
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "20000", "40000",
        ]
        assert main(argv + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
        assert capsys.readouterr().out == serial

    def test_no_cache_solve(self, spec_path, capsys):
        assert main(["solve", spec_path, "--no-cache"]) == 0
        assert "availability" in capsys.readouterr().out

    def test_cache_dir_populates_stats(self, spec_path, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["solve", spec_path, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "engine stats" in out
        assert "persistent cache" in out

    def test_stats_without_history_is_friendly(self, tmp_path, capsys):
        assert main(["stats", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "no engine stats" in capsys.readouterr().out

    def test_second_solve_hits_persistent_cache(
        self, spec_path, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        main(["solve", spec_path, "--cache-dir", cache_dir])
        main(["solve", spec_path, "--cache-dir", cache_dir])
        capsys.readouterr()
        main(["stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        # The second run recomputed nothing: every block came back from
        # the persistent layer.
        assert "block solves         : 0 computed" in out
        assert "(0 from disk)" not in out


class TestStatsJson:
    def test_stats_json_is_machine_readable(
        self, spec_path, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["solve", spec_path, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["stats", "--cache-dir", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["system_solves"] == 1
        assert payload["cache"]["disk_entries"] > 0
        assert 0.0 <= payload["derived"]["cache_hit_rate"] <= 1.0

    def test_stats_json_without_history(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        assert main(["stats", "--cache-dir", empty, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] is None
        assert payload["cache"] == {"disk_entries": 0, "disk_bytes": 0}

    def test_stats_json_matches_the_service_metrics_shape(
        self, spec_path, tmp_path, capsys
    ):
        from repro.engine import SolveCache, load_stats, metrics_payload

        cache_dir = str(tmp_path / "cache")
        main(["solve", spec_path, "--cache-dir", cache_dir])
        capsys.readouterr()
        main(["stats", "--cache-dir", cache_dir, "--json"])
        printed = json.loads(capsys.readouterr().out)
        expected = metrics_payload(
            load_stats(cache_dir),
            disk_usage=SolveCache(cache_dir=cache_dir).disk_usage(),
        )
        assert printed == expected


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "9000",
            "--jobs", "4", "--cache-dir", "/tmp/c", "--max-queue",
            "128", "--request-timeout", "5", "--warm-start",
        ])
        assert args.host == "0.0.0.0"
        assert args.port == 9000
        assert args.jobs == 4
        assert args.max_queue == 128
        assert args.request_timeout == 5.0
        assert args.warm_start

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_queue == 64
        assert args.request_timeout == 30.0
        assert not args.warm_start

    def test_serve_configures_tracing_and_logging_first(
        self, monkeypatch, tmp_path
    ):
        import logging

        import repro.service
        from repro.obs import configure_logging
        from repro.obs.logging import JsonFormatter
        from repro.obs.trace import get_tracer, set_tracer

        seen = {}

        def fake_serve(config):
            tracer = get_tracer()
            seen["tracer"] = (
                tracer.enabled,
                tracer.exporter.trace_dir,
                tracer.sample_ratio,
            )
            seen["formatters"] = [
                type(handler.formatter)
                for handler in logging.getLogger("rascad").handlers
            ]
            return 0

        monkeypatch.setattr(repro.service, "serve", fake_serve)
        previous = get_tracer()
        try:
            assert main([
                "serve", "--trace-dir", str(tmp_path),
                "--trace-sample", "0.5", "--log-json",
            ]) == 0
        finally:
            set_tracer(previous)
            configure_logging()
        assert seen["tracer"] == (True, tmp_path, 0.5)
        assert seen["formatters"] == [JsonFormatter]


class TestJobsCli:
    def _submit(self, spec_path, db, extra=()):
        return main([
            "jobs", "submit", spec_path,
            "--kind", "sweep",
            "--block", "Workgroup Server/Operating System",
            "--field", "mtbf_hours",
            "--values", "20000:40000:3",
            "--db", db, *extra,
        ])

    def test_submit_then_dedup(self, spec_path, tmp_path, capsys):
        db = str(tmp_path / "jobs.sqlite3")
        assert self._submit(spec_path, db) == 0
        first = capsys.readouterr().out
        assert "submitted" in first
        assert self._submit(spec_path, db) == 0
        assert "deduplicated" in capsys.readouterr().out

    def test_status_and_list(self, spec_path, tmp_path, capsys):
        db = str(tmp_path / "jobs.sqlite3")
        self._submit(spec_path, db)
        job_id = capsys.readouterr().out.split()[0]
        assert main(["jobs", "status", job_id, "--db", db]) == 0
        out = capsys.readouterr().out
        assert job_id in out
        assert "queued" in out
        assert main(["jobs", "list", "--db", db]) == 0
        assert job_id in capsys.readouterr().out

    def test_cancel(self, spec_path, tmp_path, capsys):
        db = str(tmp_path / "jobs.sqlite3")
        self._submit(spec_path, db)
        job_id = capsys.readouterr().out.split()[0]
        assert main(["jobs", "cancel", job_id, "--db", db]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_status_unknown_id_errors(self, tmp_path, capsys):
        db = str(tmp_path / "jobs.sqlite3")
        code = main(["jobs", "status", "job-missing", "--db", db])
        assert code == 2
        assert "no job" in capsys.readouterr().err

    def test_worker_once_drains_the_queue(self, spec_path, tmp_path,
                                          capsys):
        db = str(tmp_path / "jobs.sqlite3")
        self._submit(spec_path, db)
        job_id = capsys.readouterr().out.split()[0]
        assert main([
            "jobs", "worker", "--once", "--db", db,
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "exiting after 1 job(s)" in out
        main(["jobs", "status", job_id, "--db", db])
        status = capsys.readouterr().out
        assert "succeeded" in status
        assert "result_digest" in status

    def test_cache_dir_names_the_store_a_worker_uses(
        self, spec_path, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main([
            "jobs", "submit", spec_path,
            "--kind", "sweep",
            "--block", "Workgroup Server/Operating System",
            "--field", "mtbf_hours",
            "--values", "20000:40000:3",
            "--cache-dir", cache,
        ]) == 0
        job_id = capsys.readouterr().out.split()[0]
        assert (tmp_path / "cache" / "jobs.sqlite3").is_file()
        assert main(["jobs", "list", "--cache-dir", cache]) == 0
        assert job_id in capsys.readouterr().out
        assert main(["jobs", "worker", "--once", "--cache-dir", cache]) == 0
        assert "exiting after 1 job(s)" in capsys.readouterr().out
        assert main(["jobs", "status", job_id, "--cache-dir", cache]) == 0
        assert "succeeded" in capsys.readouterr().out
        assert main(["jobs", "cancel", job_id, "--cache-dir", cache]) == 0
        assert f"{job_id} -> succeeded" in capsys.readouterr().out

    def test_worker_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["jobs", "worker"])
        assert args.poll == 0.5
        assert args.lease_timeout == 60.0
        assert args.checkpoint_every == 25
        assert not args.once
        assert args.max_jobs is None

    def test_serve_jobs_db_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--jobs-db", "/tmp/q.db"]
        )
        assert args.jobs_db == "/tmp/q.db"


class TestErrors:
    def test_bad_spec_path(self, capsys):
        code = main(["solve", "/nonexistent/model.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_sweep_field(self, spec_path, capsys):
        code = main([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hourz", "1",
        ])
        assert code == 2


class TestClusterCli:
    def test_coordinator_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "cluster", "coordinator", "--port", "8100",
            "--worker", "http://a:8101", "--worker", "http://b:8102",
            "--shard-size", "8", "--steal-after", "2",
            "--max-shard-attempts", "6", "--jobs-db", "/tmp/c.db",
        ])
        assert args.worker == ["http://a:8101", "http://b:8102"]
        assert args.shard_size == 8
        assert args.steal_after == 2.0
        assert args.max_shard_attempts == 6
        assert args.jobs_db == "/tmp/c.db"
        assert args.fanout_threshold == 2  # default

    def test_coordinator_flags_reach_the_coordinator(
        self, monkeypatch, tmp_path
    ):
        from repro.cluster import ClusterConfig
        from repro.service import Server, lifecycle

        seen = {}

        async def fake_run_server(config):
            server = Server(config)
            seen["config"] = config.cluster
            seen["coordinator"] = server.coordinator.config
            await server.shutdown()
            return 0

        monkeypatch.setattr(lifecycle, "_run_server", fake_run_server)
        assert main([
            "cluster", "coordinator", "--cache-dir", str(tmp_path),
            "--worker", "http://a:8101", "--worker", "http://b:8102",
            "--shard-size", "8", "--steal-after", "2",
            "--max-shard-attempts", "6",
        ]) == 0
        expected = ClusterConfig(
            workers=("http://a:8101", "http://b:8102"),
            shard_size=8,
            steal_after=2.0,
            max_shard_attempts=6,
        )
        assert seen["config"] == expected
        assert seen["coordinator"] is seen["config"]

    def test_worker_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "cluster", "worker", "--coordinator", "http://c:8100",
            "--advertise", "http://me:8101",
            "--heartbeat-interval", "1.5",
        ])
        assert args.coordinator == "http://c:8100"
        assert args.advertise == "http://me:8101"
        assert args.heartbeat_interval == 1.5

    def test_worker_requires_a_coordinator(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "worker"])

    def test_status_takes_a_url(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "cluster", "status", "http://c:8100", "--json"
        ])
        assert args.coordinator == "http://c:8100"
        assert args.json

    def test_sweep_cluster_flags_parse(self, spec_path):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "sweep", spec_path, "Workgroup Server/Operating System",
            "mtbf_hours", "1:2:4", "--cluster", "http://c:8100",
            "--cluster-timeout", "120",
        ])
        assert args.cluster == "http://c:8100"
        assert args.cluster_timeout == 120.0

    def test_status_against_a_live_coordinator(self, capsys):
        import asyncio

        from repro.cluster import ClusterConfig
        from repro.service import Server, ServiceConfig

        async def go():
            server = Server(ServiceConfig(port=0, cluster=ClusterConfig()))
            host, port = await server.start()
            try:
                return await asyncio.to_thread(
                    main, ["cluster", "status", f"http://{host}:{port}"]
                )
            finally:
                await server.shutdown()

        assert asyncio.run(go()) == 0
        out = capsys.readouterr().out
        assert "jobs completed" in out or "jobs_completed" in out


class TestDbCli:
    @pytest.fixture
    def cache_dir(self, tmp_path):
        from repro.jobs import JobStore
        from repro.studies.store import StudyStore

        JobStore(tmp_path / "jobs.sqlite3").close()
        studies = StudyStore(tmp_path / "studies")
        studies.submit("study-1", {"name": "s"})
        studies.close()
        return tmp_path

    def test_status_discovers_cache_databases(self, cache_dir, capsys):
        assert main([
            "db", "status", "--cache-dir", str(cache_dir)
        ]) == 0
        out = capsys.readouterr().out
        assert "jobs" in out and "studies" in out
        assert "wal" in out

    def test_status_json(self, cache_dir, capsys):
        assert main([
            "db", "status", "--cache-dir", str(cache_dir), "--json"
        ]) == 0
        statuses = json.loads(capsys.readouterr().out)
        by_name = {status["name"]: status for status in statuses}
        assert by_name["jobs"]["user_version"] == JOBS_SCHEMA.version
        assert by_name["studies"]["tables"]["studies"] == 1

    def test_status_explicit_path(self, cache_dir, capsys):
        assert main([
            "db", "status", str(cache_dir / "jobs.sqlite3"), "--json"
        ]) == 0
        statuses = json.loads(capsys.readouterr().out)
        assert [status["name"] for status in statuses] == ["jobs"]

    def test_check_reports_ok(self, cache_dir, capsys):
        assert main([
            "db", "check", "--cache-dir", str(cache_dir)
        ]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok ") == 2

    def test_check_exits_nonzero_on_corruption(self, tmp_path, capsys):
        from repro.jobs import JobStore

        path = tmp_path / "jobs.sqlite3"
        JobStore(path).close()
        data = bytearray(path.read_bytes())
        data[4096:4200] = b"\xff" * 104  # stomp the first table page
        path.write_bytes(bytes(data))
        assert main(["db", "check", str(path)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_backup_round_trip(self, cache_dir, capsys):
        import sqlite3

        out_dir = cache_dir / "backups"
        assert main([
            "db", "backup", "--cache-dir", str(cache_dir),
            "--out-dir", str(out_dir),
        ]) == 0
        copies = sorted(p.name for p in out_dir.iterdir())
        assert copies == [
            "jobs.backup.sqlite3", "studies.backup.sqlite3"
        ]
        conn = sqlite3.connect(str(out_dir / "studies.backup.sqlite3"))
        try:
            count = conn.execute(
                "SELECT COUNT(*) FROM studies"
            ).fetchone()[0]
        finally:
            conn.close()
        assert count == 1

    def test_backup_out_requires_single_database(self, cache_dir, capsys):
        assert main([
            "db", "backup", "--cache-dir", str(cache_dir),
            "--out", str(cache_dir / "one.sqlite3"),
        ]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_empty_cache_dir_is_an_error(self, tmp_path, capsys):
        assert main(["db", "status", "--cache-dir", str(tmp_path)]) == 2
        assert "no store databases" in capsys.readouterr().err


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers every request from the server's ``answer`` callback."""

    def _serve(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        status, headers, reply = self.server.answer(
            self.command, self.path, body
        )
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    do_GET = do_POST = _serve

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _stub_server(answer):
    """A stdlib HTTP server on a thread; yields its base URL."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.answer = answer
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServerUrlCommands:
    """The ``--url`` commands against a dead or scripted server."""

    @pytest.fixture
    def events_path(self, tmp_path):
        events = [{"id": "a"}, {"id": "b"}, {"id": "a"}]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"events": events}))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["calibrate", "status"],
        ["calibrate", "propose", "{spec}"],
        ["calibrate", "publish", "--name", "wg"],
        ["events", "ingest", "{events}"],
        ["events", "replay", "{spec}"],
    ])
    def test_unreachable_server_is_an_error(
        self, argv, spec_path, events_path, capsys
    ):
        with _stub_server(answer=None) as url:
            pass  # closed on exit: nothing listens on ``url`` any more
        argv = [
            arg.format(spec=spec_path, events=events_path) for arg in argv
        ]
        assert main(argv + ["--url", url]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert url in err

    def test_non_json_success_body_is_an_error(self, capsys):
        def answer(method, path, body):
            return 200, {"Content-Type": "text/html"}, b"<html>hi</html>"

        with _stub_server(answer) as url:
            code = main(["calibrate", "status", "--url", url])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "non-JSON body" in err

    def test_ingest_backs_off_for_retry_after(
        self, events_path, monkeypatch, capsys
    ):
        posts = []
        seen = set()

        def answer(method, path, body):
            posts.append((method, path, body))
            if len(posts) == 1:
                # Lower-case on purpose: header names are
                # case-insensitive, and the client must read it so.
                error = {"error": {"code": "backlog_full", "message": ""}}
                return 429, {"retry-after": "0"}, json.dumps(error).encode()
            ids = [event["id"] for event in json.loads(body)["events"]]
            fresh = [event_id for event_id in ids if event_id not in seen]
            seen.update(ids)
            counts = {
                "accepted": len(fresh), "duplicates": len(ids) - len(fresh),
            }
            return 200, {}, json.dumps(counts).encode()

        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with _stub_server(answer) as url:
            code = main([
                "events", "ingest", events_path, "--url", url,
                "--batch-size", "2",
            ])
        assert code == 0
        assert capsys.readouterr().out == (
            f"ingested 2 event(s) into {url} (1 duplicate(s) skipped)\n"
        )
        # The 429 slept for its Retry-After, not the 1 s default, then
        # re-sent the same batch.
        assert sleeps == [0.0]
        assert [(method, path) for method, path, _ in posts] == [
            ("POST", "/v1/events")
        ] * 3
        assert posts[0][2] == posts[1][2]
