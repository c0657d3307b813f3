"""The engine's measures namespace: one measure set per distinct key.

:meth:`Engine.measures` caches the Section 4 measure set of a solve
under ``(system digest, repr(resolved mission), grid_points)``.  These
tests pin the key, the bound, invalidation, the uncached path, the
stats counters and — the reason the cache may exist at all — that a
hit serves the same bytes as a fresh ``compute_measures``.
"""

import json

import pytest

from repro.cli import main
from repro.core import compute_measures, translate
from repro.engine import Engine, load_stats, model_digest
from repro.engine import cache as cache_module
from repro.library import datacenter_model, e10000_model, workgroup_model
from repro.service.app import measures_payload, solution_payload
from repro.service.protocol import json_response
from repro.spec import model_to_spec, parse_spec, save_spec

LIBRARY = {
    "datacenter": datacenter_model,
    "e10000": e10000_model,
    "workgroup": workgroup_model,
}


def _counters(engine):
    counters = engine.stats_snapshot().counters
    return (
        counters.get("measures_computed", 0),
        counters.get("measures_cache_hits", 0),
    )


def _body(payload):
    return json_response(payload).body


class TestHitBytes:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_hit_payload_matches_a_fresh_compute(self, name):
        spec = model_to_spec(LIBRARY[name]())
        fresh = _body(solution_payload(translate(parse_spec(spec))))
        engine = Engine()
        model = parse_spec(spec)
        computed = engine.measures(model)
        hit = engine.measures(parse_spec(spec))
        assert hit is computed
        assert _counters(engine) == (1, 1)
        assert _body(measures_payload(model.name, hit)) == fresh

    def test_explicit_mission_payload_matches_a_fresh_compute(self):
        model = workgroup_model()
        fresh = _body(solution_payload(translate(model), 1_000.0))
        engine = Engine()
        engine.measures(model, mission=1_000.0)
        hit = engine.measures(model, mission=1_000.0)
        assert _body(measures_payload(model.name, hit)) == fresh


class TestKey:
    def test_default_and_explicit_default_mission_share_an_entry(self):
        model = workgroup_model()
        default = model.global_parameters.mission_time_hours
        engine = Engine()
        omitted = engine.measures(model)
        explicit = engine.measures(model, mission=default)
        assert explicit is omitted
        assert engine.cache.measures_entries == 1
        assert _counters(engine) == (1, 1)

    def test_a_different_mission_is_a_separate_entry(self):
        model = workgroup_model()
        engine = Engine()
        default = engine.measures(model)
        other = engine.measures(model, mission=100.0)
        assert other.mission_time_hours == 100.0
        assert other.interval_availability != default.interval_availability
        assert engine.cache.measures_entries == 2
        assert _counters(engine) == (2, 0)

    def test_grid_points_are_part_of_the_key(self):
        model = workgroup_model()
        engine = Engine()
        coarse = engine.measures(model, grid_points=9)
        fine = engine.measures(model)
        assert coarse is not fine
        assert coarse == compute_measures(translate(model), grid_points=9)
        assert engine.cache.measures_entries == 2
        assert _counters(engine) == (2, 0)

    def test_solver_options_are_part_of_the_key(self):
        model = workgroup_model()
        engine = Engine()
        engine.measures(model, "direct")
        engine.measures(model, "gth")
        assert _counters(engine) == (2, 0)

    def test_key_resolves_the_mission_before_digesting(self):
        model = workgroup_model()
        engine = Engine()
        digest = model_digest(model, "direct")
        default = model.global_parameters.mission_time_hours
        assert engine.measures_key(model) == (digest, repr(default), 65)
        assert engine.measures_key(model, mission=default) == (
            engine.measures_key(model)
        )


class TestBoundAndInvalidation:
    def test_the_lru_bound_evicts(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_MEASURES_ENTRIES", 2)
        model = workgroup_model()
        engine = Engine()
        for mission in (100.0, 200.0, 300.0):
            engine.measures(model, mission=mission)
        assert engine.cache.measures_entries == 2
        engine.measures(model, mission=300.0)  # most recent: kept
        assert _counters(engine) == (3, 1)
        engine.measures(model, mission=100.0)  # least recent: evicted
        assert _counters(engine) == (4, 1)

    def test_invalidate_drops_the_derived_measure_entries(self):
        model, other = workgroup_model(), datacenter_model()
        engine = Engine()
        engine.measures(model)
        engine.measures(model, mission=100.0)
        engine.measures(other)
        engine.cache.invalidate(model_digest(model, "direct"))
        assert engine.cache.measures_entries == 1
        engine.measures(other)
        engine.measures(model)
        assert _counters(engine) == (4, 1)

    def test_clear_drops_the_measure_entries(self):
        model = workgroup_model()
        engine = Engine()
        engine.measures(model)
        engine.cache.clear()
        assert engine.cache.measures_entries == 0
        engine.measures(model)
        assert _counters(engine) == (2, 0)

    def test_an_uncached_engine_computes_every_time(self):
        model = workgroup_model()
        engine = Engine(cache=False)
        first = engine.measures(model)
        second = engine.measures(model)
        assert first == second
        assert first is not second
        assert engine.lookup_measures(engine.measures_key(model)) is None
        assert _counters(engine) == (2, 0)


class TestCounters:
    def test_counters_survive_save_and_load(self, tmp_path):
        engine = Engine()
        model = workgroup_model()
        engine.measures(model)
        engine.measures(model)
        engine.save_stats(tmp_path)
        loaded = load_stats(tmp_path)
        assert loaded.counters["measures_computed"] == 1
        assert loaded.counters["measures_cache_hits"] == 1
        assert "measures_cache_hits  : 1" in loaded.format()

    def test_a_stats_file_without_the_counters_still_loads(self, tmp_path):
        # The shape ``rascad stats`` persisted before measure sets were
        # cached: no measures counters at all.
        (tmp_path / "stats.json").write_text(json.dumps({
            "system_solves": 1, "system_cache_hits": 0,
            "block_solves": 4, "block_cache_hits": 0, "disk_hits": 0,
            "tasks_submitted": 0, "tasks_completed": 0,
            "tasks_retried": 0, "tasks_failed": 0, "jobs": 1,
            "busy_seconds": 0.0, "stage_seconds": {"solve": 0.01},
            "counters": {"solves_by_backend.dense-direct": 4},
            "gauges": {"largest_n_states": 3.0},
            "route_counts": {}, "latency": {},
        }))
        loaded = load_stats(tmp_path)
        assert loaded.system_solves == 1
        assert "measures_computed" not in loaded.counters
        assert "system solves" in loaded.format()

    def test_cli_solve_records_the_computed_measure_set(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "model.json"
        save_spec(workgroup_model(), spec)
        cache_dir = str(tmp_path / "cache")
        assert main(["solve", str(spec), "--cache-dir", cache_dir]) == 0
        assert main(["stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "measures_computed    : 1" in out
