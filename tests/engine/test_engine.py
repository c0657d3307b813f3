"""Engine facade: cached solving, sweeps, uncertainty, simulation."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro import compute_measures, translate
from repro.analysis import (
    UncertainField,
    propagate_uncertainty,
    sweep_block_field,
)
from repro.engine import (
    Engine,
    SolveCache,
    draw_variants,
    model_digest,
)
from repro.engine.cache import BlockRecord
from repro.errors import SolverError
from repro.library import (
    ClusterParameters,
    cluster_availability,
    cluster_chain,
    datacenter_model,
    e10000_model,
    workgroup_model,
)
from repro.semimarkov import Lognormal
from repro.validation import simulate_system_availability

CPU = "Data Center System/Server Box/CPU Module"
OS = "Workgroup Server/Operating System"
#: The 208-state block that perfbench's ``sweep_cold`` workload sweeps.
SWEEP_CPU = "E10000 Server/CPU Module"


def _sweep_block_model(mtbf_hours):
    """The E10000 model with its CPU Module widened to 208 states."""
    from repro.analysis import with_block_changes

    return with_block_changes(
        e10000_model(), SWEEP_CPU, min_required=30, mtbf_hours=mtbf_hours
    )


def _float_bytes(values):
    return np.array(list(values), dtype=np.float64).tobytes()


class _RunsOnUnpickle:
    """Unpickling this creates the directory ``marker``."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


class TestCachedSolve:
    @pytest.mark.parametrize(
        "factory", [datacenter_model, e10000_model, workgroup_model],
        ids=["datacenter", "e10000", "workgroup"],
    )
    def test_cold_and_warm_measures_bit_identical(self, factory):
        model = factory()
        engine = Engine()
        cold = compute_measures(engine.solve(model))
        after_cold = engine.stats_snapshot()
        # A *fresh* model object (new digest computation, warm cache).
        warm = compute_measures(engine.solve(factory()))
        for field in dataclasses.fields(cold):
            assert getattr(warm, field.name) == getattr(
                cold, field.name
            ), field.name
        snapshot = engine.stats_snapshot()
        assert snapshot.system_cache_hits == 1
        # The whole-model hit short-circuits the walk: no further
        # block-level work of any kind.
        assert snapshot.block_lookups == after_cold.block_lookups

    def test_engine_matches_plain_translate(self):
        model = datacenter_model()
        assert Engine().solve(model).availability == (
            translate(model).availability
        )

    def test_block_cache_shared_across_different_models(self):
        engine = Engine()
        engine.solve(workgroup_model())
        first = engine.stats_snapshot().block_solves
        # Same blocks, different model object with a changed sibling:
        # only the changed block may be re-solved.
        from repro.analysis import with_block_changes

        changed = with_block_changes(
            workgroup_model(), OS, mtbf_hours=45_000.0
        )
        engine.solve(changed)
        snapshot = engine.stats_snapshot()
        assert snapshot.block_solves == first + 1
        assert snapshot.block_cache_hits > 0

    def test_disabled_cache_still_solves(self):
        engine = Engine(cache=False)
        model = workgroup_model()
        a = engine.solve(model)
        b = engine.solve(model)
        assert a.availability == b.availability
        snapshot = engine.stats_snapshot()
        assert snapshot.system_cache_hits == 0
        assert snapshot.block_cache_hits == 0

    def test_cluster_chain_cached_solve_bit_identical(self):
        parameters = ClusterParameters()
        engine = Engine()
        cold = engine.solve_chain(cluster_chain(parameters))
        warm = engine.solve_chain(cluster_chain(parameters))
        assert warm == cold
        assert engine.stats_snapshot().block_cache_hits == 1
        assert cold["__availability__"] == pytest.approx(
            cluster_availability(parameters), abs=0.0
        )

    @pytest.mark.parametrize(
        "factory",
        [
            datacenter_model,
            e10000_model,
            workgroup_model,
            lambda: _sweep_block_model(50_000.0),
            lambda: _sweep_block_model(73_519.25),
        ],
        ids=["datacenter", "e10000", "workgroup", "cpu208-a", "cpu208-b"],
    )
    def test_persistent_layer_survives_engine_restart(
        self, tmp_path, factory
    ):
        """A disk hit answers exactly what a memory-only solve does."""
        model = factory()
        Engine(cache_dir=tmp_path).solve(model)
        rewarmed = Engine(cache_dir=tmp_path)
        solution = rewarmed.solve(model)
        snapshot = rewarmed.stats_snapshot()
        assert snapshot.block_solves == 0
        assert snapshot.disk_hits > 0
        reference = Engine().solve(model)
        assert solution.availability == reference.availability
        assert solution.failure_frequency == reference.failure_frequency
        assert solution.availability == translate(model).availability
        assert list(solution.by_path) == list(reference.by_path)
        for path, expected in reference.by_path.items():
            actual = solution.by_path[path]
            assert list(actual.steady_state) == list(expected.steady_state)
            assert _float_bytes(actual.steady_state.values()) == (
                _float_bytes(expected.steady_state.values())
            ), path
            if expected.chain is None:
                assert actual.chain is None
                continue
            assert actual.chain.state_names == expected.chain.state_names
            got, want = actual.chain.arcs(), expected.chain.arcs()
            assert np.array_equal(got.sources, want.sources), path
            assert np.array_equal(got.targets, want.targets), path
            assert np.array_equal(got.rates, want.rates), path

    def test_persistent_chain_solve_survives_engine_restart(self, tmp_path):
        chain = cluster_chain(ClusterParameters())
        Engine(cache_dir=tmp_path).solve_chain(chain)
        rewarmed = Engine(cache_dir=tmp_path)
        pi = rewarmed.solve_chain(cluster_chain(ClusterParameters()))
        assert rewarmed.stats_snapshot().disk_hits == 1
        reference = Engine().solve_chain(chain)
        assert list(pi) == list(reference)
        assert _float_bytes(pi.values()) == _float_bytes(reference.values())

    @pytest.mark.parametrize(
        "kind", ["code", "truncated", "pi-length", "format-2"]
    )
    def test_a_bad_disk_entry_is_a_discarded_miss_and_never_unpickled(
        self, tmp_path, monkeypatch, kind
    ):
        """Entries in a shared cache directory are data, never code."""
        model = e10000_model()
        cache_dir = tmp_path / "cache"
        writer = Engine(cache_dir=cache_dir)
        writer.solve(model)
        entries = sorted((cache_dir / "blocks").iterdir())
        marker = tmp_path / "marker"
        for entry in entries:
            record = BlockRecord.from_bytes(entry.read_bytes())
            if kind == "code":
                planted = pickle.dumps(
                    {"version": 2, "value": _RunsOnUnpickle(marker)}
                )
            elif kind == "truncated":
                planted = record.to_bytes()[:-3]
            elif kind == "pi-length":
                longer = np.append(record.pi, 0.0)
                planted = record._replace(pi=longer).to_bytes()
            else:  # the whole ChainSolve, pickled as format 2 wrote it
                solved, _layer = writer.cache.get_block(entry.stem, bytes)
                planted = pickle.dumps(
                    {"version": 2, "value": solved}, pickle.HIGHEST_PROTOCOL
                )
            entry.write_bytes(planted)

        unpickled = []
        for name in ("load", "loads"):
            real = getattr(pickle, name)

            def recording(*args, _real=real, **kwargs):
                unpickled.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pickle, name, recording)
        reader = Engine(cache_dir=cache_dir)
        solution = reader.solve(model)
        assert not marker.exists()
        assert unpickled == []
        assert solution.availability == translate(model).availability
        snapshot = reader.stats_snapshot()
        assert snapshot.disk_hits == 0
        assert snapshot.block_solves == len(entries)
        # Each discarded entry was replaced by a fresh, decodable record.
        for entry in entries:
            assert BlockRecord.from_bytes(entry.read_bytes()) is not None

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SolverError):
            Engine(jobs=0)


class TestSweeps:
    VALUES = [50_000.0, 100_000.0, 200_000.0, 400_000.0]

    def test_sibling_blocks_are_not_resolved_per_point(self):
        model = datacenter_model()
        engine = Engine()
        engine.solve(model)  # warm the block cache
        blocks_after_solve = engine.stats_snapshot().block_solves
        engine.sweep_block_field(model, CPU, "mtbf_hours", self.VALUES)
        snapshot = engine.stats_snapshot()
        # Each point re-solves only the swept block, nothing else.
        assert snapshot.block_solves == blocks_after_solve + len(
            self.VALUES
        )
        assert snapshot.cache_hit_rate > 0.0

    def test_parallel_and_serial_sweeps_identical(self):
        model = datacenter_model()
        serial = Engine(jobs=1).sweep_block_field(
            model, CPU, "mtbf_hours", self.VALUES
        )
        parallel = Engine(jobs=2).sweep_block_field(
            model, CPU, "mtbf_hours", self.VALUES
        )
        assert parallel == serial

    def test_wrapper_equals_engine_method(self):
        model = datacenter_model()
        engine = Engine()
        assert sweep_block_field(
            model, CPU, "mtbf_hours", self.VALUES, engine=engine
        ) == Engine().sweep_block_field(
            model, CPU, "mtbf_hours", self.VALUES
        )

    def test_global_sweep_parallel_matches_serial(self):
        model = workgroup_model()
        values = [12.0, 24.0, 96.0]
        serial = Engine(jobs=1).sweep_global_field(
            model, "mttm_hours", values
        )
        parallel = Engine(jobs=2).sweep_global_field(
            model, "mttm_hours", values
        )
        assert parallel == serial


class TestUncertainty:
    def test_jobs_do_not_change_the_numbers(self):
        model = workgroup_model()
        uncertain = [
            UncertainField(
                OS, "mtbf_hours", Lognormal.from_mean_cv(30_000.0, 0.5)
            )
        ]
        serial = Engine(jobs=1).propagate_uncertainty(
            model, uncertain, samples=8, seed=11
        )
        parallel = Engine(jobs=2).propagate_uncertainty(
            model, uncertain, samples=8, seed=11
        )
        assert serial.availability_samples == parallel.availability_samples
        assert serial.mean_availability == parallel.mean_availability

    def test_seed_names_one_variant_population(self):
        model = workgroup_model()
        uncertain = [
            UncertainField(
                OS, "mtbf_hours", Lognormal.from_mean_cv(30_000.0, 0.5)
            )
        ]
        a = draw_variants(model, uncertain, 4, seed=7)
        b = draw_variants(model, uncertain, 4, seed=7)
        c = draw_variants(model, uncertain, 4, seed=8)
        assert [model_digest(v) for v in a] == [model_digest(v) for v in b]
        assert len({model_digest(v) for v in a}) == 4
        assert model_digest(a[0]) != model_digest(c[0])

    def test_wrapper_routes_through_engine(self):
        engine = Engine()
        model = workgroup_model()
        uncertain = [
            UncertainField(
                OS, "mtbf_hours", Lognormal.from_mean_cv(30_000.0, 0.3)
            )
        ]
        result = propagate_uncertainty(
            model, uncertain, samples=6, seed=3, engine=engine
        )
        assert result.samples == 6
        assert engine.stats_snapshot().block_lookups > 0

    def test_validation_errors_preserved(self):
        engine = Engine()
        with pytest.raises(SolverError):
            engine.propagate_uncertainty(workgroup_model(), [], samples=5)
        with pytest.raises(SolverError):
            engine.propagate_uncertainty(
                workgroup_model(),
                [UncertainField(
                    OS, "mtbf_hours", Lognormal.from_mean_cv(3e4, 0.3)
                )],
                samples=1,
            )


class TestSimulation:
    def test_serial_and_parallel_replications_identical(self):
        solution = translate(workgroup_model())
        serial = Engine(jobs=1).simulate_system(
            solution, horizon=4_000.0, replications=10, seed=21
        )
        parallel = Engine(jobs=3).simulate_system(
            solution, horizon=4_000.0, replications=10, seed=21
        )
        assert serial.mean == parallel.mean
        assert serial.low == parallel.low
        assert serial.high == parallel.high

    def test_replication_ranges_share_one_seed_stream(self):
        """Chunked ranges draw what one uninterrupted run draws."""
        solution = translate(workgroup_model())
        engine = Engine(jobs=1)
        chunked = (
            engine.replication_samples(solution, 4_000.0, 21, 0, 4)
            + engine.replication_samples(solution, 4_000.0, 21, 4, 10)
        )
        whole = Engine(jobs=2).replication_samples(
            solution, 4_000.0, 21, 0, 10
        )
        assert chunked == whole
        result = engine.simulate_system(
            solution, horizon=4_000.0, replications=10, seed=21
        )
        assert result.mean == float(np.mean(whole))

    def test_simulator_jobs_parameter_routes_through_engine(self):
        solution = translate(workgroup_model())
        a = simulate_system_availability(
            solution, horizon=4_000.0, replications=10, seed=21, jobs=1
        )
        b = Engine(jobs=1).simulate_system(
            solution, horizon=4_000.0, replications=10, seed=21
        )
        assert a.mean == b.mean

    def test_engine_interval_contains_analytic_value(self):
        solution = translate(workgroup_model())
        result = Engine().simulate_system(
            solution, horizon=30_000.0, replications=40, seed=0
        )
        assert result.contains(solution.availability)


class TestSharedCacheAndStats:
    def test_engines_can_share_one_cache(self):
        cache = SolveCache()
        Engine(cache=cache).solve(workgroup_model())
        second = Engine(cache=cache)
        second.solve(workgroup_model())
        snapshot = second.stats_snapshot()
        assert snapshot.block_solves == 0
        assert snapshot.system_cache_hits == 1

    def test_save_stats_round_trips(self, tmp_path):
        from repro.engine import load_stats

        engine = Engine()
        engine.solve(workgroup_model())
        engine.save_stats(tmp_path)
        loaded = load_stats(tmp_path)
        assert loaded is not None
        assert loaded.block_solves == (
            engine.stats_snapshot().block_solves
        )
