"""The backend a block solve reports is the one that ran.

From :data:`repro.num.SPARSE_STATE_FLOOR` states on, the default
``dense-direct`` on auto storage runs as ``sparse-direct``.  The block
solve, the engine's counters and spans, ``/metrics`` and the disk
records all name that backend, and a record another backend wrote under
the same key never answers.
"""

import numpy as np
import pytest

from repro.analysis import with_block_changes
from repro.core import generate_block_chain, solve_block_chain
from repro.engine import Engine, block_digest, chain_digest
from repro.engine.cache import BlockRecord
from repro.library import e10000_model
from repro.num import SPARSE_STATE_FLOOR, SolverOptions, solve_steady
from repro.obs.trace import configure_tracing, get_tracer, set_tracer

from ..service import make_request, run_app

SWEEP_CPU = "E10000 Server/CPU Module"
DEFAULT = SolverOptions()
DENSE = SolverOptions(representation="dense")


def _sweep_block_model():
    """The E10000 model with its CPU Module widened to 208 states."""
    return with_block_changes(e10000_model(), SWEEP_CPU, min_required=30)


def _block(model, path=SWEEP_CPU):
    return model.find(path).parameters, model.global_parameters


def _counters(engine):
    return {
        name.split(".", 1)[1]: count
        for name, count in engine.stats_snapshot().counters.items()
        if name.startswith("solves_by_backend.")
    }


@pytest.fixture
def detail_tracer():
    previous = get_tracer()
    yield configure_tracing(detail=True)
    set_tracer(previous)


class TestReportedBackend:
    def test_the_208_state_block_solves_with_sparse_direct(self):
        solved = solve_block_chain(*_block(_sweep_block_model()), DEFAULT)
        assert solved.n_states == 208 >= SPARSE_STATE_FLOOR
        assert solved.backend == "sparse-direct"
        assert solved.representation == "sparse"

    def test_a_library_block_solves_with_dense_direct(self):
        solved = solve_block_chain(*_block(e10000_model()), DEFAULT)
        assert solved.n_states < SPARSE_STATE_FLOOR
        assert solved.backend == "dense-direct"
        assert solved.representation == "dense"

    def test_asking_for_dense_storage_keeps_dense_lapack(self):
        parameters, globals_ = _block(_sweep_block_model())
        solved = solve_block_chain(parameters, globals_, DENSE)
        assert solved.backend == "dense-direct"
        assert solved.representation == "dense"
        chain = generate_block_chain(parameters, globals_)
        assert np.array_equal(
            list(solved.steady_state.values()), solve_steady(chain, DENSE)
        )

    def test_engine_counters_and_spans_name_the_backend_that_ran(
        self, detail_tracer
    ):
        engine = Engine(cache=False)
        engine.solve(_sweep_block_model())
        spans = detail_tracer.exporter.recent(
            limit=1000, name="engine.block_solve"
        )
        by_backend = {}
        for span in spans:
            attrs = span["attrs"]
            by_backend.setdefault(attrs["backend"], []).append(
                attrs["n_states"]
            )
        assert by_backend["sparse-direct"] == [208]
        assert max(by_backend["dense-direct"]) < SPARSE_STATE_FLOOR
        counters = _counters(engine)
        assert counters["sparse-direct"] == 1
        assert counters["dense-direct"] == len(by_backend["dense-direct"])

    def test_a_library_model_counts_only_dense_direct(self):
        engine = Engine(cache=False)
        engine.solve(e10000_model())
        assert set(_counters(engine)) == {"dense-direct"}

    def test_metrics_count_the_sweep_block_under_sparse_direct(self):
        from repro.spec import model_to_spec

        spec = model_to_spec(e10000_model())
        responses, _app = run_app([
            make_request("POST", "/v1/sweep", {
                "spec": spec,
                "block": SWEEP_CPU,
                "field": "min_required",
                "values": [30],
            }),
            make_request("GET", "/metrics"),
        ])
        (sweep_status, _, _), (status, payload, _) = responses
        assert sweep_status == 200 and status == 200
        by_backend = payload["solvers"]["solves_by_backend"]
        assert by_backend["sparse-direct"] == 1
        assert by_backend["dense-direct"] >= 1


class TestRecordsOfAnotherBackend:
    def _plant_dense_record(self, path, chain, model_type, nnz):
        """A ``dense-direct`` record of ``chain``'s dense LAPACK solve."""
        pi = solve_steady(chain, DENSE)
        availability = float(pi @ chain.reward_vector())
        record = BlockRecord(
            model_type, availability, 0.0, "dense-direct", "dense", nnz, pi
        )
        path.write_bytes(record.to_bytes())

    def test_a_dense_block_record_at_the_floor_is_a_miss(self, tmp_path):
        model = _sweep_block_model()
        parameters, globals_ = _block(model)
        Engine(cache_dir=tmp_path).solve(model)
        entry = tmp_path / "blocks" / (
            block_digest(parameters, globals_, DEFAULT) + ".pkl"
        )
        current = BlockRecord.from_bytes(entry.read_bytes())
        assert current.backend == "sparse-direct"
        self._plant_dense_record(
            entry,
            generate_block_chain(parameters, globals_),
            current.model_type,
            current.nnz,
        )

        reader = Engine(cache_dir=tmp_path)
        solution = reader.solve(model)
        snapshot = reader.stats_snapshot()
        assert snapshot.block_solves == 1
        assert _counters(reader) == {"sparse-direct": 1}
        assert snapshot.disk_hits > 0  # the library-sized blocks
        reference = Engine().solve(model).block(SWEEP_CPU)
        assert list(solution.block(SWEEP_CPU).steady_state.values()) == list(
            reference.steady_state.values()
        )
        rewritten = BlockRecord.from_bytes(entry.read_bytes())
        assert rewritten.backend == "sparse-direct"
        assert np.array_equal(rewritten.pi, current.pi)

    def test_a_dense_chain_record_at_the_floor_is_a_miss(self, tmp_path):
        chain = generate_block_chain(*_block(_sweep_block_model()))
        Engine(cache_dir=tmp_path).solve_chain(chain)
        entry = tmp_path / "blocks" / (chain_digest(chain, DEFAULT) + ".pkl")
        current = BlockRecord.from_bytes(entry.read_bytes())
        assert (current.backend, current.representation) == (
            "sparse-direct", "sparse"
        )
        self._plant_dense_record(entry, chain, -1, 0)

        reader = Engine(cache_dir=tmp_path)
        pi = reader.solve_chain(chain)
        snapshot = reader.stats_snapshot()
        assert (snapshot.block_solves, snapshot.disk_hits) == (1, 0)
        assert np.array_equal(list(pi.values())[:-2], current.pi)
        assert BlockRecord.from_bytes(entry.read_bytes()).backend == (
            "sparse-direct"
        )
