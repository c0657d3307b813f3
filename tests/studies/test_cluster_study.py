"""Cluster-evaluated studies: merged fronts are bit-identical.

Drives the real :class:`Coordinator` (shard planning, dispatch
threads, merge) with an engine-backed fake client that executes each
shard's ``/v1/solve`` calls in process — the cross-process protocol
without sockets, deterministic under any shard placement.
"""

from repro.cluster import ClusterConfig, Coordinator, Membership
from repro.cluster.membership import worker_id_for
from repro.engine import Engine
from repro.library import workgroup_model
from repro.num import SolverOptions
from repro.spec import model_to_spec, parse_spec
from repro.studies import (
    INVALID_AVAILABILITY,
    Candidate,
    evaluate_candidates,
    parse_study,
    round_evaluator,
    round_plan,
    run_study,
)

FAN = "Workgroup Server/Fan"
PSU = "Workgroup Server/Power Supply"


def study_for(strategy="grid", **extra):
    document = {
        "name": "wg",
        "base": model_to_spec(workgroup_model()),
        "strategy": strategy,
        "variables": [
            {"path": FAN, "field": "quantity", "values": [1, 2, 3]},
            {"path": FAN, "field": "min_required", "values": [1, 2]},
            {"path": PSU, "field": "quantity", "values": [1, 2]},
        ],
    }
    document.update(extra)
    return parse_study(document)


class EngineClient:
    """A worker client that answers ``/v1/solve`` on a local engine."""

    def __init__(self, url, engine):
        self.url = url
        self.worker_id = worker_id_for(url)
        self.engine = engine

    def call(self, path, payload, trace_header=None):
        assert path == "/v1/solve"
        model = parse_spec(dict(payload["spec"]))
        solution = self.engine.solve(
            model, SolverOptions.from_dict(payload["solver"])
        )
        return {"model": model.name, "availability": solution.availability}


def make_coordinator(worker_count):
    urls = [f"http://worker-{i}:1" for i in range(worker_count)]
    config = ClusterConfig(
        workers=tuple(urls), shard_size=2, fanout_threshold=1,
    )
    engine = Engine()
    return Coordinator(
        Membership(lease_timeout=config.lease_timeout),
        config=config,
        client_factory=lambda url, timeout=None: EngineClient(
            url, engine
        ),
    )


def cluster_run(study, worker_count):
    """run_study with every round's plan run by a coordinator (the
    service's evaluator, without the HTTP front end)."""
    coordinator = make_coordinator(worker_count)
    state = {"rounds_fanned": 0}

    def execute(plan):
        state["rounds_fanned"] += 1
        return coordinator.run_workload(plan, timeout=60)

    evaluate = round_evaluator(Engine(), study, "study-test", execute)
    return run_study(study, evaluate=evaluate), state


def candidates():
    """Two valid candidates around an invalid one."""
    model = workgroup_model()
    return [
        Candidate((0,), model, 1.0, ()),
        Candidate((1,), None, 2.0, ()),
        Candidate((2,), model, 3.0, ()),
    ]


class TestClusterBitIdentity:
    def test_one_and_two_worker_fronts_match_single_process(self):
        local = run_study(study_for(), engine=Engine())
        one, state_one = cluster_run(study_for(), worker_count=1)
        two, state_two = cluster_run(study_for(), worker_count=2)
        assert state_one["rounds_fanned"] >= 1
        assert state_two["rounds_fanned"] >= 1
        assert one == local
        assert two == local
        assert (
            one["result_digest"]
            == two["result_digest"]
            == local["result_digest"]
        )

    def test_adaptive_strategy_fans_every_round(self):
        study = study_for(
            "evolve",
            options={"population": 4, "generations": 3, "seed": 1},
        )
        local = run_study(study_for(
            "evolve",
            options={"population": 4, "generations": 3, "seed": 1},
        ), engine=Engine())
        clustered, state = cluster_run(study, worker_count=2)
        assert state["rounds_fanned"] == 3
        assert clustered == local

    def test_workload_digest_pins_study_and_round(self):
        engine = Engine()
        a = round_plan(engine, candidates(), "direct", "study-x", 0)
        b = round_plan(engine, candidates(), "direct", "study-x", 1)
        c = round_plan(engine, candidates(), "direct", "study-y", 0)
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_one_solve_call_per_valid_candidate(self):
        engine = Engine()
        plan = round_plan(engine, candidates(), "gth", "study-x", 0)
        assert plan.total == 2
        sent = []

        def call(path, payload):
            sent.append((path, payload))
            return {"availability": 0.5 + len(sent) / 10}

        assert plan.fleet_range(call, 0, 2) == [0.6, 0.7]
        assert [path for path, _ in sent] == ["/v1/solve"] * 2
        assert all(
            payload["spec"] == model_to_spec(workgroup_model())
            and payload["solver"]
            == SolverOptions(steady_method="gth").to_dict()
            for _, payload in sent
        )

    def test_round_aggregate_keeps_the_invalid_sentinel(self):
        plan = round_plan(Engine(), candidates(), "direct", "study-x", 2)
        assert plan.aggregate([0.9, 0.99]) == [
            0.9, INVALID_AVAILABILITY, 0.99,
        ]
        local = evaluate_candidates(Engine(), candidates())
        assert local[1] == INVALID_AVAILABILITY
        assert local[0] == local[2] > 0.0
