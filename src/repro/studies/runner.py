"""Driving a study end to end and aggregating its result.

The runner is deliberately split in two:

* :func:`run_study` — the *search loop*: walk the strategy's rounds,
  evaluating each batch of candidates (through
  :meth:`~repro.engine.Engine.solve_many`, so every candidate solve
  hits the engine's content-addressed cache — re-running a study is
  nearly free), and collect the flat availability trace.  An
  ``evaluate`` hook lets the service swap in a cluster fan-out per
  round without touching the search logic: a round is one
  :func:`round_plan`, run in process or over the fleet.
* :func:`aggregate_study` — a *pure function* from the study spec and
  the complete value trace to the result payload: candidate rows with
  lineage diffs, the non-dominated cost/downtime front, the winner,
  and a content digest of the whole thing.  Purity is the determinism
  story — a resumed job, a 2-worker cluster run, and a single process
  all feed the same trace in, so the payload (and its digest) is
  byte-identical.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence

from ..core.block import DiagramBlockModel
from ..database import PartsDatabase, builtin_database
from ..engine import Engine
from ..jobs.runner import Plan, WorkerCall
from ..num import SolverOptions
from ..obs.trace import get_tracer
from ..spec import model_to_spec, parse_spec
from ..units import availability_to_yearly_downtime_minutes
from .candidates import (
    Candidate,
    INVALID_AVAILABILITY,
    feasible,
    serialize_changes,
)
from .pareto import Point, pareto_front
from .spec import StudySpec, study_digest
from .strategies import GridStrategy, Strategy, make_strategy, replay

#: Evaluates one round of candidates into availabilities, in order.
Evaluator = Callable[[List[Candidate]], List[float]]


def round_plan(
    engine: Engine,
    candidates: Sequence[Candidate],
    method: str = "direct",
    study_id: str = "",
    round_index: int = 0,
) -> Plan:
    """One study round: a point per *valid* candidate, its availability.

    The in-process executor solves the valid candidates through
    :meth:`Engine.solve_many` as a single batch (cache-checked, fanned
    out when the engine has workers); the fleet executor sends one
    ``/v1/solve`` per valid candidate with the study's solver pinned.
    ``aggregate`` places the values back at their candidates'
    positions, and invalid candidates keep the 0.0 sentinel without a
    solve.  The workload digest pins ``(study_id, round_index)``.
    """
    positions = [
        position
        for position, candidate in enumerate(candidates)
        if candidate.model is not None
    ]
    models = [candidates[position].model for position in positions]
    solver = SolverOptions(steady_method=method).to_dict()

    @cache
    def specs() -> List[Dict[str, object]]:
        return [model_to_spec(model) for model in models]

    def solve_range(lo: int, hi: int) -> List[float]:
        return [
            solution.availability
            for solution in engine.solve_many(models[lo:hi], method)
        ]

    def fleet_range(call: WorkerCall, lo: int, hi: int) -> List[float]:
        return [
            float(call("/v1/solve", {"spec": spec, "solver": solver})[
                "availability"
            ])
            for spec in specs()[lo:hi]
        ]

    def aggregate(values: List[float]) -> List[float]:
        availabilities = [INVALID_AVAILABILITY] * len(candidates)
        for position, availability in zip(positions, values):
            availabilities[position] = availability
        return availabilities

    def workload() -> Dict[str, object]:
        return {
            "kind": "study", "study_id": study_id, "round": round_index,
            "specs": specs(), "solver": solver,
        }

    return Plan(
        len(models), solve_range, aggregate,
        workload=workload, fleet_range=fleet_range,
    )


def evaluate_candidates(
    engine: Engine,
    candidates: Sequence[Candidate],
    method: str = "direct",
) -> List[float]:
    """One study round through the engine, in process."""
    plan = round_plan(engine, candidates, method)
    return plan.aggregate(plan.solve_range(0, plan.total))


def round_evaluator(
    engine: Engine,
    study: StudySpec,
    study_id: str,
    execute: Callable[[Plan], List[float]],
) -> Evaluator:
    """A :func:`run_study` hook that runs each round through ``execute``.

    Every round becomes a :func:`round_plan`; ``execute(plan)``
    returns its point values (the cluster fan-out, for instance), and
    the plan's aggregate places them at their candidates.
    """
    rounds = count()

    def evaluate(candidates: List[Candidate]) -> List[float]:
        plan = round_plan(
            engine, candidates, study.method, study_id, next(rounds)
        )
        return plan.aggregate(execute(plan))

    return evaluate


def run_study(
    study: StudySpec,
    engine: Optional[Engine] = None,
    database: Optional[PartsDatabase] = None,
    evaluate: Optional[Evaluator] = None,
) -> Dict[str, object]:
    """Run a study to completion and return its result payload."""
    database = database if database is not None else builtin_database()
    engine = engine if engine is not None else Engine()
    model = parse_spec(dict(study.base), database=database)
    strategy = make_strategy(study, model, database)
    if evaluate is None:
        def evaluate(candidates: List[Candidate]) -> List[float]:
            return evaluate_candidates(engine, candidates, study.method)

    values: List[float] = []
    with get_tracer().span(
        "studies.search",
        strategy=study.strategy,
        total=strategy.total(),
    ) as span:
        generator = strategy.rounds()
        try:
            batch = next(generator)
        except StopIteration:
            batch = []
        rounds = 0
        while batch:
            with get_tracer().span(
                "studies.evaluate", candidates=len(batch)
            ):
                availabilities = evaluate(batch)
            if len(availabilities) != len(batch):
                raise RuntimeError(
                    f"evaluator returned {len(availabilities)} values "
                    f"for {len(batch)} candidates"
                )
            values.extend(availabilities)
            rounds += 1
            try:
                batch = generator.send(list(availabilities))
            except StopIteration:
                batch = []
        span.set_attr("rounds", rounds)
        span.set_attr("evaluated", len(values))
    from ..jobs.types import result_digest

    payload = aggregate_study(study, strategy, values, database=database)
    payload["result_digest"] = result_digest(payload)
    return payload


def candidate_row(
    position: int,
    candidate: Candidate,
    availability: float,
    is_feasible: bool,
) -> Dict[str, object]:
    """One candidate's wire form (result payload and detail routes)."""
    downtime = (
        availability_to_yearly_downtime_minutes(availability)
        if candidate.valid
        else None
    )
    return {
        "index": position,
        "assignment": list(candidate.assignment),
        "changes": serialize_changes(candidate.changes),
        "cost": candidate.cost,
        "valid": candidate.valid,
        "feasible": is_feasible,
        "availability": availability if candidate.valid else None,
        "yearly_downtime_minutes": downtime,
    }


def aggregate_study(
    study: StudySpec,
    strategy: Strategy,
    values: Sequence[float],
    database: Optional[PartsDatabase] = None,
) -> Dict[str, object]:
    """The complete-trace -> result-payload pure function.

    Replays the strategy against ``values`` to recover every
    candidate, deduplicates revisited assignments (first evaluation
    wins — later ones are cache hits of the same number), applies the
    constraints, and computes the Pareto front over the feasible
    survivors.  The winner is the front point with the least downtime
    (cost, then position, break ties).

    The payload carries no ``result_digest``: every consumer — the
    job runner, the service, :func:`run_study` — stamps
    ``result_digest(payload)`` on the digest-free payload, so all of
    them produce byte-identical results for byte-identical traces.
    """
    database = database if database is not None else builtin_database()
    trace, pending = replay(strategy, values)
    if pending or len(trace) != len(values):
        raise RuntimeError(
            f"study trace incomplete: {len(values)} values for "
            f"{strategy.total()} evaluations"
        )

    first_seen: Dict[tuple, int] = {}
    rows: List[Dict[str, object]] = []
    factory = strategy.factory
    for position, (candidate, availability) in enumerate(
        zip(trace, values)
    ):
        if candidate.assignment in first_seen:
            continue
        first_seen[candidate.assignment] = position
        downtime = (
            availability_to_yearly_downtime_minutes(availability)
            if candidate.valid
            else None
        )
        rows.append(candidate_row(
            position, candidate, availability,
            feasible(factory, candidate, downtime),
        ))

    points: List[Point] = [
        (row["cost"], row["yearly_downtime_minutes"], row["index"])
        for row in rows
        if row["feasible"]
    ]
    front_points = pareto_front(points)
    front_indexes = [index for _cost, _down, index in front_points]
    winner: Optional[int] = None
    if front_points:
        winner = min(
            front_points,
            key=lambda point: (point[1], point[0], point[2]),
        )[2]

    payload: Dict[str, object] = {
        "kind": "study",
        "study_id": study_digest(study, database=database),
        "name": study.name,
        "strategy": study.strategy,
        "method": study.method,
        "total": strategy.total(),
        "evaluated": len(values),
        "unique": len(rows),
        "feasible": sum(1 for row in rows if row["feasible"]),
        "constraints": study.constraints.to_dict(),
        "variables": [
            variable.to_dict() for variable in study.variables
        ],
        "candidates": rows,
        "front": front_indexes,
        "winner": winner,
    }
    if isinstance(strategy, GridStrategy):
        payload["pruned"] = strategy.pruned()
    return payload


def front_rows(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """The front's candidate rows, in front (cost-sorted) order."""
    by_index = {
        row["index"]: row
        for row in payload.get("candidates", [])  # type: ignore[union-attr]
    }
    return [by_index[index] for index in payload.get("front", [])]
