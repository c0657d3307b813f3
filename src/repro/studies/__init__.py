"""repro.studies — design-space exploration over availability models.

The design-phase loop the RAScad paper motivates: declare a base
model, the knobs you are willing to turn (redundancy counts, repair
times, recovery transparency), the budget you must respect — and get
back the non-dominated cost-vs-downtime front with full lineage from
every candidate to the base design.

Layers:

* :mod:`~repro.studies.spec` — the declarative study document,
  validation, and the content-digest study id.
* :mod:`~repro.studies.candidates` — materializing assignments into
  models, solve-free cost/constraint checks.
* :mod:`~repro.studies.strategies` — the search registry: ``grid``,
  ``descent``, ``evolve``; every strategy is a deterministic round
  generator whose whole trajectory replays from the value trace.
* :mod:`~repro.studies.pareto` — dominance and the non-dominated
  front.
* :mod:`~repro.studies.runner` — the search loop over
  ``Engine.solve_many``, one round's plan for in-process or cluster
  evaluation, plus the pure trace-to-result aggregation.
* :mod:`~repro.studies.store` — persisted study records for the
  service.
"""

from .candidates import (
    Candidate,
    CandidateFactory,
    INVALID_AVAILABILITY,
    feasible,
)
from .pareto import dominates, pareto_front
from .runner import (
    aggregate_study,
    candidate_row,
    evaluate_candidates,
    front_rows,
    round_evaluator,
    round_plan,
    run_study,
)
from .spec import (
    Constraints,
    StudySpec,
    Variable,
    parse_study,
    study_digest,
)
from .store import STUDY_STATES, StudyNotFoundError, StudyStore
from .strategies import (
    STRATEGIES,
    DescentStrategy,
    EvolutionStrategy,
    GridStrategy,
    Strategy,
    make_strategy,
    register_strategy,
    replay,
)

__all__ = [
    "Candidate",
    "CandidateFactory",
    "Constraints",
    "DescentStrategy",
    "EvolutionStrategy",
    "GridStrategy",
    "INVALID_AVAILABILITY",
    "STRATEGIES",
    "STUDY_STATES",
    "Strategy",
    "StudyNotFoundError",
    "StudySpec",
    "StudyStore",
    "Variable",
    "aggregate_study",
    "candidate_row",
    "dominates",
    "evaluate_candidates",
    "feasible",
    "front_rows",
    "make_strategy",
    "parse_study",
    "pareto_front",
    "register_strategy",
    "replay",
    "round_evaluator",
    "round_plan",
    "run_study",
    "study_digest",
]
