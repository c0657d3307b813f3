"""Shardable workloads: what the coordinator fans out and folds back.

A workload is an ordered list of *points*, each solvable through the
worker-side :mod:`repro.service` HTTP API, plus a pure aggregation over
the complete point list — the exact contract the jobs runner's
checkpointed plans satisfy, lifted across process boundaries.  Because
aggregation sees the full positional list and each point is a
deterministic solve, a result assembled from any shard placement (or
any interleaving of retries and steals) is bit-identical to the
single-process run of the same workload.

Two shapes, both pure transport — the math a point runs lives in
:mod:`repro.engine`, reached through the worker's HTTP routes:

* :class:`SweepWorkload` — one block/global field over many values;
  each shard is a single ``POST /v1/sweep`` covering its value range.
* :class:`StudyWorkload` — one study round's candidate specs; each
  shard issues one ``POST /v1/solve`` per spec.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SpecError
from ..ident import digest_id

#: One worker call: (path, JSON payload).
Call = Tuple[str, Dict[str, object]]


def _canonical_digest(document: Mapping[str, object]) -> str:
    return digest_id("wl", document, 32)


class SweepWorkload:
    """A parametric sweep sharded over contiguous value ranges."""

    kind = "sweep"

    def __init__(
        self,
        spec: Mapping[str, object],
        field: str,
        values: Sequence[float],
        block: Optional[str] = None,
        solver: Optional[Mapping[str, object]] = None,
        model_name: Optional[str] = None,
    ) -> None:
        if not values:
            raise SpecError("sweep workload needs at least one value")
        self.spec = dict(spec)
        self.field = field
        self.block = block
        self.values = [float(value) for value in values]
        self.solver = dict(solver) if solver else None
        self.model_name = model_name or str(self.spec.get("name", ""))
        self.digest = _canonical_digest({
            "kind": self.kind,
            "spec": self.spec,
            "field": self.field,
            "block": self.block,
            "values": self.values,
            "solver": self.solver,
        })

    @property
    def total(self) -> int:
        return len(self.values)

    def calls(self, lo: int, hi: int) -> List[Call]:
        """One ``/v1/sweep`` request covering points ``[lo, hi)``."""
        payload: Dict[str, object] = {
            "spec": self.spec,
            "field": self.field,
            "values": self.values[lo:hi],
            # Shard requests never fan out again, even if the worker
            # happens to be a coordinator itself.
            "cluster": False,
        }
        if self.block is not None:
            payload["block"] = self.block
        if self.solver is not None:
            payload["solver"] = self.solver
        return [("/v1/sweep", payload)]

    def extract(
        self, bodies: List[Mapping[str, object]], lo: int, hi: int
    ) -> List[Dict[str, object]]:
        """The shard's points out of its response bodies."""
        points = bodies[0].get("points")
        if not isinstance(points, list) or len(points) != hi - lo:
            raise SpecError(
                f"worker returned {0 if not isinstance(points, list) else len(points)} "
                f"points for shard [{lo}, {hi})"
            )
        return [dict(point) for point in points]

    def aggregate(
        self, points: List[Mapping[str, object]]
    ) -> Dict[str, object]:
        """The same payload shape the jobs runner's sweep plan emits."""
        return {
            "kind": "sweep",
            "model": self.model_name,
            "field": self.field,
            "block": self.block,
            "points": [dict(point) for point in points],
        }


class StudyWorkload:
    """One study *round* as a sharded batch of candidate solves.

    A design-space study is adaptive — round N+1's candidates depend
    on round N's availabilities — so the whole study cannot be one
    fixed workload.  Instead the study runner fans each round out as
    one of these: each candidate's spec document is one
    ``POST /v1/solve``, the workload digest ties the batch to
    ``(study id, round index)``, and ``aggregate`` folds the shard
    points into the flat availability list the round generator is
    waiting for.  Everything downstream (dedup, constraints, the Pareto
    front) is recomputed from the complete trace by
    :func:`repro.studies.aggregate_study`, so the merged front is
    bit-identical to a single-process run.
    """

    kind = "study"

    #: Response fields carried into each point.
    POINT_FIELDS = (
        "model", "availability", "yearly_downtime_minutes", "mttf_hours",
    )

    def __init__(
        self,
        study_id: str,
        round_index: int,
        specs: Sequence[Mapping[str, object]],
        solver: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not specs:
            raise SpecError("batch workload needs at least one spec")
        self.specs = [dict(spec) for spec in specs]
        self.solver = dict(solver) if solver else None
        self.study_id = study_id
        self.round_index = round_index
        self.digest = _canonical_digest({
            "kind": self.kind,
            "study_id": study_id,
            "round": round_index,
            "specs": self.specs,
            "solver": self.solver,
        })

    @property
    def total(self) -> int:
        return len(self.specs)

    def calls(self, lo: int, hi: int) -> List[Call]:
        calls: List[Call] = []
        for spec in self.specs[lo:hi]:
            payload: Dict[str, object] = {"spec": spec}
            if self.solver is not None:
                payload["solver"] = self.solver
            calls.append(("/v1/solve", payload))
        return calls

    def extract(
        self, bodies: List[Mapping[str, object]], lo: int, hi: int
    ) -> List[Dict[str, object]]:
        if len(bodies) != hi - lo:
            raise SpecError(
                f"worker returned {len(bodies)} results for "
                f"shard [{lo}, {hi})"
            )
        return [
            {key: body.get(key) for key in self.POINT_FIELDS}
            for body in bodies
        ]

    def aggregate(
        self, points: List[Mapping[str, object]]
    ) -> Dict[str, object]:
        return {
            "kind": "study_round",
            "study_id": self.study_id,
            "round": self.round_index,
            "count": len(points),
            "availabilities": [
                float(point["availability"]) for point in points
            ],
        }
