"""The evaluation engine: cached, parallel solving for batch workloads.

An :class:`Engine` is the serving layer every repeated-solve workload
routes through.  It composes the other three parts of this package —
content-addressed keys, the solve cache, and the batch executor — and
meters everything through a :class:`~repro.engine.stats.StatsCollector`:

* :meth:`Engine.solve` — a cached drop-in for
  :func:`repro.core.translate`; per-block chain solves are memoized by
  content digest, so structurally identical blocks anywhere in any
  model are solved exactly once per cache lifetime.
* :meth:`Engine.measures` — the Section 4 measure set of a cached
  solve, itself cached per (system digest, mission, grid), so a
  repeated what-if read costs a lookup instead of the transient
  integrals.
* :meth:`Engine.solve_chain` — the same for raw GMB/library CTMCs.
* :meth:`Engine.sweep_block_field` / :meth:`Engine.sweep_global_field`
  — parametric sweeps where only the changed block is re-solved per
  point, fanned out over workers when ``jobs > 1``.
* :meth:`Engine.propagate_uncertainty` — Monte-Carlo parameter
  uncertainty: values are drawn sequentially (bit-compatible with the
  historical implementation), the expensive solves fan out.
* :meth:`Engine.simulate_system` — simulation replications with
  deterministic per-replication seeding, so serial and parallel runs
  of the same seed agree exactly.

Each batch kind's math lives here exactly once, and the jobs planners
and service handlers call it rather than re-deriving it:

* sweep — :meth:`Engine.sweep_availabilities`, :func:`sweep_points`,
  :func:`sweep_payload`;
* uncertainty — :func:`draw_variants`,
  :meth:`Engine.variant_availabilities`, :func:`uncertainty_summary`;
* validate — :func:`replication_tasks`,
  :meth:`Engine.replication_samples`, :func:`validate_payload`.

The point methods take any sub-range of a kind's points, which is how
checkpointed jobs solve chunk by chunk.  Workers are separate
processes; each lazily builds a process-local engine so consecutive
tasks on one worker still share a block cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union
from pathlib import Path

import numpy as np

from ..core.block import DiagramBlockModel
from ..core.measures import (
    DEFAULT_GRID_POINTS,
    SystemMeasures,
    compute_measures,
)
from ..core.generator import generate_block_chain
from ..core.parameters import BlockParameters, GlobalParameters
from ..core.translator import (
    ChainSolve,
    ChainSolver,
    SystemSolution,
    solve_block_chain,
    translate,
)
from ..errors import SolverError
from ..markov.chain import MarkovChain
from ..markov.rewards import crossing_frequency
from ..num import SolverOptions, as_options, resolve_steady, solve_steady
from ..obs.trace import get_tracer
from ..units import MINUTES_PER_YEAR, availability_to_yearly_downtime_minutes
from .cache import (
    BlockRecord,
    MeasuresKey,
    SolveCache,
    current_record,
    default_cache_dir,
)
from .executor import run_batch
from .keys import (
    DigestMemo,
    chain_digest,
    model_digest,
    task_seed,
)
from .stats import EngineStats, StatsCollector, save_stats

#: Anything the engine accepts as a solve method: a legacy method name
#: ("direct", "gth", ...) or a full :class:`~repro.num.SolverOptions`.
MethodLike = Union[str, SolverOptions]


class Engine:
    """Cached, parallel evaluation engine.

    Args:
        jobs: Worker processes for batch methods (1 = serial fallback).
        cache: ``True`` for a fresh in-memory cache, ``False``/``None``
            to disable caching, or a :class:`SolveCache` to share one.
        cache_dir: Enables the persistent block layer at this directory
            (only when ``cache`` is ``True``; a shared
            :class:`SolveCache` keeps its own setting).
        timeout: Per-task wall-clock limit for pool runs, in seconds.
        retries: Extra attempts per failed/timed-out task.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[bool, SolveCache, None] = True,
        cache_dir: Optional[Union[str, Path]] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise SolverError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        if isinstance(cache, SolveCache):
            self.cache: Optional[SolveCache] = cache
        elif cache:
            self.cache = SolveCache(cache_dir=cache_dir)
        else:
            self.cache = None
        self.stats = StatsCollector()
        self.stats.set_jobs(jobs)

    @property
    def _worker_cache_config(self) -> Tuple[Optional[Path], bool]:
        """(cache_dir, enabled) that pool workers should mirror."""
        if self.cache is None:
            return None, False
        return self.cache.cache_dir, True

    # ------------------------------------------------------------------
    # cached solving
    # ------------------------------------------------------------------
    def chain_solver(
        self,
        method: MethodLike,
        digests: DigestMemo,
    ) -> ChainSolver:
        """A memoizing chain solver for :func:`repro.core.translate`.

        Block keys come from the caller's ``digests`` memo, so a batch
        hashes the blocks its points share once.
        """
        options = as_options(method)

        def solver(
            effective: BlockParameters,
            global_parameters: GlobalParameters,
            solve_options: SolverOptions = options,
        ) -> ChainSolve:
            # Detail-level: one span per *block* solve floods traces of
            # sweep-heavy workloads, so it is opt-in (``--trace-detail``).
            with get_tracer().span_detail(
                "engine.block_solve", method=solve_options.steady_method
            ) as span:
                if self.cache is None:
                    span.set_attr("cache", "off")
                    return self._record_block_solve(
                        solve_block_chain(
                            effective, global_parameters, solve_options
                        ),
                        span,
                    )
                key = digests.block(
                    effective, global_parameters, solve_options
                )
                value, layer = self.cache.get_block(
                    key,
                    lambda data: _regenerated_solve(
                        data, effective, global_parameters, solve_options
                    ),
                )
                if value is not None:
                    self.stats.increment("block_cache_hits")
                    if layer == "disk":
                        self.stats.increment("disk_hits")
                    span.set_attr("cache", layer or "memory")
                    return value
                solved = self._record_block_solve(
                    solve_block_chain(
                        effective, global_parameters, solve_options
                    ),
                    span,
                )
                span.set_attr("cache", "miss")
                self.cache.put_block(key, solved, _chain_solve_record)
                return solved

        return solver

    def _record_block_solve(self, solved: ChainSolve, span) -> ChainSolve:
        """Count one computed block solve and annotate its span."""
        self.stats.increment("block_solves")
        self.stats.record_backend_solve(solved.backend, solved.n_states)
        span.set_attr("backend", solved.backend)
        span.set_attr("representation", solved.representation)
        span.set_attr("n_states", solved.n_states)
        span.set_attr("nnz", solved.nnz)
        return solved

    def solve(
        self, model: DiagramBlockModel, method: MethodLike = "direct"
    ) -> SystemSolution:
        """Cached, instrumented equivalent of ``translate(model)``.

        Cached solutions are shared objects — treat them as immutable.
        """
        with self.stats.timer("solve"):
            return self._solve(model, method, DigestMemo())

    def _solve(
        self,
        model: DiagramBlockModel,
        method: MethodLike,
        digests: DigestMemo,
    ) -> SystemSolution:
        method = as_options(method)
        with get_tracer().span(
            "engine.solve", method=method.steady_method
        ) as span:
            if self.cache is not None:
                key = digests.model(model, method)
                cached = self.cache.get_system(key)
                if cached is not None:
                    self.stats.increment("system_cache_hits")
                    span.set_attr("cache", "hit")
                    return cached
            solution = translate(
                model,
                method=method,
                chain_solver=self.chain_solver(method, digests),
            )
            self.stats.increment("system_solves")
            if self.cache is not None:
                span.set_attr("cache", "miss")
                self.cache.put_system(key, solution)
            else:
                span.set_attr("cache", "off")
            return solution

    def measures_key(
        self,
        model: DiagramBlockModel,
        method: MethodLike = "direct",
        mission: Optional[float] = None,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> MeasuresKey:
        """The measures-cache key of one (model, solver, mission, grid).

        An omitted mission resolves to the model's global Mission Time
        first, so it shares the entry of an explicit equal mission.
        The key holds the mission's ``repr``: ``8760`` and ``8760.0``
        give equal numbers but print differently, so they stay apart.
        """
        if mission is None:
            mission = model.global_parameters.mission_time_hours
        return (
            model_digest(model, as_options(method)), repr(mission),
            grid_points,
        )

    def lookup_measures(self, key: MeasuresKey) -> Optional[SystemMeasures]:
        """The cached measure set under ``key``, or None; never computes.

        Cheap enough for an event loop: a hit counts
        ``measures_cache_hits`` and emits an ``engine.measures`` span
        with ``cache=hit``; a miss records nothing.
        """
        if self.cache is None:
            return None
        cached = self.cache.get_measures(key)
        if cached is not None:
            self.stats.increment("measures_cache_hits")
            with get_tracer().span("engine.measures", cache="hit"):
                pass
        return cached

    def measures(
        self,
        model: DiagramBlockModel,
        method: MethodLike = "direct",
        mission: Optional[float] = None,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> SystemMeasures:
        """Cached ``compute_measures(self.solve(model, method), ...)``.

        The measure set is a pure function of the system digest, the
        solver options, the resolved mission and the grid, so it is
        computed once per distinct key (``measures_computed``) and
        every later call is a lookup.  On a miss the solve runs first,
        as its own ``engine.solve`` span, and the ``engine.measures``
        span (``cache=miss``, or ``off`` without a cache) times only
        the measures.  Cached measure sets are shared — treat them as
        immutable.
        """
        method = as_options(method)
        key = self.measures_key(model, method, mission, grid_points)
        cached = self.lookup_measures(key)
        if cached is not None:
            return cached
        solution = self.solve(model, method)
        with get_tracer().span(
            "engine.measures", cache="off" if self.cache is None else "miss"
        ):
            measures = compute_measures(
                solution, mission_time_hours=mission,
                grid_points=grid_points,
            )
        self.stats.increment("measures_computed")
        if self.cache is not None:
            self.cache.put_measures(key, measures)
        return measures

    async def solve_async(
        self, model: DiagramBlockModel, method: MethodLike = "direct"
    ) -> SystemSolution:
        """:meth:`solve` without blocking the event loop.

        The submit API the service layer builds on: the solve runs on a
        worker thread (the collector's locks make the caches and stats
        safe under concurrent submissions) while the caller's event
        loop keeps serving other requests.
        """
        import asyncio

        return await asyncio.to_thread(self.solve, model, method)

    def solve_many(
        self,
        models: Sequence[DiagramBlockModel],
        method: MethodLike = "direct",
    ) -> List[SystemSolution]:
        """Solve several *distinct* models as one batch.

        With ``jobs > 1`` the solves fan out over the process pool
        (each worker keeps a process-local block cache mirroring this
        engine's persistent layer); results are merged back into this
        engine's system cache so follow-up :meth:`solve` calls of the
        same specs hit locally.  Serial engines just loop.
        """
        models = list(models)
        method = as_options(method)
        if not models:
            return []
        if self.jobs == 1 or len(models) == 1:
            digests = DigestMemo()
            solutions = []
            for model in models:
                with self.stats.timer("solve"):
                    solutions.append(self._solve(model, method, digests))
            return solutions
        cache_dir, use_cache = self._worker_cache_config
        with self.stats.timer("solve"):
            solutions = run_batch(
                _solve_model_task,
                [
                    (model, method, cache_dir, use_cache)
                    for model in models
                ],
                jobs=self.jobs,
                timeout=self.timeout,
                retries=self.retries,
                stats=self.stats,
            )
        self.stats.increment("system_solves", len(solutions))
        if self.cache is not None:
            for model, solution in zip(models, solutions):
                self.cache.put_system(
                    model_digest(model, method), solution
                )
        return solutions

    def solve_chain(
        self, chain: MarkovChain, method: MethodLike = "direct"
    ) -> Dict[str, float]:
        """Cached steady-state solve of a raw CTMC.

        Returns the steady-state distribution; availability and failure
        frequency are derived and cached alongside under the keys
        ``"__availability__"`` and ``"__failure_frequency__"``.
        """
        options = as_options(method)
        key = (
            chain_digest(chain, options) if self.cache is not None else None
        )
        if key is not None:
            value, layer = self.cache.get_block(
                key, lambda data: _chain_steady_state(data, chain, options)
            )
            if value is not None:
                self.stats.increment("block_cache_hits")
                if layer == "disk":
                    self.stats.increment("disk_hits")
                return value
        backend, op = resolve_steady(chain, options)
        pi = dict(
            zip(chain.state_names, solve_steady(op, options).tolist())
        )
        # Derive the failure frequency from the distribution already in
        # hand (the solve is deterministic, so this matches what a
        # second markov.rewards.failure_frequency solve would sum).
        frequency = crossing_frequency(chain, pi, up_to_down=True)
        # Reward-weighted, in chain state order — bit-identical to
        # markov.rewards.steady_state_availability.
        pi["__availability__"] = sum(
            pi[state.name] * state.reward for state in chain
        )
        pi["__failure_frequency__"] = frequency
        self.stats.increment("block_solves")
        self.stats.record_backend_solve(backend.name, chain.n_states)
        if key is not None:
            self.cache.put_block(
                key,
                pi,
                lambda value: _steady_state_record(
                    value, chain.n_states, backend.name, op.representation
                ),
            )
        return pi

    # ------------------------------------------------------------------
    # batch workloads
    # ------------------------------------------------------------------
    def _map_points(self, task, items: Sequence[Tuple]) -> List:
        """``task(*item, engine)`` for every item, in item order.

        The one serial-or-pool fork for point tasks.  A serial engine
        runs every task inline on itself, so its cache serves each
        point and one digest memo hashes the blocks the points share
        once; with ``jobs > 1`` the items fan out over the pool, where
        each worker solves on its process-local engine mirroring this
        engine's cache policy.  Callers own the stage timer.
        """
        if self.jobs == 1:
            digests = DigestMemo()
            return [task(*item, self, digests=digests) for item in items]
        cache_dir, use_cache = self._worker_cache_config
        return run_batch(
            task,
            [tuple(item) + (None, cache_dir, use_cache) for item in items],
            jobs=self.jobs,
            timeout=self.timeout,
            retries=self.retries,
            stats=self.stats,
        )

    def sweep_availabilities(
        self,
        model: DiagramBlockModel,
        path: Optional[str],
        field: str,
        values: Sequence[object],
        method: MethodLike = "direct",
    ) -> List[float]:
        """Availability at each sweep value; ``path=None`` sweeps a
        global field.  Sweeps and sweep jobs both solve through here."""
        method = as_options(method)
        return self._map_points(
            _sweep_point_task,
            [(model, path, field, value, method) for value in values],
        )

    def variant_availabilities(
        self,
        variants: Sequence[DiagramBlockModel],
        method: MethodLike = "direct",
    ) -> List[float]:
        """Availability of each model variant (uncertainty samples)."""
        method = as_options(method)
        return self._map_points(
            _availability_task, [(variant, method) for variant in variants]
        )

    def replication_samples(
        self,
        solution: SystemSolution,
        horizon: float,
        seed: Optional[int],
        lo: int,
        hi: int,
    ) -> List[float]:
        """Simulated availabilities of replications ``[lo, hi)``."""
        return self._map_points(
            _replication_task,
            replication_tasks(solution, horizon, seed, lo, hi),
        )

    def sweep_block_field(
        self,
        model: DiagramBlockModel,
        path: str,
        field: str,
        values: Sequence[object],
        method: MethodLike = "direct",
    ) -> List["SweepPoint"]:
        """Engine-backed :func:`repro.analysis.sweep_block_field`."""
        return self._sweep(model, path, field, values, method)

    def sweep_global_field(
        self,
        model: DiagramBlockModel,
        field: str,
        values: Sequence[object],
        method: MethodLike = "direct",
    ) -> List["SweepPoint"]:
        """Engine-backed :func:`repro.analysis.sweep_global_field`."""
        return self._sweep(model, None, field, values, method)

    def _sweep(
        self,
        model: DiagramBlockModel,
        path: Optional[str],
        field: str,
        values: Sequence[object],
        method: MethodLike,
    ) -> List["SweepPoint"]:
        values = list(values)
        with self.stats.timer("sweep"):
            availabilities = self.sweep_availabilities(
                model, path, field, values, method
            )
        return sweep_points(values, availabilities)

    def propagate_uncertainty(
        self,
        model: DiagramBlockModel,
        uncertain: Sequence["UncertainField"],
        samples: int = 100,
        seed: Optional[int] = None,
    ) -> "UncertaintyResult":
        """Engine-backed :func:`repro.analysis.propagate_uncertainty`.

        Sample values are drawn sequentially from one generator (the
        exact draw order of the historical serial implementation), so
        results are bit-identical across ``jobs`` settings *and* with
        the pre-engine code; only the model solves fan out.
        """
        from ..analysis.uncertainty import UncertaintyResult

        if samples < 2:
            raise SolverError(f"need at least 2 samples, got {samples}")
        if not uncertain:
            raise SolverError("no uncertain fields given")
        with self.stats.timer("uncertainty"):
            availabilities = self.variant_availabilities(
                draw_variants(model, uncertain, samples, seed), "direct"
            )
        return UncertaintyResult(
            samples=samples,
            **uncertainty_summary(availabilities),
            availability_samples=tuple(
                np.asarray(availabilities, dtype=float).tolist()
            ),
        )

    def simulate_system(
        self,
        solution: SystemSolution,
        horizon: float = 87_600.0,
        replications: int = 60,
        seed: Optional[int] = None,
        confidence: float = 0.95,
    ) -> "SimulationResult":
        """Engine-backed Monte-Carlo availability of a solved model.

        Every replication gets its own deterministic seed derived from
        ``(seed, replication index)``, so a seeded run returns the same
        interval at any ``jobs`` setting.  (This stream differs from
        the historical single-generator implementation in
        :func:`repro.validation.simulate_system_availability`, which is
        preserved there for backwards compatibility.)

        Unlike :meth:`replication_samples`, every ``jobs`` setting runs
        through the batch executor, so a failing replication surfaces
        as :class:`~repro.errors.EngineError` after its retries.
        """
        from ..semimarkov.simulation import _summarize

        with self.stats.timer("simulate"):
            samples = run_batch(
                _replication_task,
                replication_tasks(solution, horizon, seed, 0, replications),
                jobs=self.jobs,
                timeout=self.timeout,
                retries=self.retries,
                stats=self.stats,
            )
        return _summarize(np.asarray(samples, dtype=float), confidence)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> EngineStats:
        """An immutable copy of the engine's counters and timings."""
        return self.stats.snapshot()

    def save_stats(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Path:
        """Persist the current snapshot for ``rascad stats``."""
        target = directory if directory is not None else default_cache_dir()
        return save_stats(self.stats_snapshot(), target)


# ----------------------------------------------------------------------
# persisted block records
# ----------------------------------------------------------------------
def _chain_solve_record(solved: ChainSolve) -> bytes:
    """The disk record of a block solve: its scalars and π vector."""
    return BlockRecord(
        solved.model_type,
        solved.availability,
        solved.failure_frequency,
        solved.backend,
        solved.representation,
        solved.nnz,
        np.fromiter(
            solved.steady_state.values(), np.float64, solved.n_states
        ),
    ).to_bytes()


def _regenerated_solve(
    data: bytes,
    effective: BlockParameters,
    global_parameters: GlobalParameters,
    options: SolverOptions,
) -> Optional[ChainSolve]:
    """The block solve a disk record holds, its chain regenerated.

    The chain is a pure function of the parameters the record's key
    digests, so it is generated again (a template refill once the
    structure is known) rather than stored.  None for bytes that are
    not a current record (see :func:`~repro.engine.cache.current_record`)
    or whose π does not fit the chain.
    """
    record = current_record(data, options)
    if record is None:
        return None
    chain = generate_block_chain(effective, global_parameters)
    if chain.n_states != record.n_states:
        return None
    return ChainSolve(
        chain=chain,
        model_type=record.model_type,
        availability=record.availability,
        failure_frequency=record.failure_frequency,
        steady_state=dict(zip(chain.state_names, record.pi.tolist())),
        backend=record.backend,
        representation=record.representation,
        n_states=chain.n_states,
        nnz=record.nnz,
    )


def _steady_state_record(
    pi: Dict[str, float], n_states: int, backend: str, representation: str
) -> bytes:
    """The disk record of :meth:`Engine.solve_chain`'s answer.

    A raw chain has no block type (-1), and its nonzeros are not kept.
    ``pi`` holds the state entries first, in chain order, then the two
    derived ones, so the first ``n_states`` values are the vector.
    """
    return BlockRecord(
        -1,
        pi["__availability__"],
        pi["__failure_frequency__"],
        backend,
        representation,
        0,
        np.fromiter(pi.values(), np.float64, n_states),
    ).to_bytes()


def _chain_steady_state(
    data: bytes, chain: MarkovChain, options: SolverOptions
) -> Optional[Dict[str, float]]:
    """:meth:`Engine.solve_chain`'s answer from a disk record of it."""
    record = current_record(data, options)
    if record is None or record.n_states != chain.n_states:
        return None
    pi = dict(zip(chain.state_names, record.pi.tolist()))
    pi["__availability__"] = record.availability
    pi["__failure_frequency__"] = record.failure_frequency
    return pi


# ----------------------------------------------------------------------
# module-level task functions (picklable; run inside worker processes)
# ----------------------------------------------------------------------

#: Per-process engine for workers, so tasks that land on the same
#: worker share a block cache.  Built lazily; memory-only by design.
_PROCESS_ENGINE: Optional[Engine] = None


def _process_engine(
    cache_dir: Optional[Path] = None, use_cache: bool = True
) -> Engine:
    """The pool worker's process-local engine (first task configures it).

    Mirrors the parent engine's cache policy so a parallel run reads
    and populates the same persistent layer a serial run would.
    """
    global _PROCESS_ENGINE
    if _PROCESS_ENGINE is None:
        _PROCESS_ENGINE = Engine(
            jobs=1, cache=use_cache, cache_dir=cache_dir
        )
    return _PROCESS_ENGINE


def _sweep_point_task(
    model: DiagramBlockModel,
    path: Optional[str],
    field: str,
    value: object,
    method: MethodLike,
    engine: Optional[Engine] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
    digests: Optional[DigestMemo] = None,
) -> float:
    from ..analysis.parametric import (
        with_block_changes,
        with_global_changes,
    )

    if engine is None:
        engine = _process_engine(cache_dir, use_cache)
    if path is None:
        variant = with_global_changes(model, **{field: value})
    else:
        variant = with_block_changes(model, path, **{field: value})
    solution = engine._solve(variant, method, digests or DigestMemo())
    return solution.availability


def _solve_model_task(
    model: DiagramBlockModel,
    method: MethodLike,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> SystemSolution:
    engine = _process_engine(cache_dir, use_cache)
    return engine._solve(model, method, DigestMemo())


def _availability_task(
    model: DiagramBlockModel,
    method: MethodLike,
    engine: Optional[Engine] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
    digests: Optional[DigestMemo] = None,
) -> float:
    if engine is None:
        engine = _process_engine(cache_dir, use_cache)
    solution = engine._solve(model, method, digests or DigestMemo())
    return solution.availability


def _replication_task(
    contributing: Sequence[Tuple[BlockParameters, int]],
    global_parameters: GlobalParameters,
    horizon: float,
    seed: Optional[int],
    engine: Optional[Engine] = None,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
    digests: Optional[DigestMemo] = None,
) -> float:
    """One simulation replication; it solves nothing, so the engine
    arguments every point task receives go unused."""
    from ..validation.simulator import _run_redundant, _run_type0

    rng = np.random.default_rng(seed)
    product = 1.0
    for parameters, multiplicity in contributing:
        runner = (
            _run_redundant if parameters.is_redundant else _run_type0
        )
        for _copy in range(multiplicity):
            product *= runner(parameters, global_parameters, horizon, rng)
    return product


# ----------------------------------------------------------------------
# each batch kind's math, shared by the engine, the jobs planners and
# the service handlers
# ----------------------------------------------------------------------

def replication_tasks(
    solution: SystemSolution,
    horizon: float,
    seed: Optional[int],
    lo: int,
    hi: int,
) -> List[Tuple]:
    """Replication task tuples ``[lo, hi)`` of a seeded validation run.

    Replication ``i`` is seeded with ``task_seed(seed, i)``, so any
    split of the range (pool chunks, checkpointed job chunks) draws
    the same samples as one uninterrupted run.
    """
    from ..validation.simulator import contributing_blocks

    contributing = contributing_blocks(solution)
    g = solution.model.global_parameters
    return [
        (contributing, g, horizon, task_seed(seed, index))
        for index in range(lo, hi)
    ]


def draw_variants(
    model: DiagramBlockModel,
    uncertain: Sequence["UncertainField"],
    samples: int,
    seed: Optional[int],
) -> List[DiagramBlockModel]:
    """The seeded uncertainty draw: one model variant per sample.

    Values come sequentially from one generator, field by field within
    a sample, so a seed names one variant population everywhere.
    """
    from ..analysis.parametric import with_block_changes

    rng = np.random.default_rng(seed)
    variants = []
    for _ in range(samples):
        variant = model
        for entry in uncertain:
            value = entry.distribution.sample(rng)
            variant = with_block_changes(
                variant, entry.path, **{entry.field: value}
            )
        variants.append(variant)
    return variants


def uncertainty_summary(availabilities: Sequence[float]) -> Dict[str, float]:
    """Mean/std availability and 5/50/95th percentile yearly downtime."""
    arr = np.asarray(availabilities, dtype=float)
    downtimes = (1.0 - arr) * MINUTES_PER_YEAR
    p05, p50, p95 = np.percentile(downtimes, [5.0, 50.0, 95.0])
    return {
        "mean_availability": float(arr.mean()),
        "std_availability": float(arr.std(ddof=1)),
        "downtime_p05": float(p05),
        "downtime_p50": float(p50),
        "downtime_p95": float(p95),
    }


def sweep_points(
    values: Sequence[object], availabilities: Sequence[float]
) -> List["SweepPoint"]:
    """Pair sweep values with their availabilities."""
    from ..analysis.parametric import SweepPoint

    return [
        SweepPoint(
            value=float(value),  # type: ignore[arg-type]
            availability=availability,
            yearly_downtime_minutes=(
                availability_to_yearly_downtime_minutes(availability)
            ),
        )
        for value, availability in zip(values, availabilities)
    ]


def sweep_payload(
    model_name: str,
    field: str,
    block: Optional[str],
    points: Sequence["SweepPoint"],
) -> Dict[str, object]:
    """The sweep result document (``POST /v1/sweep`` and sweep jobs)."""
    return {
        "model": model_name,
        "field": field,
        "block": block,
        "points": [
            {
                "value": point.value,
                "availability": point.availability,
                "yearly_downtime_minutes": point.yearly_downtime_minutes,
            }
            for point in points
        ],
    }


def validate_payload(
    model_name: str,
    analytic_availability: float,
    result: "SimulationResult",
    horizon: float,
) -> Dict[str, object]:
    """The validation result document (``/v1/validate``, validate jobs).

    Compares the analytic availability against the simulated interval.
    """
    return {
        "model": model_name,
        "analytic_availability": analytic_availability,
        "simulated_mean": result.mean,
        "interval_low": result.low,
        "interval_high": result.high,
        "replications": result.replications,
        "horizon_hours": horizon,
        "agreement": result.contains(analytic_availability),
    }


# ----------------------------------------------------------------------
# the shared default engine
# ----------------------------------------------------------------------

_DEFAULT_ENGINE: Optional[Engine] = None


def get_default_engine() -> Engine:
    """The process-wide engine behind the thin analysis wrappers.

    Memory-only cache, serial executor — safe defaults that still give
    every caller of :func:`repro.analysis.sweep_block_field` and
    friends cross-call block reuse for free.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine(jobs=1)
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> None:
    """Replace (or with ``None``, reset) the process-wide engine."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
