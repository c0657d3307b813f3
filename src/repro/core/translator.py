"""Translation of a diagram/block model into RBDs and Markov chains.

Section 4 of the paper: "each MG diagram is modeled by a serial RBD
which consists of all the MG blocks in the diagram.  Each block is then
modeled by a Markov chain.  The Markov chain may have a sub RBD,
depending on if the corresponding block has a subdiagram.  The overall
model is a hierarchy of RBDs and Markov chains."

Composition rules implemented here (DESIGN.md §5):

* A diagram is a series RBD; its availability is the product of the
  availabilities of its blocks (independent component failures).
* A leaf block's availability comes from its generated CTMC.
* A block with a subdiagram and no redundancy contributes the
  subdiagram's availability, repeated in series ``quantity`` times.
* A block with a subdiagram **and** redundancy aggregates the
  subdiagram into effective block parameters (series failure rates sum;
  time/probability parameters combine rate-weighted), then generates
  the redundant chain over the aggregate — this is how "Storage 1,
  RAID5"-style blocks are modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import SpecError
from ..markov.chain import MarkovChain

from ..markov.mttf import absorbing_variant
from ..markov.rewards import crossing_frequency
from ..num import (
    DEFAULT_OPTIONS,
    STIFFNESS_LIMIT,
    SolverOptions,
    as_operator,
    as_options,
    resolve_steady,
    solve_steady,
    transient_grid,
)
from ..rbd.blocks import Leaf, Series
from .block import DiagramBlockModel, MGBlock, MGDiagram
from .generator import classify_model_type, generate_block_chain
from .parameters import BlockParameters, GlobalParameters


def aggregate_subdiagram(
    diagram: MGDiagram,
    global_parameters: GlobalParameters,
    name: Optional[str] = None,
) -> BlockParameters:
    """Collapse a subdiagram into effective single-unit block parameters.

    The subassembly fails when any constituent fails (series), so
    permanent and transient rates sum over ``quantity`` weighted units;
    duration and probability parameters combine weighted by each
    block's contribution to the permanent failure rate, so the
    aggregate preserves the expected repair behaviour of the mix.
    Nested subdiagrams aggregate recursively.
    """
    flattened: List[BlockParameters] = []
    for block in diagram:
        if block.has_subdiagram:
            inner = aggregate_subdiagram(
                block.subdiagram, global_parameters, name=block.name
            )
            # The inner aggregate is one logical unit; replicate it for
            # the block's own quantity (series).
            flattened.append(
                inner.with_changes(
                    quantity=block.parameters.quantity,
                    min_required=block.parameters.quantity,
                )
            )
        else:
            flattened.append(block.parameters)

    total_permanent = 0.0
    total_transient_fit = 0.0
    weights: List[float] = []
    for parameters in flattened:
        contribution = parameters.quantity * parameters.permanent_rate
        total_permanent += contribution
        total_transient_fit += parameters.quantity * parameters.transient_fit
        weights.append(contribution)
    weight_total = sum(weights)
    if weight_total <= 0.0:
        # Nothing in the subassembly ever fails permanently; weight
        # evenly so duration parameters stay defined.
        weights = [1.0] * len(flattened)
        weight_total = float(len(flattened))

    def weighted(extract: Callable[[BlockParameters], float]) -> float:
        return (
            sum(w * extract(p) for w, p in zip(weights, flattened))
            / weight_total
        )

    mtbf_hours = float("inf") if total_permanent == 0 else 1.0 / total_permanent
    return BlockParameters(
        name=name or diagram.name,
        quantity=1,
        min_required=1,
        mtbf_hours=mtbf_hours,
        transient_fit=total_transient_fit,
        diagnosis_minutes=weighted(lambda p: p.diagnosis_minutes),
        corrective_minutes=weighted(lambda p: p.corrective_minutes),
        verification_minutes=weighted(lambda p: p.verification_minutes),
        service_response_hours=weighted(lambda p: p.service_response_hours),
        p_correct_diagnosis=weighted(lambda p: p.p_correct_diagnosis),
        description=f"aggregate of diagram {diagram.name!r}",
    )


@dataclass(frozen=True)
class ChainSolve:
    """The solver output for one generated block chain.

    This is the expensive, context-free part of a block solution: it
    depends only on the effective parameters, the globals, and the
    solver method — never on where in the hierarchy the block sits.
    That makes it the unit of caching for :mod:`repro.engine`.
    ``backend`` and ``representation`` name the backend that ran and
    the storage it read (see :func:`repro.num.resolve_steady`), not the
    ones the options asked for.
    """

    chain: MarkovChain
    model_type: int
    availability: float
    failure_frequency: float
    steady_state: Dict[str, float]
    backend: str = "dense-direct"
    representation: str = "dense"
    n_states: int = 0
    nnz: int = 0


#: Signature of a pluggable chain solver; :func:`translate` accepts one
#: so callers (the evaluation engine) can memoize the per-block solves.
#: The third argument is the canonicalised :class:`~repro.num.SolverOptions`.
ChainSolver = Callable[
    [BlockParameters, GlobalParameters, SolverOptions], ChainSolve
]


def solve_block_chain(
    effective: BlockParameters,
    global_parameters: GlobalParameters,
    method: Union[str, SolverOptions] = "direct",
) -> ChainSolve:
    """Generate and solve the CTMC for one block's effective parameters."""
    options = as_options(method)
    chain = generate_block_chain(effective, global_parameters)
    backend, op = resolve_steady(chain, options)
    # The resolved operator resolves to the same backend again.
    pi_vector = solve_steady(op, options)
    pi = dict(zip(chain.state_names, pi_vector.tolist()))
    availability = sum(
        pi[state.name] * (1.0 if state.is_up else 0.0) for state in chain
    )
    frequency = crossing_frequency(chain, pi, up_to_down=True)
    return ChainSolve(
        chain=chain,
        model_type=classify_model_type(effective),
        availability=availability,
        failure_frequency=frequency,
        steady_state=pi,
        backend=backend.name,
        representation=op.representation,
        n_states=chain.n_states,
        nnz=op.nnz,
    )


@dataclass
class BlockSolution:
    """Solution artifacts for one block in the hierarchy.

    ``chain`` is None for pass-through blocks whose availability comes
    entirely from a subdiagram; ``effective`` carries the aggregated
    parameters actually used for chain generation (identical to the
    block's own parameters for leaf blocks).
    """

    path: str
    level: int
    block: MGBlock
    effective: BlockParameters
    model_type: Optional[int]
    chain: Optional[MarkovChain]
    availability: float
    failure_frequency: float
    steady_state: Dict[str, float] = field(default_factory=dict)
    children: List["BlockSolution"] = field(default_factory=list)
    options: SolverOptions = DEFAULT_OPTIONS

    @property
    def name(self) -> str:
        return self.block.name

    def _matrices(self):
        """Cached (operator, up indicator, Q_UU, up indices)."""
        cached = getattr(self, "_matrix_cache", None)
        if cached is None:
            op = as_operator(
                self.chain,
                representation=self.options.representation,
                validate=False,
            )
            indicator = (self.chain.reward_vector() > 0).astype(float)
            up_index = [
                i for i, value in enumerate(indicator) if value > 0
            ]
            q_uu = op.dense()[np.ix_(up_index, up_index)]
            cached = (op, indicator, q_uu, up_index)
            self._matrix_cache = cached
        return cached

    def _uniformization_points(self, op, times: Sequence[float]) -> List[int]:
        """Grid indices the shared uniformization path should evaluate.

        Sparse operators use the matrix-free shared grid whenever the
        Poisson truncation stays tractable; dense (small) chains keep
        the historic ``expm`` evaluation, which is exact and faster for
        them.  The split is decided per time point so single-point calls
        take the same branch as any grid containing that point.
        """
        if op.representation != "sparse":
            return []
        lam = op.uniformization_rate()
        return [
            i for i, t in enumerate(times) if lam * float(t) <= STIFFNESS_LIMIT
        ]

    def point_availability_grid(
        self, times: Sequence[float]
    ) -> List[float]:
        """Instantaneous availability A(t) at every grid point.

        Chain-backed blocks evaluate the whole grid from one shared
        uniformization power sequence when the operator is sparse (see
        :func:`repro.num.transient_grid`); results are identical to
        calling :meth:`point_availability` per point.
        """
        times = [float(t) for t in times]
        if self.chain is not None:
            op, indicator, _q_uu, _up = self._matrices()
            p0 = self.chain.initial_distribution()
            results: List[Optional[float]] = [None] * len(times)
            shared = self._uniformization_points(op, times)
            if shared:
                grid = transient_grid(
                    op,
                    [times[i] for i in shared],
                    p0=p0,
                    tol=self.options.uniformization_tol,
                )
                for i, probabilities in zip(shared, grid):
                    results[i] = float(
                        np.clip(probabilities @ indicator, 0.0, 1.0)
                    )
            rest = [i for i in range(len(times)) if results[i] is None]
            if rest:
                from scipy.linalg import expm

                q = op.dense()
                for i in rest:
                    results[i] = float(
                        np.clip(p0 @ expm(q * times[i]) @ indicator, 0.0, 1.0)
                    )
            return results  # type: ignore[return-value]
        grids = [child.point_availability_grid(times) for child in self.children]
        quantity = self.block.parameters.quantity
        combined = []
        for i in range(len(times)):
            value = 1.0
            for grid in grids:
                value *= grid[i]
            combined.append(value ** quantity)
        return combined

    def reliability_grid(self, times: Sequence[float]) -> List[float]:
        """Mission reliability R(t) at every grid point.

        Sparse chains build the absorbing variant once and share a
        single uniformization power sequence across the grid; dense
        chains keep the exact ``expm(Q_UU t)`` evaluation.
        """
        times = [float(t) for t in times]
        if self.chain is not None:
            op, _indicator, q_uu, up_index = self._matrices()
            if len(up_index) == self.chain.n_states:
                return [1.0] * len(times)
            start = self.chain.index(self.chain.state_names[0])
            row = up_index.index(start)
            results: List[Optional[float]] = [None] * len(times)
            shared = self._uniformization_points(op, times)
            if shared:
                absorbing = absorbing_variant(self.chain)
                absorbing_op = as_operator(
                    absorbing, representation="sparse", validate=False
                )
                p0 = absorbing.initial_distribution()
                grid = transient_grid(
                    absorbing_op,
                    [times[i] for i in shared],
                    p0=p0,
                    tol=self.options.uniformization_tol,
                )
                for i, probabilities in zip(shared, grid):
                    results[i] = float(
                        np.clip(probabilities[up_index].sum(), 0.0, 1.0)
                    )
            rest = [i for i in range(len(times)) if results[i] is None]
            if rest:
                from scipy.linalg import expm

                for i in rest:
                    results[i] = float(
                        np.clip(expm(q_uu * times[i])[row, :].sum(), 0.0, 1.0)
                    )
            return results  # type: ignore[return-value]
        grids = [child.reliability_grid(times) for child in self.children]
        quantity = self.block.parameters.quantity
        combined = []
        for i in range(len(times)):
            value = 1.0
            for grid in grids:
                value *= grid[i]
            combined.append(value ** quantity)
        return combined

    def point_availability(self, t: float) -> float:
        """Instantaneous availability A(t), starting from all-up."""
        return self.point_availability_grid([t])[0]

    def reliability(self, t: float) -> float:
        """Mission reliability R(t): no failure of this block by t."""
        return self.reliability_grid([t])[0]


@dataclass
class SystemSolution:
    """The solved hierarchy for a diagram/block model."""

    model: DiagramBlockModel
    blocks: List[BlockSolution]
    by_path: Dict[str, BlockSolution]
    availability: float
    failure_frequency: float
    options: SolverOptions = DEFAULT_OPTIONS

    def block(self, path: str) -> BlockSolution:
        try:
            return self.by_path[path]
        except KeyError:
            raise SpecError(f"no solved block at path {path!r}") from None

    def top_level(self) -> List[BlockSolution]:
        """Solutions for the root diagram's blocks."""
        return list(self.blocks)

    def point_availability(self, t: float) -> float:
        value = 1.0
        for solution in self.blocks:
            value *= solution.point_availability(t)
        return value

    def reliability(self, t: float) -> float:
        value = 1.0
        for solution in self.blocks:
            value *= solution.reliability(t)
        return value

    def point_availability_grid(self, times: Sequence[float]) -> List[float]:
        """A(t) at every grid point, sharing per-block power sequences."""
        times = [float(t) for t in times]
        grids = [
            solution.point_availability_grid(times)
            for solution in self.blocks
        ]
        results = []
        for i in range(len(times)):
            value = 1.0
            for grid in grids:
                value *= grid[i]
            results.append(value)
        return results

    def reliability_grid(self, times: Sequence[float]) -> List[float]:
        """R(t) at every grid point, sharing per-block power sequences."""
        times = [float(t) for t in times]
        grids = [
            solution.reliability_grid(times) for solution in self.blocks
        ]
        results = []
        for i in range(len(times)):
            value = 1.0
            for grid in grids:
                value *= grid[i]
            results.append(value)
        return results


def translate(
    model: DiagramBlockModel,
    method: Union[str, SolverOptions] = "direct",
    chain_solver: Optional[ChainSolver] = None,
) -> SystemSolution:
    """Translate and solve a diagram/block model.

    Args:
        model: The MG specification tree.
        method: A steady-state backend name ("direct", "gth", "power",
            "sparse-direct", "sparse-iterative") or a full
            :class:`~repro.num.SolverOptions` value — exposed so the
            validation benchmarks can cross-check paths.
        chain_solver: Optional replacement for
            :func:`solve_block_chain`; the evaluation engine passes a
            memoizing wrapper here so structurally identical blocks are
            solved once.
    """
    model.validate()
    options = as_options(method)
    g = model.global_parameters
    solver = chain_solver or solve_block_chain
    by_path: Dict[str, BlockSolution] = {}
    top = [
        _solve_block(block, f"{model.root.name}/{block.name}", 1, g, by_path,
                     options, solver)
        for block in model.root
    ]
    availability = 1.0
    for solution in top:
        availability *= _block_contribution(solution)
    frequency = _series_failure_frequency(top)
    return SystemSolution(
        model=model,
        blocks=top,
        by_path=by_path,
        availability=availability,
        failure_frequency=frequency,
        options=options,
    )


#: Backwards-friendly alias: translating *is* solving in MG.
solve_model = translate


def _block_contribution(solution: BlockSolution) -> float:
    """Availability contribution of a block, accounting for quantity.

    For chain-backed blocks the chain already models all N units; for
    pass-through blocks the subdiagram availability is raised to the
    block quantity (identical subassemblies in series).
    """
    if solution.chain is not None:
        return solution.availability
    return solution.availability ** solution.block.parameters.quantity


def _solve_block(
    block: MGBlock,
    path: str,
    level: int,
    g: GlobalParameters,
    by_path: Dict[str, BlockSolution],
    options: SolverOptions,
    solver: ChainSolver = solve_block_chain,
) -> BlockSolution:
    children: List[BlockSolution] = []
    if block.has_subdiagram:
        children = [
            _solve_block(
                child, f"{path}/{child.name}", level + 1, g, by_path,
                options, solver
            )
            for child in block.subdiagram
        ]

    if block.has_subdiagram and not block.parameters.is_redundant:
        # Pass-through: availability is the subdiagram's series product.
        availability = 1.0
        for child in children:
            availability *= _block_contribution(child)
        frequency = _series_failure_frequency(children)
        solution = BlockSolution(
            path=path,
            level=level,
            block=block,
            effective=block.parameters,
            model_type=None,
            chain=None,
            availability=availability,
            failure_frequency=frequency,
            children=children,
            options=options,
        )
    else:
        if block.has_subdiagram:
            aggregate = aggregate_subdiagram(
                block.subdiagram, g, name=block.name
            )
            effective = aggregate.with_changes(
                name=block.parameters.name,
                quantity=block.parameters.quantity,
                min_required=block.parameters.min_required,
                p_latent_fault=block.parameters.p_latent_fault,
                mttdlf_hours=block.parameters.mttdlf_hours,
                recovery=block.parameters.recovery,
                ar_time_minutes=block.parameters.ar_time_minutes,
                p_spf=block.parameters.p_spf,
                spf_recovery_minutes=block.parameters.spf_recovery_minutes,
                repair=block.parameters.repair,
                reintegration_minutes=block.parameters.reintegration_minutes,
            )
        else:
            effective = block.parameters
        solved = solver(effective, g, options)
        solution = BlockSolution(
            path=path,
            level=level,
            block=block,
            effective=effective,
            model_type=solved.model_type,
            chain=solved.chain,
            availability=solved.availability,
            failure_frequency=solved.failure_frequency,
            steady_state=solved.steady_state,
            children=children,
            options=options,
        )
    by_path[path] = solution
    return solution


def _series_failure_frequency(solutions: List[BlockSolution]) -> float:
    """System failure frequency of independent blocks in series.

    The system crosses up -> down when block i fails while every other
    block is up: ``sum_i f_i * prod_{j != i} A_j`` (with quantities
    folded into each block's contribution).
    """
    contributions = [
        _block_contribution(solution) for solution in solutions
    ]
    frequencies = []
    for solution in solutions:
        if solution.chain is not None:
            frequencies.append(solution.failure_frequency)
        else:
            quantity = solution.block.parameters.quantity
            base_availability = solution.availability
            # q identical subassemblies in series: f = q * f_sub * A_sub^(q-1)
            frequencies.append(
                quantity
                * solution.failure_frequency
                * base_availability ** (quantity - 1)
            )
    total = 0.0
    for i, frequency in enumerate(frequencies):
        others = 1.0
        for j, availability in enumerate(contributions):
            if j != i:
                others *= availability
        total += frequency * others
    return total


def diagram_rbd(model: DiagramBlockModel) -> Series:
    """The root diagram as an explicit series RBD of named leaves.

    Leaf names are block paths; feed availabilities via the ``values``
    mapping (the GMB hierarchy API uses this to splice MG output into
    hand-drawn diagrams).
    """
    leaves = [
        Leaf(f"{model.root.name}/{block.name}") for block in model.root
    ]
    return Series(model.root.name, leaves)
