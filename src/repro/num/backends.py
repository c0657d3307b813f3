"""Registry of named steady-state solver backends.

Each backend declares the representation it can consume (``"dense"``,
``"sparse"`` or ``"any"``) and the dispatcher coerces the operator as
needed — capability-based dispatch instead of per-module method-string
``if``/``elif`` ladders.  The built-in backends:

``dense-direct``
    Replace one balance equation with the normalisation constraint and
    solve with LAPACK.  The default; on ``auto`` storage it runs as
    ``sparse-direct`` from :data:`~repro.num.SPARSE_STATE_FLOOR` states
    on (see :func:`steady_backend_for`).
``gth``
    Grassmann-Taksar-Heyman elimination — subtraction-free, so immune
    to cancellation on stiff generators.  Dense only.
``power``
    Uniformized power iteration; runs matrix-free on either
    representation and serves as the independent validation oracle.
``sparse-direct``
    The same normalised system factorised by ``scipy.sparse.linalg.spsolve``
    (SuperLU) on CSR storage — the large-model production path, whose
    bits do not depend on the BLAS thread count.
``sparse-iterative``
    GMRES with a diagonal (Jacobi) preconditioner on the same system;
    for models too large to factorise.

Unknown names raise :class:`~repro.errors.UnknownBackendError`, which
lists the valid names.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, spsolve

from ..errors import SolverError, UnknownBackendError
from .operator import SPARSE_STATE_FLOOR, GeneratorOperator, as_operator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..markov.chain import MarkovChain
    from .options import SolverOptions

#: Iteration cap for the power-iteration oracle.
MAX_POWER_ITERATIONS = 2_000_000


@dataclass(frozen=True)
class SteadyBackend:
    """A named steady-state solver with its capability declaration.

    Attributes:
        name: Registry key (what ``SolverOptions.steady_method`` names).
        representation: Storage the solver consumes — ``"dense"``,
            ``"sparse"``, or ``"any"`` for matrix-free methods.
        summary: One-line description for docs and error messages.
        solve: ``(operator, options) -> pi`` implementation.
    """

    name: str
    representation: str
    summary: str
    solve: Callable[[GeneratorOperator, "SolverOptions"], np.ndarray]


_REGISTRY: Dict[str, SteadyBackend] = {}


def register_backend(backend: SteadyBackend) -> SteadyBackend:
    """Register (or replace) a steady-state backend by name."""
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def steady_backends() -> Dict[str, SteadyBackend]:
    """A copy of the registry, for introspection and docs."""
    return dict(_REGISTRY)


def require_backend_name(name: str) -> str:
    """Validate a backend name, raising the typed error on misses."""
    if name not in _REGISTRY:
        raise UnknownBackendError(name, backend_names())
    return name


def get_backend(name: str) -> SteadyBackend:
    """Look up a backend; unknown names raise :class:`UnknownBackendError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


# ----------------------------------------------------------------------
# implementations
# ----------------------------------------------------------------------
def _finish(pi: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(pi).all():
        raise SolverError(f"{what} produced non-finite values")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(f"{what} produced a zero vector")
    return pi / total


def _solve_dense_direct(
    op: GeneratorOperator, options: "SolverOptions"
) -> np.ndarray:
    q = op.dense()
    n = q.shape[0]
    if n == 1:
        return np.array([1.0])
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return _finish(pi, "direct steady-state solve")


def _solve_gth(op: GeneratorOperator, options: "SolverOptions") -> np.ndarray:
    q = op.dense()
    n = q.shape[0]
    if n == 1:
        return np.array([1.0])
    p = q.copy().astype(float)
    # Work on the off-diagonal rate matrix; the diagonal is implied.
    np.fill_diagonal(p, 0.0)
    for k in range(n - 1, 0, -1):
        total = p[k, :k].sum()
        if total <= 0.0:
            # State k cannot reach eliminated block; treat as unreachable
            # in steady state by leaving a zero pivot (handled below).
            continue
        p[:k, :k] += np.outer(p[:k, k], p[k, :k]) / total

    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        total = p[k, :k].sum()
        if total <= 0.0:
            pi[k] = 0.0
            continue
        pi[k] = pi[:k] @ p[:k, k] / total
    norm = pi.sum()
    if norm <= 0 or not np.isfinite(norm):
        raise SolverError("GTH elimination failed to normalise")
    return pi / norm


def power_iteration(
    op: GeneratorOperator,
    tol: float = 1e-12,
    max_iterations: int = MAX_POWER_ITERATIONS,
) -> np.ndarray:
    """Uniformized power iteration, matrix-free on either representation."""
    n = op.n
    if n == 1:
        return np.array([1.0])
    lam = op.uniformization_rate() * 1.05
    if lam <= 0:
        # All-absorbing generator: steady state is the initial state; the
        # convention here is uniform over states, but this never occurs
        # for validated availability chains.
        raise SolverError("generator has no transitions; no unique steady state")
    pi = np.full(n, 1.0 / n)
    if op.representation == "dense":
        p = np.eye(n) + op.dense() / lam
        step = lambda v: v @ p  # noqa: E731 - tight loop kernel
    else:
        step = lambda v: v + op.apply(v) / lam  # noqa: E731
    for _iteration in range(max_iterations):
        nxt = step(pi)
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < tol:
            pi = np.clip(pi, 0.0, None)
            return pi / pi.sum()
    raise SolverError(
        f"power iteration did not converge within {max_iterations} steps "
        f"(residual {delta:.3e})"
    )


def _solve_power(op: GeneratorOperator, options: "SolverOptions") -> np.ndarray:
    return power_iteration(op, tol=options.tolerance)


def _normalised_system(
    op: GeneratorOperator,
) -> Tuple[sparse.csc_matrix, np.ndarray]:
    """``A x = b`` with one balance row swapped for normalisation, in CSC.

    ``A`` is ``Q^T`` with its last row replaced by ones.  Q's CSR arrays
    are ``Q^T``'s CSC arrays, so ``A`` is built from them directly: each
    column drops its last-row entry (the last one, indices being sorted)
    and gains a 1 there.  No transpose, stack or format conversion runs.
    """
    q = op.sparse()
    if not q.has_canonical_format:
        q = q.copy()
        q.sum_duplicates()
    n = q.shape[0]
    indptr, indices = q.indptr, q.indices
    keep = indices != n - 1
    dropped = np.concatenate(([0], np.cumsum(~keep)))[indptr]
    a_indptr = indptr - dropped + np.arange(n + 1, dtype=indptr.dtype)
    last = a_indptr[1:] - 1
    kept = np.ones(a_indptr[-1], dtype=bool)
    kept[last] = False
    a_data = np.empty(a_indptr[-1])
    a_data[kept] = q.data[keep]
    a_data[last] = 1.0
    a_indices = np.empty(a_indptr[-1], dtype=indices.dtype)
    a_indices[kept] = indices[keep]
    a_indices[last] = n - 1
    a = sparse.csc_matrix((a_data, a_indices, a_indptr), shape=(n, n))
    b = np.zeros(n)
    b[-1] = 1.0
    return a, b


def _solve_sparse_direct(
    op: GeneratorOperator, options: "SolverOptions"
) -> np.ndarray:
    if op.n == 1:
        return np.array([1.0])
    a, b = _normalised_system(op)
    with warnings.catch_warnings():
        # A singular (reducible) generator makes SuperLU warn and return
        # NaNs; the finite check below turns that into a SolverError.
        warnings.simplefilter("ignore", sparse.linalg.MatrixRankWarning)
        pi = spsolve(a, b)
    return _finish(np.asarray(pi, dtype=float), "sparse direct steady-state solve")


def _solve_sparse_iterative(
    op: GeneratorOperator, options: "SolverOptions"
) -> np.ndarray:
    n = op.n
    if n == 1:
        return np.array([1.0])
    a, b = _normalised_system(op)
    a = a.tocsr()
    diag = a.diagonal()
    inv_diag = 1.0 / np.where(diag == 0.0, 1.0, diag)
    preconditioner = LinearOperator((n, n), matvec=lambda v: inv_diag * v)
    pi, info = gmres(
        a,
        b,
        rtol=max(options.tolerance, 1e-14),
        atol=0.0,
        restart=min(n, 200),
        maxiter=5000,
        M=preconditioner,
    )
    if info != 0:
        raise SolverError(
            f"sparse iterative steady-state solve did not converge (info={info})"
        )
    return _finish(np.asarray(pi, dtype=float), "sparse iterative steady-state solve")


register_backend(SteadyBackend(
    name="dense-direct",
    representation="dense",
    summary="LAPACK direct solve of the normalised balance equations",
    solve=_solve_dense_direct,
))
register_backend(SteadyBackend(
    name="gth",
    representation="dense",
    summary="Grassmann-Taksar-Heyman elimination (subtraction-free)",
    solve=_solve_gth,
))
register_backend(SteadyBackend(
    name="power",
    representation="any",
    summary="uniformized power iteration (matrix-free validation oracle)",
    solve=_solve_power,
))
register_backend(SteadyBackend(
    name="sparse-direct",
    representation="sparse",
    summary="SuperLU factorisation of the normalised system on CSR storage",
    solve=_solve_sparse_direct,
))
register_backend(SteadyBackend(
    name="sparse-iterative",
    representation="sparse",
    summary="GMRES with a diagonal preconditioner on CSR storage",
    solve=_solve_sparse_iterative,
))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def steady_backend_for(n: int, options: "SolverOptions") -> str:
    """The backend that solves an ``n``-state chain under ``options``.

    The default ``dense-direct`` on ``auto`` storage runs as
    ``sparse-direct`` from :data:`~repro.num.SPARSE_STATE_FLOOR` states
    on: LAPACK factorises such a system on several threads, so its bits
    would depend on the host's BLAS thread count, while SuperLU's do
    not.  Asking for ``representation="dense"`` keeps dense LAPACK.
    """
    if (
        options.steady_method == "dense-direct"
        and options.representation == "auto"
        and n >= SPARSE_STATE_FLOOR
    ):
        return "sparse-direct"
    return options.steady_method


def resolve_steady(
    model: Union["MarkovChain", GeneratorOperator, np.ndarray],
    options: Union[None, str, "SolverOptions"] = None,
) -> Tuple[SteadyBackend, GeneratorOperator]:
    """The backend :func:`solve_steady` runs and the operator it reads.

    A chain or sparse generator goes to :func:`steady_backend_for`'s
    backend; a prebuilt dense matrix or operator keeps the backend
    ``options`` names.  The operator is coerced to the representation
    the backend requires.
    """
    from .options import as_options

    opts = as_options(options)
    op = as_operator(model, representation=opts.representation)
    name = opts.steady_method
    if not (
        isinstance(model, (GeneratorOperator, np.ndarray))
        and op.representation == "dense"
    ):
        name = steady_backend_for(op.n, opts)
    backend = get_backend(name)
    if backend.representation != "any" and backend.representation != op.representation:
        op = op.with_representation(backend.representation)
    return backend, op


def solve_steady(
    model: Union["MarkovChain", GeneratorOperator, np.ndarray],
    options: Union[None, str, "SolverOptions"] = None,
) -> np.ndarray:
    """Solve ``pi Q = 0, sum(pi) = 1`` with the configured backend.

    ``model`` may be a chain, a raw generator or a pre-built operator;
    :func:`resolve_steady` picks the backend and coerces the operator.
    """
    from .options import as_options

    opts = as_options(options)
    backend, op = resolve_steady(model, opts)
    return backend.solve(op, opts)


def absorption_times(
    op: GeneratorOperator,
    up_index: Sequence[int],
    options: Optional["SolverOptions"] = None,
) -> np.ndarray:
    """Expected times to absorption: solve ``Q_UU tau = -1``.

    The MTTF fundamental-matrix system as a first-class backend choice:
    dense LAPACK when the operator is dense, SuperLU on the extracted
    CSR submatrix when it is sparse.
    """
    index = np.asarray(list(up_index), dtype=int)
    ones = np.ones(len(index))
    if op.representation == "sparse":
        q_uu = op.sparse()[index, :][:, index].tocsc()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sparse.linalg.MatrixRankWarning)
            tau = spsolve(q_uu, -ones)
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if not np.isfinite(tau).all():
            raise SolverError("MTTF system is singular: sparse solve failed")
    else:
        q_uu = op.dense()[np.ix_(index, index)]
        try:
            tau = np.linalg.solve(q_uu, -ones)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"MTTF system is singular: {exc}") from exc
    if (tau < -1e-9).any():
        raise SolverError("MTTF solve produced negative expected times")
    return tau
