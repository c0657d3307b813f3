"""Generator matrices as operators, dense or sparse.

A :class:`GeneratorOperator` wraps the infinitesimal generator of a
CTMC in either dense ``ndarray`` or ``scipy.sparse`` CSR form and is
the only thing solver code ever touches.  It is built directly from a
:class:`~repro.markov.chain.MarkovChain`'s arc arrays — the sparse
path never materialises the ``n x n`` matrix — and the representation
is auto-selected from the state count and fill-in unless the caller
forces one.  The row-sum / off-diagonal validation that used to be
copy-pasted (or privately imported) across ``markov/steady_state.py``,
``markov/transient.py`` and ``markov/mttf.py`` lives here, once, in
:func:`validate_generator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np
from scipy import sparse

from ..errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..markov.chain import MarkovChain

#: Auto-selection thresholds: sparse storage is chosen when the chain
#: has at least this many states *and* the generator is at most this
#: dense.  The same floor sends the default ``dense-direct`` solve on
#: auto storage to ``sparse-direct`` (see
#: :func:`repro.num.steady_backend_for`): OpenBLAS factorises on several
#: threads once ``m * n`` reaches 10 000, and a threaded factorisation's
#: bits depend on the thread count.  Below the floor, dense LAPACK runs
#: on one thread and wins regardless of fill.
SPARSE_STATE_FLOOR = 100
SPARSE_DENSITY_CEILING = 0.25


def validate_generator(matrix: Union[np.ndarray, sparse.spmatrix]) -> None:
    """The one shared CTMC generator check (rows sum to zero, rates >= 0).

    Raises :class:`~repro.errors.SolverError` with the same messages the
    pre-refactor per-module copies produced, for dense and sparse inputs
    alike.
    """
    if sparse.issparse(matrix):
        # Straight off the CSR arrays: one row id per stored entry.
        csr = matrix.tocsr()
        n = csr.shape[0]
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        if (csr.data[csr.indices != rows] < -1e-15).any():
            raise SolverError("generator has negative off-diagonal rates")
        row_sums = np.abs(np.bincount(rows, csr.data, minlength=n))
        scale = max(1.0, float(np.abs(csr.data).max()) if csr.nnz else 0.0)
        if (row_sums > 1e-8 * scale).any():
            raise SolverError("generator rows do not sum to zero")
        if n == 0:
            raise SolverError("empty generator")
        return
    q = np.asarray(matrix, dtype=float)
    n = q.shape[0]
    off_diag = q - np.diag(np.diag(q))
    if (off_diag < -1e-15).any():
        raise SolverError("generator has negative off-diagonal rates")
    row_sums = np.abs(q.sum(axis=1))
    scale = max(1.0, float(np.abs(q).max()) if q.size else 0.0)
    if (row_sums > 1e-8 * scale).any():
        raise SolverError("generator rows do not sum to zero")
    if n == 0:
        raise SolverError("empty generator")


def _auto_representation(n: int, nnz: int) -> str:
    if n >= SPARSE_STATE_FLOOR and nnz <= SPARSE_DENSITY_CEILING * n * n:
        return "sparse"
    return "dense"


class GeneratorOperator:
    """A CTMC generator usable as a linear operator, dense or CSR.

    Construct via :meth:`from_chain` / :meth:`from_matrix` /
    :func:`as_operator`; the class itself never densifies a sparse
    generator unless a dense-only backend asks it to (and then caches
    the result).
    """

    __slots__ = ("representation", "_dense", "_sparse", "_csc_t", "_diagonal")

    def __init__(
        self,
        matrix: Union[np.ndarray, sparse.spmatrix],
        representation: Optional[str] = None,
    ) -> None:
        self._dense: Optional[np.ndarray] = None
        self._sparse = None
        self._csc_t = None
        self._diagonal: Optional[np.ndarray] = None
        if sparse.issparse(matrix):
            self._sparse = matrix.tocsr()
            self.representation = representation or "sparse"
        else:
            self._dense = np.asarray(matrix, dtype=float)
            self.representation = representation or "dense"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_chain(
        cls,
        chain: "MarkovChain",
        representation: str = "auto",
        validate: bool = True,
    ) -> "GeneratorOperator":
        """Build the generator straight from a chain's arcs.

        The sparse path assembles CSR from :meth:`MarkovChain.arcs` without
        ever allocating the dense matrix; the dense path defers to
        ``chain.generator_matrix()`` so dense numerics stay bit-identical
        with the pre-refactor code.
        """
        n = chain.n_states
        if representation not in ("auto", "dense", "sparse"):
            raise SolverError(
                f"unknown representation {representation!r}; "
                "expected one of ['auto', 'dense', 'sparse']"
            )
        if representation == "auto":
            representation = _auto_representation(n, chain.n_transitions + n)
        if representation == "dense":
            operator = cls(chain.generator_matrix())
        else:
            view = chain.arcs()
            # Each exit rate adds its row's arcs one at a time in column
            # order (``np.add.at`` is unbuffered), which fixes its bits.
            exit_rates = np.zeros(n)
            np.add.at(exit_rates, view.sources, view.rates)
            # Arcs are sorted by (row, column), so each diagonal entry
            # goes in before the first arc of its row past the diagonal.
            positions = np.arange(n)
            diagonal_at = np.searchsorted(
                view.sources * n + view.targets, positions * (n + 1)
            )
            matrix = sparse.csr_matrix(
                (
                    np.insert(view.rates, diagonal_at, -exit_rates),
                    np.insert(view.targets, diagonal_at, positions),
                    np.searchsorted(view.sources, np.arange(n + 1))
                    + np.arange(n + 1),
                ),
                shape=(n, n),
            )
            operator = cls(matrix)
        if validate:
            operator.validate()
        return operator

    @classmethod
    def from_matrix(
        cls,
        matrix: Union[np.ndarray, sparse.spmatrix],
        representation: str = "auto",
        validate: bool = True,
    ) -> "GeneratorOperator":
        """Wrap an existing dense or sparse square generator."""
        if sparse.issparse(matrix):
            csr = matrix.tocsr()
            if csr.shape[0] != csr.shape[1]:
                raise SolverError(
                    f"generator must be square, got shape {csr.shape}"
                )
            operator = cls(csr)
        else:
            q = np.asarray(matrix, dtype=float)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise SolverError(
                    f"generator must be square, got shape {q.shape}"
                )
            operator = cls(q)
        if representation not in ("auto", "dense", "sparse"):
            raise SolverError(
                f"unknown representation {representation!r}; "
                "expected one of ['auto', 'dense', 'sparse']"
            )
        if representation != "auto" and representation != operator.representation:
            operator = operator.with_representation(representation)
        if validate:
            operator.validate()
        return operator

    def with_representation(self, representation: str) -> "GeneratorOperator":
        """This generator converted to the requested storage."""
        if representation == self.representation:
            return self
        if representation == "dense":
            return GeneratorOperator(self.dense())
        if representation == "sparse":
            return GeneratorOperator(self.sparse())
        raise SolverError(
            f"unknown representation {representation!r}; "
            "expected one of ['dense', 'sparse']"
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of states."""
        if self._sparse is not None and self.representation == "sparse":
            return int(self._sparse.shape[0])
        return int(self.dense().shape[0])

    @property
    def nnz(self) -> int:
        """Structurally non-zero entries of the stored generator."""
        if self.representation == "sparse":
            return int(self.sparse().nnz)
        return int(np.count_nonzero(self.dense()))

    def validate(self) -> None:
        """Run :func:`validate_generator` on the stored matrix."""
        matrix = self._sparse if self.representation == "sparse" else self._dense
        if matrix is None:  # pragma: no cover - construction invariant
            matrix = self.dense()
        validate_generator(matrix)

    def dense(self) -> np.ndarray:
        """The dense generator (cached; treat as read-only)."""
        if self._dense is None:
            self._dense = np.asarray(self._sparse.toarray(), dtype=float)
        return self._dense

    def sparse(self) -> sparse.csr_matrix:
        """The CSR generator (cached; treat as read-only)."""
        if self._sparse is None:
            self._sparse = sparse.csr_matrix(self._dense)
        return self._sparse

    def diagonal(self) -> np.ndarray:
        """The generator diagonal (total exit rates, negated)."""
        if self._diagonal is None:
            if self.representation == "sparse":
                self._diagonal = np.asarray(self.sparse().diagonal(), dtype=float)
            else:
                self._diagonal = self.dense().diagonal().copy()
        return self._diagonal

    def uniformization_rate(self) -> float:
        """``-min(diag Q)`` — the raw uniformization rate Lambda."""
        if self.n == 0:
            raise SolverError("empty generator")
        return float(-self.diagonal().min())

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Row-vector product ``v @ Q`` without densifying."""
        if self.representation == "sparse":
            if self._csc_t is None:
                self._csc_t = self.sparse().transpose().tocsr()
            return self._csc_t @ v
        return v @ self.dense()


def as_operator(
    model: Union["MarkovChain", GeneratorOperator, np.ndarray, sparse.spmatrix],
    representation: str = "auto",
    validate: bool = True,
) -> GeneratorOperator:
    """Coerce a chain, matrix or operator into a :class:`GeneratorOperator`.

    This replaces the per-module ``_as_generator`` helpers: it is the one
    place generators are constructed and (by default) validated.
    """
    from ..markov.chain import MarkovChain

    if isinstance(model, GeneratorOperator):
        if representation != "auto" and representation != model.representation:
            return model.with_representation(representation)
        return model
    if isinstance(model, MarkovChain):
        return GeneratorOperator.from_chain(
            model, representation=representation, validate=validate
        )
    return GeneratorOperator.from_matrix(
        model, representation=representation, validate=validate
    )
