"""Solver configuration shared by every layer of the stack.

Before this package existed each layer plumbed its own method strings
("direct"/"gth"/"power" for steady state, "uniformization"/"ode" for
transients) independently through the engine, the service, the job
runner and the CLI.  :class:`SolverOptions` collapses those into one
frozen, hashable value that canonicalises legacy aliases at
construction time, so two spellings of the same configuration compare
(and hash, and digest) equal everywhere: the engine cache, the service
solve queue's dedup and the job store all key on :meth:`cache_token`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Union

from ..errors import SolverError

#: Legacy steady-state method spellings accepted everywhere a backend
#: name is.  ``direct`` predates the registry and means the dense
#: direct solve; ``dense`` is accepted for symmetry with ``sparse``.
STEADY_ALIASES = {
    "direct": "dense-direct",
    "dense": "dense-direct",
    "sparse": "sparse-direct",
}

TRANSIENT_METHODS = ("uniformization", "expm", "ode", "auto")
REPRESENTATIONS = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class SolverOptions:
    """Everything the numerical layer lets a caller choose.

    Attributes:
        steady_method: Registered steady-state backend name (see
            :func:`repro.num.backend_names`); legacy aliases such as
            ``"direct"`` are canonicalised at construction.
        transient_method: ``"uniformization"``, ``"expm"``, ``"ode"``
            or ``"auto"``.  Nothing reads it yet: it only keys the
            cache (:meth:`cache_token`), and every transient measure
            uses uniformization whatever it says.
        representation: Generator storage — ``"auto"`` picks dense or
            sparse CSR from the state count and fill-in, ``"dense"`` /
            ``"sparse"`` force one.
        tolerance: Convergence tolerance for iterative steady-state
            backends (power iteration, GMRES).
        uniformization_tol: Truncation tolerance for the Poisson series
            in uniformization-based transient/interval measures.
    """

    steady_method: str = "dense-direct"
    transient_method: str = "uniformization"
    representation: str = "auto"
    tolerance: float = 1e-12
    uniformization_tol: float = 1e-12

    def __post_init__(self) -> None:
        steady = STEADY_ALIASES.get(self.steady_method, self.steady_method)
        object.__setattr__(self, "steady_method", steady)
        from .backends import require_backend_name

        require_backend_name(steady)
        if self.transient_method not in TRANSIENT_METHODS:
            raise SolverError(
                f"unknown transient method {self.transient_method!r}; "
                f"expected one of {sorted(TRANSIENT_METHODS)}"
            )
        if self.representation not in REPRESENTATIONS:
            raise SolverError(
                f"unknown representation {self.representation!r}; "
                f"expected one of {sorted(REPRESENTATIONS)}"
            )
        for name in ("tolerance", "uniformization_tol"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0 < float(value) <= 1:
                raise SolverError(
                    f"{name} must be a number in (0, 1], got {value!r}"
                )
            object.__setattr__(self, name, float(value))

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def with_changes(self, **changes: Any) -> "SolverOptions":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready mapping; round-trips through :meth:`from_dict`."""
        return {
            "steady_method": self.steady_method,
            "transient_method": self.transient_method,
            "representation": self.representation,
            "tolerance": self.tolerance,
            "uniformization_tol": self.uniformization_tol,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolverOptions":
        """Build options from a mapping, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise SolverError(
                f"solver options must be a mapping, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SolverError(
                f"unknown solver option(s) {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = {}
        for key in known & set(payload):
            value = payload[key]
            if key in ("steady_method", "transient_method", "representation"):
                if not isinstance(value, str):
                    raise SolverError(
                        f"solver option {key!r} must be a string, got {value!r}"
                    )
            kwargs[key] = value
        return cls(**kwargs)

    def cache_token(self) -> str:
        """Canonical string identifying these options in cache keys.

        Two option values with the same token solve identically; the
        engine digests this token into ``block_digest``/``model_digest``
        so distinct backends can never alias each other's cached
        results.  The default options deliberately canonicalise to the
        token of the pre-registry ``"direct"`` method.
        """
        return (
            f"steady={self.steady_method}"
            f";transient={self.transient_method}"
            f";repr={self.representation}"
            f";tol={self.tolerance!r}"
            f";utol={self.uniformization_tol!r}"
        )


#: The configuration every layer falls back to: the dense direct solve
#: that reproduces the paper's numbers bit-for-bit.
DEFAULT_OPTIONS = SolverOptions()


def as_options(
    value: Union[None, str, Mapping[str, Any], SolverOptions],
) -> SolverOptions:
    """Coerce any accepted spelling into canonical :class:`SolverOptions`.

    Accepts ``None`` (defaults), a legacy method string such as
    ``"direct"`` or ``"gth"``, a mapping of option fields, or an
    existing options value (returned unchanged).
    """
    if value is None:
        return DEFAULT_OPTIONS
    if isinstance(value, SolverOptions):
        return value
    if isinstance(value, str):
        return SolverOptions(steady_method=value)
    if isinstance(value, Mapping):
        return SolverOptions.from_dict(value)
    raise SolverError(
        "solver options must be a method name, a mapping or SolverOptions; "
        f"got {type(value).__name__}"
    )
