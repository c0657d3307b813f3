"""Canonical content hashing for models, parameters and chains.

The evaluation engine keys its caches by a *content digest*: a SHA-256
over a canonical JSON encoding of the object.  Canonical means

* mapping keys are emitted sorted, so the digest is independent of the
  order an engineering spec happens to list its fields in;
* every field is included with its actual value (defaults too), so a
  spec that spells a default out and one that omits it digest equal —
  exactly the invariance :func:`repro.spec.writer.model_to_spec`
  round-trips rely on;
* floats are encoded via ``repr``, which is exact for IEEE doubles, so
  two parameters digest equal iff they solve bit-identically;
* pure annotations (``description``, ``part_number``) are excluded —
  they never reach the chain generator, so structurally identical
  blocks share one key regardless of labeling.

Digests are stable within a repository revision; they are *not*
promised stable across releases (the disk cache embeds a format
version for that reason).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Optional, Tuple, Union

from ..ident import content_digest, digest_int64

from ..core.block import DiagramBlockModel, MGBlock, MGDiagram
from ..core.parameters import BlockParameters, GlobalParameters, Scenario
from ..errors import EngineError
from ..markov.chain import MarkovChain
from ..num import SolverOptions, as_options

#: Annotation-only BlockParameters fields that never affect a solve.
_ANNOTATION_FIELDS = frozenset({"description", "part_number"})


def _scalar(value: object) -> object:
    """A JSON-safe, canonical encoding of one field value."""
    if isinstance(value, Scenario):
        return value.value
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        # repr() round-trips doubles exactly; format via it so 1.0 and
        # 1 digest differently from each other but identically to
        # themselves across runs.
        return f"f:{value!r}"
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    raise EngineError(
        f"cannot canonicalize field value of type {type(value).__name__}"
    )


def _dataclass_payload(instance: object, skip: frozenset = frozenset()):
    return {
        f.name: _scalar(getattr(instance, f.name))
        for f in fields(instance)
        if f.name not in skip
    }


def _parameters_payload(obj: object) -> Dict[str, object]:
    if isinstance(obj, BlockParameters):
        return {
            "kind": "block_parameters",
            "fields": _dataclass_payload(obj, _ANNOTATION_FIELDS),
        }
    return {
        "kind": "global_parameters",
        "fields": _dataclass_payload(obj),
    }


def _digest(payload: Dict[str, object], context: List[object]) -> str:
    return content_digest({"payload": payload, "context": context})


def method_token(method: Union[str, SolverOptions]) -> str:
    """The canonical solver-options token digested into cache keys.

    Legacy method strings and full :class:`~repro.num.SolverOptions`
    values canonicalise to the same token space, so ``"direct"`` and
    ``SolverOptions()`` share cached results while distinct backends
    (or tolerances) can never alias each other.
    """
    return as_options(method).cache_token()


class DigestMemo:
    """Canonical payloads and cache keys, memoized for one batch.

    This is the one implementation behind :func:`canonical_payload`,
    :func:`block_digest` and :func:`model_digest`, which each use a
    throwaway memo.  The engine gives every solve, and every sweep,
    uncertainty draw or study round, a memo of its own: points rebuild
    the model but share every unchanged block's parameter objects, so
    each of those is canonicalised once per batch and an unchanged
    block's key is computed once.

    Entries are keyed by ``id()``, never by equality: dataclass
    equality holds for ``0.0`` and ``-0.0`` and for ``1``, ``1.0`` and
    ``True``, which canonicalise to different bytes.  Each entry keeps
    its objects alive, so no other object can take their ids while the
    memo lives.  A memo lives only as long as its batch and serves one
    thread; a long-lived one would keep every request's parameters
    alive.
    """

    def __init__(self) -> None:
        self._parameters: Dict[int, Tuple[object, Dict[str, object]]] = {}
        self._blocks: Dict[Tuple[int, int, int], Tuple[object, ...]] = {}

    def payload(self, obj: object) -> Dict[str, object]:
        """The canonical nested structure ``obj`` digests from."""
        if isinstance(obj, (BlockParameters, GlobalParameters)):
            entry = self._parameters.get(id(obj))
            if entry is None:
                entry = (obj, _parameters_payload(obj))
                self._parameters[id(obj)] = entry
            return entry[1]
        if isinstance(obj, MGBlock):
            payload: Dict[str, object] = {
                "kind": "block",
                "parameters": self.payload(obj.parameters),
            }
            if obj.subdiagram is not None:
                payload["subdiagram"] = self.payload(obj.subdiagram)
            return payload
        if isinstance(obj, MGDiagram):
            return {
                "kind": "diagram",
                "name": obj.name,
                "blocks": [self.payload(block) for block in obj],
            }
        if isinstance(obj, DiagramBlockModel):
            return {
                "kind": "model",
                "name": obj.name,
                "globals": self.payload(obj.global_parameters),
                "root": self.payload(obj.root),
            }
        if isinstance(obj, MarkovChain):
            return {
                "kind": "chain",
                "name": obj.name,
                "states": [
                    {
                        "name": state.name,
                        "reward": _scalar(float(state.reward)),
                    }
                    for state in obj
                ],
                "transitions": sorted(
                    [t.source, t.target, _scalar(float(t.rate))]
                    for t in obj.transitions()
                ),
            }
        raise EngineError(
            f"cannot canonicalize object of type {type(obj).__name__}"
        )

    def block(
        self,
        effective: BlockParameters,
        global_parameters: GlobalParameters,
        method: Union[str, SolverOptions] = "direct",
    ) -> str:
        """Cache key for one block-chain solve.

        Two calls share a key exactly when :func:`repro.core.translator.
        solve_block_chain` would return bit-identical results for them.
        """
        key = (id(effective), id(global_parameters), id(method))
        entry = self._blocks.get(key)
        if entry is None:
            digest = _digest(
                self.payload(effective),
                [self.payload(global_parameters), method_token(method)],
            )
            entry = (effective, global_parameters, method, digest)
            self._blocks[key] = entry
        return entry[3]

    def model(
        self,
        model: DiagramBlockModel,
        method: Union[str, SolverOptions] = "direct",
    ) -> str:
        """Cache key for a whole-model solve (``translate``)."""
        return _digest(self.payload(model), [method_token(method)])


def canonical_payload(obj: object) -> Dict[str, object]:
    """The canonical nested structure an object digests from.

    Exposed for tests and debugging; most callers want the digest
    helpers below.
    """
    return DigestMemo().payload(obj)


def block_digest(
    effective: BlockParameters,
    global_parameters: GlobalParameters,
    method: Union[str, SolverOptions] = "direct",
) -> str:
    """Cache key for one block-chain solve.

    The same key :meth:`DigestMemo.block` gives, from a throwaway memo.
    """
    return DigestMemo().block(effective, global_parameters, method)


def model_digest(
    model: DiagramBlockModel, method: Union[str, SolverOptions] = "direct"
) -> str:
    """Cache key for a whole-model solve (``translate``).

    The same key :meth:`DigestMemo.model` gives, from a throwaway memo.
    """
    return DigestMemo().model(model, method)


def chain_digest(
    chain: MarkovChain, method: Union[str, SolverOptions] = "direct"
) -> str:
    """Cache key for a raw CTMC steady-state solve (GMB/library chains)."""
    return _digest(canonical_payload(chain), [method_token(method)])


def task_seed(base_seed: Optional[int], index: int) -> Optional[int]:
    """Deterministic per-task seed derived from a base seed.

    The derivation hashes ``(base, index)`` so neighbouring tasks get
    statistically independent streams and the assignment is identical
    no matter how tasks are distributed over workers — the property
    that makes serial and parallel runs produce the same numbers.
    ``None`` stays ``None`` (explicitly unseeded runs stay unseeded).
    """
    if base_seed is None:
        return None
    return digest_int64(f"rascad-task:{int(base_seed)}:{int(index)}")
