"""Publish-time evaluation: the numbers the regression gate compares.

Every registry version carries (or lazily acquires) one evaluation
record — steady availability, yearly downtime minutes, and MTTF —
computed through the same engine path ``POST /v1/solve`` uses, so the
gate compares exactly the numbers a client would be served.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import compute_measures, translate
from ..units import nines

#: The fields an evaluation record is guaranteed to carry.
EVALUATION_FIELDS = (
    "availability",
    "yearly_downtime_minutes",
    "mttf_hours",
    "nines",
)


def evaluate_model(model, engine=None) -> Dict[str, float]:
    """The evaluation record for one parsed model.

    With an engine the solve and the measure set go through (and warm)
    its caches, so the next ``model_ref`` solve of a freshly published
    version is a cache hit; the bare :func:`repro.core.translate`
    fallback produces bit-identical numbers for default solver options,
    so CLI-side registries need no engine at all.
    """
    if engine is not None:
        measures = engine.measures(model)
    else:
        measures = compute_measures(translate(model))
    return {
        "availability": measures.availability,
        "yearly_downtime_minutes": measures.yearly_downtime_minutes,
        "mttf_hours": measures.mttf_hours,
        "nines": nines(measures.availability),
    }


def downtime_delta(
    baseline: Optional[Dict[str, float]],
    candidate: Dict[str, float],
) -> Optional[float]:
    """Candidate-minus-baseline yearly downtime, minutes per year.

    Positive means the candidate is *worse*.  ``None`` when there is
    no baseline to compare against.
    """
    if baseline is None:
        return None
    return float(candidate["yearly_downtime_minutes"]) - float(
        baseline["yearly_downtime_minutes"]
    )
