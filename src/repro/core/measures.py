"""System-level RAS measures (Section 4's output list).

RAScad reports steady-state availability / failure / recovery rates,
interval availability over ``(0, T)``, and for the reliability model:
MTTF, reliability at ``T``, interval failure rate, and hazard rate.
This module computes all of them from a solved hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..units import MINUTES_PER_YEAR, availability_to_yearly_downtime_minutes
from .translator import SystemSolution

#: Default Simpson-rule resolution of the interval integrals.
DEFAULT_GRID_POINTS = 65


@dataclass(frozen=True)
class SystemMeasures:
    """The full measure set for one solved model.

    Attributes:
        availability: Steady-state availability.
        yearly_downtime_minutes: Expected downtime minutes per year.
        failure_frequency: Steady-state system failures per hour.
        failures_per_year: The same, per year.
        mean_time_between_interruptions: 1 / failure frequency (hours).
        mean_downtime_hours: Expected downtime per interruption (hours).
        mission_time_hours: The T the interval measures refer to.
        interval_availability: Expected up fraction of (0, T).
        reliability_at_mission: P(no system failure by T).
        mttf_hours: Mean time to first system failure.
        interval_failure_rate: Exponential-equivalent rate over (0, T).
    """

    availability: float
    yearly_downtime_minutes: float
    failure_frequency: float
    failures_per_year: float
    mean_time_between_interruptions: float
    mean_downtime_hours: float
    mission_time_hours: float
    interval_availability: float
    reliability_at_mission: float
    mttf_hours: float
    interval_failure_rate: float


def compute_measures(
    solution: SystemSolution,
    mission_time_hours: Optional[float] = None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> SystemMeasures:
    """Evaluate the paper's measure list for a solved model.

    Args:
        solution: Output of :func:`repro.core.translate`.
        mission_time_hours: Interval horizon T; defaults to the model's
            global Mission Time parameter.
        grid_points: Simpson-rule resolution for the interval integrals
            (must be odd; even values are bumped by one).
    """
    mission = (
        mission_time_hours
        if mission_time_hours is not None
        else solution.model.global_parameters.mission_time_hours
    )
    if not (math.isfinite(mission) and mission > 0):
        raise SolverError(
            f"mission time must be positive and finite, got {mission}"
        )

    availability = solution.availability
    frequency = solution.failure_frequency
    downtime_fraction = max(0.0, 1.0 - availability)
    mean_downtime = (
        downtime_fraction / frequency if frequency > 0 else 0.0
    )

    interval = _interval_availability(solution, mission, grid_points)
    reliability = solution.reliability(mission)
    mttf = system_mttf(solution)
    if reliability <= 0.0:
        interval_rate = float("inf")
    else:
        interval_rate = -math.log(reliability) / mission

    return SystemMeasures(
        availability=availability,
        yearly_downtime_minutes=availability_to_yearly_downtime_minutes(
            availability
        ),
        failure_frequency=frequency,
        failures_per_year=frequency * MINUTES_PER_YEAR / 60.0,
        mean_time_between_interruptions=(
            1.0 / frequency if frequency > 0 else float("inf")
        ),
        mean_downtime_hours=mean_downtime,
        mission_time_hours=mission,
        interval_availability=interval,
        reliability_at_mission=reliability,
        mttf_hours=mttf,
        interval_failure_rate=interval_rate,
    )


def _interval_availability(
    solution: SystemSolution, horizon: float, grid_points: int
) -> float:
    """Simpson integration of the system point availability.

    For independent blocks the expected product equals the product of
    expectations at each instant, so the system point availability is
    the product of block point availabilities, integrated over (0, T).
    """
    if grid_points % 2 == 0:
        grid_points += 1
    if grid_points < 3:
        grid_points = 3
    times = np.linspace(0.0, horizon, grid_points)
    # One grid call per block: sparse chains share a single
    # uniformization power sequence across the whole grid instead of
    # re-running the transient solve per time point.
    values = np.array(solution.point_availability_grid(times))
    from scipy.integrate import simpson

    integral = float(simpson(values, x=times))
    return min(max(integral / horizon, 0.0), 1.0)


def system_mttf(
    solution: SystemSolution,
    tolerance: float = 1e-6,
    max_doublings: int = 60,
) -> float:
    """Mean time to first system failure: ``integral of R_sys(t) dt``.

    ``R_sys`` is the product of block reliabilities.  Integrated on
    doubling intervals with Simpson's rule until the running tail
    contribution falls below ``tolerance`` of the accumulated value.
    """
    if solution.failure_frequency == 0.0:
        # Nothing in the model can take the system down.
        return float("inf")
    # Initial scale: the inverse of the system failure frequency is a
    # good guess for where R starts to roll off.
    scale = 1.0 / solution.failure_frequency
    total = 0.0
    left = 0.0
    width = scale / 8.0
    from scipy.integrate import simpson

    for _round in range(max_doublings):
        times = np.linspace(left, left + width, 17)
        values = np.array(solution.reliability_grid(times))
        segment = float(simpson(values, x=times))
        total += segment
        left += width
        if values[-1] < 1e-9:
            break
        if segment < tolerance * max(total, 1e-300) and values[-1] < 0.5:
            break
        width *= 2.0
    else:
        raise SolverError(
            "system MTTF integration did not converge; the system may be "
            "effectively unfailable at this horizon"
        )
    return total
