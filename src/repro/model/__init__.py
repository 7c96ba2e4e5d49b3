"""Problem model: jobs, power functions, atomic intervals, schedules."""

from .intervals import Grid, grid_for_instance
from .job import Instance, Job
from .power import (
    PolynomialPower,
    PowerFunction,
    energy_at_constant_speed,
    optimal_constant_speed_energy,
)
from .schedule import CostBreakdown, Schedule
from .validation import (
    check_no_job_self_overlap,
    check_no_processor_overlap,
    check_segment_work,
    validate_segments,
)

__all__ = [
    "Job",
    "Instance",
    "PowerFunction",
    "PolynomialPower",
    "energy_at_constant_speed",
    "optimal_constant_speed_energy",
    "Grid",
    "grid_for_instance",
    "Schedule",
    "CostBreakdown",
    "validate_segments",
    "check_no_processor_overlap",
    "check_no_job_self_overlap",
    "check_segment_work",
]
