"""Periodic multi-core schedules: representation, builders, transforms."""

from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.builders import (
    from_core_timelines,
    constant_schedule,
    two_mode_schedule,
    phase_schedule,
    random_schedule,
    random_stepup_schedule,
)
from repro.schedule.transforms import (
    step_up,
    m_oscillate,
    m_oscillate_core,
    shift_core,
    shift_cores,
    merge_adjacent,
)
from repro.schedule.properties import (
    is_step_up,
    throughput,
    core_workloads,
    same_workload,
)

__all__ = [
    "PeriodicSchedule",
    "from_core_timelines",
    "constant_schedule",
    "two_mode_schedule",
    "phase_schedule",
    "random_schedule",
    "random_stepup_schedule",
    "step_up",
    "m_oscillate",
    "m_oscillate_core",
    "shift_core",
    "shift_cores",
    "merge_adjacent",
    "is_step_up",
    "throughput",
    "core_workloads",
    "same_workload",
]
