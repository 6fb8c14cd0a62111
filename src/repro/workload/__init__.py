"""Real-time workload layer: partitioning, EDF and thermal checks.

The tasks themselves are :class:`repro.realtime.RTTask` /
:class:`repro.realtime.TaskSet`.
"""

from repro.workload.mapping import (
    Mapping,
    first_fit_decreasing,
    worst_fit_decreasing,
    thermal_aware_mapping,
)
from repro.workload.scheduler import WorkloadResult, schedule_taskset
from repro.workload.edf import EDFReport, simulate_edf, supply_in_window

__all__ = [
    "Mapping",
    "first_fit_decreasing",
    "worst_fit_decreasing",
    "thermal_aware_mapping",
    "WorkloadResult",
    "schedule_taskset",
    "EDFReport",
    "simulate_edf",
    "supply_in_window",
]
