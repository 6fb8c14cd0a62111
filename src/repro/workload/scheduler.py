"""Thermally-qualified workload scheduling: tasks -> mapping -> DVFS schedule.

Glues the workload layer to the paper's machinery: partition the task set,
derive each core's required average speed, build the peak-minimizing
m-oscillating schedule for those speeds (:mod:`repro.algorithms.minpeak`),
and report whether the platform's temperature limit holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.algorithms.minpeak import MinPeakResult, minimize_peak
from repro.errors import SolverError
from repro.platform import Platform
from repro.tolerances import FEASIBILITY_SLACK, VOLTAGE_ATOL
from repro.workload.mapping import Mapping, thermal_aware_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.realtime imports repro.sim)
    from repro.realtime.tasks import TaskSet

__all__ = ["WorkloadResult", "schedule_taskset"]


@dataclass(frozen=True)
class WorkloadResult:
    """A thermally-qualified workload schedule.

    Attributes
    ----------
    mapping:
        The task-to-core partition used.
    minpeak:
        The peak-minimizing DVFS schedule realizing the per-core speeds.
    thermally_feasible:
        Whether the schedule's stable peak respects the platform's T_max.
    slack_theta:
        ``theta_max - peak`` in K (negative when infeasible).
    """

    mapping: Mapping
    minpeak: MinPeakResult
    thermally_feasible: bool
    slack_theta: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        state = "OK" if self.thermally_feasible else "VIOLATION"
        return (
            f"workload: {len(self.mapping.taskset)} tasks on "
            f"{self.mapping.n_cores} cores, peak "
            f"{self.minpeak.peak.value:.2f} K above ambient, "
            f"slack {self.slack_theta:+.2f} K [{state}]"
        )


def schedule_taskset(
    platform: Platform,
    taskset: TaskSet,
    mapper=thermal_aware_mapping,
    period: float = 0.02,
    m_cap: int = 128,
) -> WorkloadResult:
    """Partition, speed-assign and thermally qualify a periodic task set.

    Parameters
    ----------
    platform:
        Target platform (its ``t_max_c`` defines feasibility).
    taskset:
        The periodic tasks to place.
    mapper:
        Partitioning heuristic (default: thermal-aware worst-fit).
    period, m_cap:
        Oscillation parameters forwarded to
        :func:`repro.algorithms.minpeak.minimize_peak`.

    Raises
    ------
    SolverError
        If the task set cannot be partitioned (capacity) or a core's
        required speed falls outside the platform's range.
    """
    mapping = mapper(taskset, platform)
    speeds = mapping.required_speeds()

    # A busy core cannot run slower than the lowest mode: round tiny demands
    # up to v_min (EDF idles through the slack).
    v_min = platform.ladder.v_min
    speeds = np.where((speeds > 0) & (speeds < v_min), v_min, speeds)
    if np.any(speeds > platform.ladder.v_max + VOLTAGE_ATOL):
        raise SolverError(
            f"required speeds {np.round(speeds, 3)} exceed the platform "
            f"maximum {platform.ladder.v_max}"
        )

    minpeak = minimize_peak(platform, speeds, period=period, m_cap=m_cap)
    slack = platform.theta_max - minpeak.peak.value
    return WorkloadResult(
        mapping=mapping,
        minpeak=minpeak,
        thermally_feasible=bool(slack >= -FEASIBILITY_SLACK),
        slack_theta=float(slack),
    )
