"""Schedule predicates and metrics: step-up test, throughput, workload.

Throughput follows eq. (5): the chip-wide average of per-core processing
speed over the period, with speed numerically equal to voltage (the paper
uses ``v`` and ``f`` interchangeably).
"""

from __future__ import annotations

import numpy as np

from repro.schedule.periodic import PeriodicSchedule
from repro.tolerances import PERIOD_RTOL, VOLTAGE_ATOL, WORK_ATOL

__all__ = ["is_step_up", "throughput", "core_workloads", "same_workload"]


def is_step_up(schedule: PeriodicSchedule) -> bool:
    """Definition 1: every core's voltage is non-decreasing across intervals."""
    volts = schedule.voltage_matrix
    return bool(np.all(np.diff(volts, axis=0) >= -VOLTAGE_ATOL))


def throughput(schedule: PeriodicSchedule) -> float:
    """Chip-wide throughput (eq. 5): mean speed per core over the period."""
    lengths = schedule.lengths
    total_work = float(np.sum(schedule.voltage_matrix * lengths[:, None]))
    return total_work / (schedule.n_cores * schedule.period)


def core_workloads(schedule: PeriodicSchedule) -> np.ndarray:
    """Per-core work completed in one period: ``sum_q f_{i,q} * l_q``."""
    lengths = schedule.lengths
    return np.asarray((schedule.voltage_matrix * lengths[:, None]).sum(axis=0))


def same_workload(a: PeriodicSchedule, b: PeriodicSchedule) -> bool:
    """Whether two schedules complete the same per-core work per period.

    Requires equal periods (workload comparisons across different periods
    are rate comparisons — use :func:`throughput` for those).
    """
    if a.n_cores != b.n_cores:
        return False
    if abs(a.period - b.period) > PERIOD_RTOL * max(a.period, b.period):
        return False
    return bool(
        np.allclose(
            core_workloads(a), core_workloads(b), rtol=PERIOD_RTOL, atol=WORK_ATOL
        )
    )
