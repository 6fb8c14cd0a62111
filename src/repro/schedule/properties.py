"""Schedule predicates and metrics: step-up test, throughput, workload.

Throughput follows eq. (5): the chip-wide average of per-core processing
speed over the period, with speed numerically equal to voltage (the paper
uses ``v`` and ``f`` interchangeably).  A custom ``speed_of`` mapping can
be supplied for platforms where frequency is not proportional to voltage.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.schedule.periodic import PeriodicSchedule
from repro.tolerances import PERIOD_RTOL, VOLTAGE_ATOL, WORK_ATOL

__all__ = ["is_step_up", "throughput", "core_workloads", "same_workload"]


def is_step_up(schedule: PeriodicSchedule, atol: float = VOLTAGE_ATOL) -> bool:
    """Definition 1: every core's voltage is non-decreasing across intervals."""
    volts = schedule.voltage_matrix
    return bool(np.all(np.diff(volts, axis=0) >= -atol))


def _speeds(schedule: PeriodicSchedule, speed_of: Callable | None) -> np.ndarray:
    volts = schedule.voltage_matrix
    if speed_of is None:
        return volts
    return np.vectorize(speed_of, otypes=[float])(volts)


def throughput(
    schedule: PeriodicSchedule,
    speed_of: Callable[[float], float] | None = None,
) -> float:
    """Chip-wide throughput (eq. 5): mean speed per core over the period."""
    speeds = _speeds(schedule, speed_of)
    lengths = schedule.lengths
    total_work = float(np.sum(speeds * lengths[:, None]))
    return total_work / (schedule.n_cores * schedule.period)


def core_workloads(
    schedule: PeriodicSchedule,
    speed_of: Callable[[float], float] | None = None,
) -> np.ndarray:
    """Per-core work completed in one period: ``sum_q f_{i,q} * l_q``."""
    speeds = _speeds(schedule, speed_of)
    lengths = schedule.lengths
    return np.asarray((speeds * lengths[:, None]).sum(axis=0))


def same_workload(
    a: PeriodicSchedule,
    b: PeriodicSchedule,
    rtol: float = PERIOD_RTOL,
) -> bool:
    """Whether two schedules complete the same per-core work per period.

    Requires equal periods (workload comparisons across different periods
    are rate comparisons — use :func:`throughput` for those).
    """
    if a.n_cores != b.n_cores:
        return False
    if abs(a.period - b.period) > rtol * max(a.period, b.period):
        return False
    return bool(
        np.allclose(core_workloads(a), core_workloads(b), rtol=rtol, atol=WORK_ATOL)
    )
