"""EDF simulation under a time-varying (oscillating) speed profile.

The workload layer sizes each core's *average* speed to its assigned
utilization, but an oscillating core does not supply that speed uniformly:
a job whose deadline falls inside a low-voltage stretch sees less service
than the average promises.  The classical sufficient condition is
supply-bound: EDF meets all deadlines iff the work supplied in every
window of length ``D`` covers the demand of deadlines within ``D``.  With
m-oscillation the cycle is pushed far below task periods, so in practice
the fluid approximation holds — this module lets you *check* instead of
assume.

:func:`simulate_edf` runs an event-driven preemptive-EDF simulation of one
core executing its assigned tasks on top of a
:class:`~repro.schedule.periodic.PeriodicSchedule`'s speed profile and
reports deadline misses.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.schedule.periodic import PeriodicSchedule
from repro.tolerances import (
    BOUNDARY_RTOL,
    JOB_WORK_ATOL,
    LATENESS_ATOL,
    MIN_INTERVAL,
    RELEASE_SNAP,
    RESIDUAL_WORK,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.realtime imports repro.sim)
    from repro.realtime.tasks import RTTask

__all__ = ["EDFReport", "default_horizon", "simulate_edf", "supply_in_window"]


@dataclass(frozen=True)
class EDFReport:
    """Outcome of an EDF simulation on one core.

    Attributes
    ----------
    horizon_s:
        Simulated time span.
    jobs_released, jobs_completed:
        Job counts over the horizon.
    deadline_misses:
        ``(task_name, release_time, deadline)`` of every missed deadline.
    max_lateness_s:
        Worst completion lateness observed (0 when all deadlines met).
    idle_windows:
        ``(start, end)`` stretches with no pending work — the core could
        power-gate there (race-to-idle); consumed by the co-simulator.
    """

    horizon_s: float
    jobs_released: int
    jobs_completed: int
    deadline_misses: tuple[tuple[str, float, float], ...]
    max_lateness_s: float
    idle_windows: tuple[tuple[float, float], ...] = ()

    @property
    def all_deadlines_met(self) -> bool:
        """True when no job missed its deadline."""
        return len(self.deadline_misses) == 0


def supply_in_window(
    schedule: PeriodicSchedule,
    core: int,
    start: float,
    length: float,
) -> float:
    """Work (speed x time) core ``core`` supplies over ``[start, start+length)``.

    Closed form: with ``F(t)`` the cumulative supply from 0 to ``t``
    (full periods plus an interpolated partial period), the window supply
    is ``F(start + length) - F(start)`` — no time-stepping, no
    floating-point boundary hazards.
    """
    if length < 0:
        raise ConfigurationError(f"window length must be >= 0, got {length}")
    period = schedule.period
    bounds = schedule.boundaries
    volts = schedule.voltage_matrix[:, core]
    lengths = schedule.lengths
    cum = np.concatenate([[0.0], np.cumsum(volts * lengths)])
    per_period = float(cum[-1])

    def cumulative(t: float) -> float:
        q, local = schedule.interval_at(t)
        partial = cum[q] + volts[q] * (local - bounds[q])
        return (t // period) * per_period + partial

    return cumulative(start + length) - cumulative(start)


def default_horizon(schedule: PeriodicSchedule, tasks: Sequence[RTTask]) -> float:
    """Default EDF span: 4x the longest task period, at least 20 schedule periods."""
    longest = max((t.period_s for t in tasks), default=0.0)
    return max(4.0 * longest, 20.0 * schedule.period)


@dataclass(order=True)
class _Job:
    deadline: float
    seq: int
    name: str = field(compare=False)
    release: float = field(compare=False)
    remaining_work: float = field(compare=False)


def simulate_edf(
    schedule: PeriodicSchedule,
    core: int,
    tasks: Sequence[RTTask],
    horizon_s: float | None = None,
) -> EDFReport:
    """Simulate preemptive EDF on one core with the schedule's speed profile.

    Parameters
    ----------
    schedule:
        The periodic DVFS schedule; core ``core``'s voltage is its speed.
    tasks:
        The tasks assigned to this core (releases aligned at t = 0).
    horizon_s:
        Simulated span (default: :func:`default_horizon`).
    """
    if not (0 <= core < schedule.n_cores):
        raise ConfigurationError(f"core {core} out of range")
    if not tasks:
        return EDFReport(
            horizon_s=0.0, jobs_released=0, jobs_completed=0,
            deadline_misses=(), max_lateness_s=0.0, idle_windows=(),
        )
    if horizon_s is None:
        horizon_s = default_horizon(schedule, tasks)

    seq = itertools.count()
    releases: list[tuple[float, RTTask]] = []
    for task in tasks:
        # Index-based release times avoid cumulative float drift.
        n_jobs = int(np.ceil(horizon_s / task.period_s - RELEASE_SNAP))
        for i in range(n_jobs):
            releases.append((i * task.period_s, task))
    releases.sort(key=lambda item: item[0])

    ready: list[_Job] = []
    misses: list[tuple[str, float, float]] = []
    idle_windows: list[tuple[float, float]] = []
    max_lateness = 0.0
    completed = 0
    now = 0.0
    k = 0  # next release index
    period = schedule.period
    bounds = schedule.boundaries
    volts_of = schedule.voltage_matrix[:, core]

    def current_segment(t: float) -> tuple[float, float]:
        """(speed, time until the segment ends) at absolute time t."""
        q, local = schedule.interval_at(t)
        return float(volts_of[q]), float(bounds[q + 1] - local)

    while now < horizon_s:
        while k < len(releases) and releases[k][0] <= now + MIN_INTERVAL:
            r_time, task = releases[k]
            heapq.heappush(
                ready,
                _Job(
                    deadline=r_time + task.period_s,
                    seq=next(seq),
                    name=task.name,
                    release=r_time,
                    remaining_work=task.wcec,
                ),
            )
            k += 1

        if not ready:
            resume = releases[k][0] if k < len(releases) else horizon_s
            if resume > now + MIN_INTERVAL:
                idle_windows.append((now, min(resume, horizon_s)))
            now = resume
            continue

        job = ready[0]
        speed, seg_left = current_segment(now)
        # Floating-point residue at an interval boundary: snap across it
        # instead of spinning on a zero-width window.
        boundary_eps = period * BOUNDARY_RTOL
        if seg_left <= boundary_eps:
            now += max(seg_left, boundary_eps)
            continue
        next_release = releases[k][0] if k < len(releases) else horizon_s
        window = min(seg_left, next_release - now, horizon_s - now)
        if window <= 0:
            now += boundary_eps
            continue

        if speed > 0 and job.remaining_work <= speed * window + JOB_WORK_ATOL:
            # Job finishes inside this window.
            dt = job.remaining_work / speed
            now += dt
            heapq.heappop(ready)
            completed += 1
            lateness = now - job.deadline
            if lateness > LATENESS_ATOL:
                misses.append((job.name, job.release, job.deadline))
                max_lateness = max(max_lateness, lateness)
        else:
            job.remaining_work -= speed * window
            now += window

    # Jobs still pending past their deadlines at the horizon.
    for job in ready:
        if job.deadline < horizon_s and job.remaining_work > RESIDUAL_WORK:
            misses.append((job.name, job.release, job.deadline))
            max_lateness = max(max_lateness, horizon_s - job.deadline)

    return EDFReport(
        horizon_s=float(horizon_s),
        jobs_released=k,
        jobs_completed=completed,
        deadline_misses=tuple(misses),
        max_lateness_s=float(max_lateness),
        idle_windows=tuple(idle_windows),
    )
