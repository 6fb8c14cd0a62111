"""Schedule transforms: step-up reordering, m-oscillation, phase shifts.

* :func:`step_up` implements Definition 2 — per core, reorder its segments
  by non-decreasing voltage, then recombine.  Theorem 2 guarantees the
  result's stable-status peak upper-bounds the original's.
* :func:`m_oscillate` implements Definition 3 — compress every state
  interval by ``m`` (when the compressed pattern is repeated periodically
  this is exactly "divide each interval into m and interleave").
  Theorem 5: the peak temperature is non-increasing in ``m``.
* :func:`m_oscillate_core` oscillates a *single* core (the Fig. 2
  counterexample: this may *raise* the peak).
* :func:`shift_core` cyclically shifts one core's timeline (PCO's move).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.periodic import (
    PeriodicSchedule,
    check_segments,
    combine_timelines,
    core_runs,
    rotate_segments,
    run_sums,
)

__all__ = [
    "step_up",
    "m_oscillate",
    "m_oscillate_core",
    "shift_core",
    "shift_cores",
    "shift_core_arrays",
    "merge_adjacent",
]


def step_up(schedule: PeriodicSchedule) -> PeriodicSchedule:
    """The corresponding step-up schedule ``S_u(t)`` (Definition 2).

    Each core's segments are sorted by non-decreasing voltage
    (stable sort: equal-voltage segments keep their relative order),
    independently per core; the per-core timelines are then recombined
    into state intervals.
    """
    seg_len, seg_v, counts = core_runs(schedule.lengths, schedule.voltage_matrix)
    real = np.arange(seg_len.shape[1])[None, :] < counts[:, None]
    order = np.argsort(np.where(real, seg_v, np.inf), axis=1, kind="stable")
    return PeriodicSchedule(
        *combine_timelines(
            np.take_along_axis(seg_len, order, axis=1),
            np.take_along_axis(seg_v, order, axis=1),
            counts,
        )
    )


def m_oscillate(schedule: PeriodicSchedule, m: int) -> PeriodicSchedule:
    """The m-oscillating schedule ``S(m, t)`` (Definition 3).

    Every state interval's length is scaled down by ``m`` with voltages
    unchanged.  Repeating the result periodically is equivalent to
    repeating the compressed pattern ``m`` times inside the original
    period, which is how the paper phrases it.
    """
    if m < 1 or int(m) != m:
        raise ScheduleError(f"m must be a positive integer, got {m}")
    if m == 1:
        return schedule
    return schedule.scaled(1.0 / int(m))


def m_oscillate_core(schedule: PeriodicSchedule, core: int, m: int) -> PeriodicSchedule:
    """Oscillate only one core ``m`` times faster (Fig. 2's experiment).

    The chosen core's timeline is compressed by ``m`` and repeated ``m``
    times within the unchanged period; all other cores keep their
    schedules.  The paper shows this does **not** necessarily reduce the
    peak temperature — only chip-wide oscillation (Theorem 5) does.
    """
    if m < 1 or int(m) != m:
        raise ScheduleError(f"m must be a positive integer, got {m}")
    if not (0 <= core < schedule.n_cores):
        raise ScheduleError(f"core {core} out of range [0, {schedule.n_cores})")
    m = int(m)
    seg_len, seg_v, counts = core_runs(schedule.lengths, schedule.voltage_matrix)
    if m > 1:
        k = int(counts[core])
        cycle_len, cycle_v = seg_len[core, :k] / m, seg_v[core, :k]
        check_segments(cycle_len[None], cycle_v[None], np.ones((1, k), dtype=bool))
        grow = ((0, 0), (0, max(0, k * m - seg_len.shape[1])))
        seg_len, seg_v = np.pad(seg_len, grow), np.pad(seg_v, grow)
        seg_len[core, : k * m] = np.tile(cycle_len, m)
        seg_v[core, : k * m] = np.tile(cycle_v, m)
        counts[core] = k * m
    return PeriodicSchedule(*combine_timelines(seg_len, seg_v, counts))


def shift_core_arrays(
    lengths: np.ndarray, volts: np.ndarray, core: int, offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`shift_core` on ``(lengths, voltage_matrix)`` arrays (unchecked)."""
    z, n = volts.shape
    rot_len, source = rotate_segments(lengths, offset)
    k = max(z, rot_len.size)
    seg_len = np.zeros((n, k))
    seg_v = np.zeros((n, k))
    seg_len[:, :z] = lengths
    seg_v[:, :z] = volts.T
    seg_len[core] = 0.0
    seg_len[core, : rot_len.size] = rot_len
    seg_v[core, : rot_len.size] = volts[source, core]
    counts = np.full(n, z)
    counts[core] = rot_len.size
    return combine_timelines(seg_len, seg_v, counts)


def shift_core(schedule: PeriodicSchedule, core: int, offset: float) -> PeriodicSchedule:
    """Cyclically shift one core's timeline *later* by ``offset`` seconds.

    Used by PCO to interleave high-power phases across cores spatially.
    The per-core workload (and hence throughput) is unchanged.
    """
    return shift_cores(schedule, {core: offset})


def shift_cores(
    schedule: PeriodicSchedule, offsets: Mapping[int, float]
) -> PeriodicSchedule:
    """Apply :func:`shift_core` for each ``core: offset`` item, in order.

    Bit-identical to chaining :func:`shift_core` calls, but the
    intermediate schedules stay arrays and only the result is built.
    """
    for core in offsets:
        if not (0 <= core < schedule.n_cores):
            raise ScheduleError(f"core {core} out of range [0, {schedule.n_cores})")
    lengths, volts = schedule.lengths, schedule.voltage_matrix
    for core, offset in offsets.items():
        lengths, volts = shift_core_arrays(lengths, volts, core, float(offset))
    return PeriodicSchedule(lengths, volts)


def merge_adjacent(schedule: PeriodicSchedule) -> PeriodicSchedule:
    """Coalesce consecutive state intervals with identical voltage vectors."""
    volts = schedule.voltage_matrix
    split = np.ones(schedule.n_intervals, dtype=bool)
    split[1:] = (volts[1:] != volts[:-1]).any(axis=1)
    lengths, last = run_sums(schedule.lengths, split)
    return PeriodicSchedule(lengths, volts[last])
