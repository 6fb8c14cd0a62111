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
    run_sums,
)
from repro.tolerances import MIN_INTERVAL, PERIOD_RTOL

__all__ = [
    "step_up",
    "m_oscillate",
    "m_oscillate_core",
    "shift_core",
    "shift_cores",
    "shift_core_rows",
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


def shift_core_rows(
    z: np.ndarray,
    lengths: np.ndarray,
    volts: np.ndarray,
    core: int,
    offsets,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`shift_core` of one core on K stacked rows, by K offsets (unchecked).

    ``z`` is ``(K,)``, ``lengths`` ``(K, Z)`` and ``volts`` ``(K, Z, n)``,
    row k's first ``z[k]`` intervals a schedule's arrays and the rest
    zero padding; ``offsets`` is a scalar or ``(K,)``.  Returns
    ``(z, lengths, volts)`` in the same layout, padded to the widest
    row: row k is ``shift_core(schedule_k, core, offsets[k])``'s arrays,
    bit for bit.  Row by row, the core's interval pieces in
    ``[cut, period)`` play first, then those in ``[0, cut)``
    (:func:`~repro.schedule.periodic.rotate_segments`), and the new
    state intervals are the cut grid of the rotated core's switch
    instants and the other cores' unchanged ones
    (:func:`~repro.schedule.periodic.combine_timelines`).
    """
    k, width = lengths.shape
    rows = np.arange(k)
    # Each row's period as rotate_segments and combine_timelines take it:
    # Python's sum of the intervals (zero padding adds nothing).
    period = np.array([sum(r) for r in lengths.tolist()])
    cut = period - np.remainder(np.broadcast_to(offsets, (k,)), period)
    ends = np.cumsum(lengths, axis=1)
    starts = np.zeros_like(ends)
    starts[:, 1:] = ends[:, :-1]
    # The rotated core's pieces, compacted to the left of each row.  A
    # padding interval yields two pieces of length <= 0, dropped.
    pieces = np.concatenate(
        (
            ends - np.maximum(starts, cut[:, None]),
            np.minimum(ends, cut[:, None]) - starts,
        ),
        axis=1,
    )
    kept = pieces >= MIN_INTERVAL
    order = np.argsort(~kept, axis=1, kind="stable")
    n_rot = kept.sum(axis=1)
    rot_len = np.where(
        np.arange(2 * width) < n_rot[:, None],
        np.take_along_axis(pieces, order, axis=1),
        0.0,
    )
    rot_v = volts[rows[:, None], order % max(width, 1), core]
    rot_ends = np.cumsum(rot_len, axis=1)

    # Core 0's period closes the grid; every core's period must agree.
    if core == 0:
        period = np.array([sum(r) for r in rot_len.tolist()])
    n = volts.shape[2]
    # All other cores share the row's interval ends; the lowest of them
    # is the first one the check reaches.
    other_core = 1 if core == 0 else 0
    periods = np.stack((ends[rows, z - 1], rot_ends[rows, n_rot - 1]), axis=1)
    tol = PERIOD_RTOL * np.maximum(period, 1.0)
    off = np.abs(periods - period[:, None]) > tol[:, None]
    off[:, 0] &= n > 1
    if off.any():
        i = int(np.argmax(off.any(axis=1)))
        j = 0 if off[i, 0] and (other_core < core or not off[i, 1]) else 1
        raise ScheduleError(
            f"core {other_core if j == 0 else core} period {periods[i, j]} "
            f"!= core 0 period {period[i].item()}"
        )

    # cut_grid of each row.  Equal points collapse to one (the copies are
    # dropped as duplicates), so the other cores add their interval ends
    # once, and unused slots hold the period itself, which sorts last.
    inner = (np.arange(width - 1) < (z - 1)[:, None]) & (n > 1)
    other_cuts = np.where(inner, ends[:, :-1], np.inf)
    rot_inner = np.arange(2 * width - 1) < (n_rot - 1)[:, None]
    rot_cuts = np.where(rot_inner, rot_ends[:, :-1], np.inf)
    cuts = np.concatenate(
        (np.zeros((k, 1)), period[:, None], other_cuts, rot_cuts), axis=1
    )
    grid = np.sort(np.minimum(cuts, period[:, None]), axis=1)
    keep = np.ones(grid.shape, dtype=bool)
    np.greater(np.diff(grid, axis=1), MIN_INTERVAL, out=keep[:, 1:])
    n_kept = keep.sum(axis=1)
    # Dropped points become the period and sort after the kept ones; the
    # period is re-appended where the cut rule dropped it.
    grid = np.sort(np.where(keep, grid, period[:, None]), axis=1)
    z_new = n_kept - 1 + (grid[rows, n_kept - 1] < period - MIN_INTERVAL)

    out_width = int(z_new.max()) if k else 0
    real = np.arange(out_width) < z_new[:, None]
    new_lengths = np.where(real, np.diff(grid, axis=1)[:, :out_width], 0.0)
    mids = 0.5 * (grid[:, :out_width] + grid[:, 1 : out_width + 1])
    # In each new interval a core plays the segment after its last inner
    # end strictly before the interval's midpoint.
    other = (other_cuts[:, None, :] < mids[:, :, None]).sum(axis=2)
    mine = (rot_cuts[:, None, :] < mids[:, :, None]).sum(axis=2)
    new_volts = volts[rows[:, None], other]
    new_volts[:, :, core] = rot_v[rows[:, None], mine]
    new_volts[~real] = 0.0
    return z_new, new_lengths, new_volts


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
    intermediate schedules stay arrays (the one-row case of
    :func:`shift_core_rows`) and only the result is built.
    """
    for core in offsets:
        if not (0 <= core < schedule.n_cores):
            raise ScheduleError(f"core {core} out of range [0, {schedule.n_cores})")
    rows = (
        np.array([schedule.n_intervals]),
        schedule.lengths[None],
        schedule.voltage_matrix[None],
    )
    for core, offset in offsets.items():
        rows = shift_core_rows(*rows, core, float(offset))
    z, lengths, volts = rows
    return PeriodicSchedule(lengths[0, : z[0]], volts[0, : z[0]])


def merge_adjacent(schedule: PeriodicSchedule) -> PeriodicSchedule:
    """Coalesce consecutive state intervals with identical voltage vectors."""
    volts = schedule.voltage_matrix
    split = np.ones(schedule.n_intervals, dtype=bool)
    split[1:] = (volts[1:] != volts[:-1]).any(axis=1)
    lengths, last = run_sums(schedule.lengths, split)
    return PeriodicSchedule(lengths, volts[last])
