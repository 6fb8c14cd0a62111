"""The periodic multi-core schedule ``S(t)`` of the paper.

A :class:`PeriodicSchedule` is a sequence of ``z`` state intervals,
repeated forever.  It is stored as two read-only float64 arrays:

* ``lengths`` — ``(z,)`` interval durations, and
* ``voltage_matrix`` — ``(z, n_cores)`` voltage of each core in each
  interval,

which is the form the thermal solvers, the builders and the transforms
work on.  A core's own timeline (the per-core view the step-up
reordering of Definition 2 sorts) is :func:`core_runs` over the same
arrays.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ScheduleError
from repro.tolerances import MIN_INTERVAL, PERIOD_RTOL, VOLTAGE_ATOL

__all__ = ["PeriodicSchedule", "MIN_INTERVAL"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_interval(length: float, volts: tuple[float, ...]) -> None:
    """Raise the :class:`ScheduleError` of one invalid state interval.

    ``length`` and ``volts`` are Python floats; a valid interval passes.
    """
    if not math.isfinite(length) or length < MIN_INTERVAL:
        raise ScheduleError(
            f"state interval length must be >= {MIN_INTERVAL}, got {length}"
        )
    if not volts:
        raise ScheduleError("state interval needs at least one core")
    if any(v < 0 or not math.isfinite(v) for v in volts):
        raise ScheduleError(f"voltages must be finite and >= 0, got {volts}")


class PeriodicSchedule:
    """An immutable periodic schedule over N cores.

    ``PeriodicSchedule(lengths, voltage_matrix)`` takes ``(z,)`` interval
    lengths and a ``(z, n_cores)`` voltage matrix.  The arrays are copied
    (C-ordered, so reductions over them add in the same order as over an
    array built row by row) and frozen.  Validation walks the intervals in
    order: the first bad one raises its :class:`ScheduleError` (see
    :func:`check_interval`).  Equality and hashing compare the interval
    rows; a pickle stores the two arrays.
    """

    __slots__ = ("_lengths", "_volts", "_period", "_bounds")

    def __init__(self, lengths, voltage_matrix) -> None:
        try:
            lengths = np.array(lengths, dtype=float)
            volts = np.array(voltage_matrix, dtype=float, order="C")
        except ValueError as exc:  # ragged rows
            raise ScheduleError(f"malformed schedule arrays: {exc}") from exc
        if lengths.ndim != 1 or lengths.size == 0:
            raise ScheduleError("a schedule needs at least one state interval")
        if volts.ndim != 2 or volts.shape[0] != lengths.size:
            raise ScheduleError(
                f"voltage_matrix must be ({lengths.size}, n_cores), got {volts.shape}"
            )
        if not (
            volts.shape[1]
            and np.isfinite(lengths).all()
            and lengths.min() >= MIN_INTERVAL
            and np.isfinite(volts).all()
            and volts.min() >= 0
        ):
            bad_len = ~np.isfinite(lengths) | (lengths < MIN_INTERVAL)
            bad_volt = (volts < 0).any(axis=1) | ~np.isfinite(volts).all(axis=1)
            q = int(np.argmax(bad_len | bad_volt | (volts.shape[1] == 0)))
            check_interval(lengths[q].item(), tuple(volts[q].tolist()))
        object.__setattr__(self, "_lengths", _readonly(lengths))
        object.__setattr__(self, "_volts", _readonly(volts))
        # Left-to-right Python sum, exactly as summing the intervals one by
        # one: a pairwise np.sum could differ in the last bit.
        object.__setattr__(self, "_period", float(sum(lengths.tolist())))
        object.__setattr__(self, "_bounds", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PeriodicSchedule is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PeriodicSchedule is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._volts.shape == other._volts.shape and bool(
            np.array_equal(self._lengths, other._lengths)
            and np.array_equal(self._volts, other._volts)
        )

    def __hash__(self) -> int:
        # The interval rows as nested tuples: equal schedules hash equal.
        rows = tuple((length, tuple(volts)) for length, volts in self.interval_rows())
        return hash((rows,))

    def __reduce__(self):
        return (type(self), (self._lengths, self._volts))

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self._volts.shape[1]

    @property
    def n_intervals(self) -> int:
        """Number of state intervals ``z``."""
        return self._lengths.shape[0]

    @property
    def period(self) -> float:
        """Schedule period ``t_p`` in seconds."""
        return self._period

    @property
    def lengths(self) -> np.ndarray:
        """``(z,)`` interval durations (read-only)."""
        return self._lengths

    @property
    def voltage_matrix(self) -> np.ndarray:
        """``(z, n_cores)`` voltage of each core in each state interval (read-only)."""
        return self._volts

    def interval_rows(self) -> list[tuple[float, list[float]]]:
        """``(length, voltages)`` of each state interval, as Python floats."""
        return list(zip(self._lengths.tolist(), self._volts.tolist()))

    @property
    def boundaries(self) -> np.ndarray:
        """``(z + 1,)`` scheduling points ``t_0=0 .. t_z=t_p`` (read-only)."""
        if self._bounds is None:
            bounds = np.concatenate([[0.0], np.cumsum(self._lengths)])
            object.__setattr__(self, "_bounds", _readonly(bounds))
        return self._bounds

    def interval_at(self, t: float) -> tuple[int, float]:
        """``(q, local)``: interval index at time ``t`` and ``t`` mod the period."""
        local = float(t) % self.period
        q = int(np.searchsorted(self.boundaries, local, side="right") - 1)
        return min(q, self.n_intervals - 1), local

    def voltage_at(self, t: float) -> np.ndarray:
        """Voltage vector in effect at time ``t`` (wrapped into the period)."""
        return self._volts[self.interval_at(t)[0]].copy()

    # ------------------------------------------------------------------
    # edits (return new schedules)
    # ------------------------------------------------------------------

    def scaled(self, factor: float) -> "PeriodicSchedule":
        """Copy with every interval length multiplied by ``factor``."""
        if factor <= 0:
            raise ScheduleError(f"scale factor must be > 0, got {factor}")
        return PeriodicSchedule(self._lengths * factor, self._volts)

    def rotated(self, offset: float) -> "PeriodicSchedule":
        """Copy with the whole schedule cyclically shifted by ``offset`` s.

        Rotation does not change the stable-status peak temperature (it
        relabels the period start) but is useful for aligning comparisons.
        """
        period = self.period
        offset = float(offset) % period
        if offset < MIN_INTERVAL:
            return self
        # Every core's timeline has the same cut points, so one rotation of
        # the interval sequence rotates them all.
        lengths, order = rotate_segments(self._lengths, offset)
        return PeriodicSchedule(
            *combine_timelines(
                np.broadcast_to(lengths, (self.n_cores, lengths.size)),
                self._volts[order].T,
                np.full(self.n_cores, lengths.size),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeriodicSchedule(z={self.n_intervals}, n_cores={self.n_cores}, "
            f"period={self.period:.6g}s)"
        )


# ----------------------------------------------------------------------
# array kernels shared by the builders and transforms
# ----------------------------------------------------------------------


def run_sums(values: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left-to-right sums of ``values`` over the runs that ``split`` starts.

    ``split[i]`` marks a run starting at ``i`` (``split[0]`` must be set).
    Returns the per-run sums and the index of each run's last member.
    Each sum adds its members one by one, in order, exactly as a Python
    loop would.
    """
    starts = np.flatnonzero(split)
    runs = np.diff(np.append(starts, values.size))
    sums = values[starts]
    for j in range(1, int(runs.max())):
        live = runs > j
        sums[live] += values[starts[live] + j]
    return sums, starts + runs - 1


def core_runs(
    lengths: np.ndarray, volts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every core's merged timeline, as padded ``(n, k)`` arrays plus counts.

    Consecutive intervals whose voltages differ by less than ``VOLTAGE_ATOL`` merge
    into one segment that keeps the last interval's voltage.
    """
    z, n = volts.shape
    split = np.ones((n, z), dtype=bool)
    split[:, 1:] = ~(np.abs(np.diff(volts.T, axis=1)) < VOLTAGE_ATOL)
    merged, last = run_sums(np.tile(lengths, n), split.ravel())
    counts = split.sum(axis=1)
    return padded(merged, counts), padded(volts.T.ravel()[last], counts), counts


def padded(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Lay core-major ``values`` out as rows of ``counts[c]`` entries (zero-padded)."""
    real = np.arange(int(counts.max()))[None, :] < counts[:, None]
    out = np.zeros(real.shape)
    out[real] = values
    return out


def rotate_segments(
    lengths: np.ndarray, offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclically shift a timeline *later* by ``offset`` seconds.

    Returns the new segment lengths and, for each, the index of the old
    segment it came from.  Old content in ``[cut, period)`` plays first,
    then old content in ``[0, cut)``; pieces shorter than
    :data:`MIN_INTERVAL` are dropped.
    """
    period = sum(lengths.tolist())
    offset = float(offset) % period
    cut = period - offset  # old-time instant that becomes the new period start
    ends = np.cumsum(lengths)
    starts = np.concatenate(([0.0], ends[:-1]))
    before = np.minimum(ends, cut) - starts
    after = ends - np.maximum(starts, cut)
    tail = np.flatnonzero(after >= MIN_INTERVAL)
    head = np.flatnonzero(before >= MIN_INTERVAL)
    return (
        np.concatenate((after[tail], before[head])),
        np.concatenate((tail, head)),
    )


def combine_timelines(
    seg_lengths: np.ndarray,
    seg_volts: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-core timelines into state-interval ``(lengths, voltage_matrix)``.

    ``seg_lengths``/``seg_volts`` are ``(n, k)`` with core ``c``'s
    ``counts[c]`` segments left-aligned in row ``c`` (the rest is
    ignored).  The union of all switch instants becomes the interval grid;
    core 0's period closes it, and every core's last segment is stretched
    to it; periods may differ by ``PERIOD_RTOL`` relative.  Segments are
    assumed valid (see :func:`check_segments`).
    """
    n, k = seg_lengths.shape
    rows = np.arange(n)
    # Left-to-right running sums; padding past a core's last segment is
    # never read.
    ends = np.cumsum(seg_lengths, axis=1)
    period = float(sum(seg_lengths[0, : counts[0]].tolist()))
    periods = ends[rows, counts - 1]
    off = np.abs(periods - period) > PERIOD_RTOL * max(period, 1.0)
    if off.any():
        i = int(np.argmax(off))
        raise ScheduleError(f"core {i} period {periods[i]} != core 0 period {period}")

    # Union of all switch instants (each core's ends but its last).
    inner = np.arange(k)[None, :] < (counts - 1)[:, None]
    grid = cut_grid(np.minimum(ends[inner], period), period)

    # Core c's segment in the gap around ``mid`` is the number of its inner
    # ends strictly before ``mid`` (a left-sided search; the last segment
    # absorbs any rounding drift up to the period).
    mids = 0.5 * (grid[:-1] + grid[1:])
    cuts = np.where(inner, ends, np.inf)
    idx = (cuts[:, None, :] < mids[None, :, None]).sum(axis=2)
    volts = np.take_along_axis(seg_volts, idx, axis=1).T
    return np.diff(grid), volts


def cut_grid(cuts: np.ndarray, period: float) -> np.ndarray:
    """Sorted scheduling points ``0 .. period`` through ``cuts``.

    A point within :data:`MIN_INTERVAL` of its predecessor in sorted order
    is dropped (exact duplicates included), and ``period`` is re-appended
    if that dropped it from the end.
    """
    grid = np.sort(np.concatenate(([0.0, period], cuts)))
    keep = np.empty(grid.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(grid), MIN_INTERVAL, out=keep[1:])
    grid = grid[keep]
    if grid[-1] < period - MIN_INTERVAL:
        grid = np.append(grid, period)
    return grid


def check_segment(length: float, voltage: float) -> None:
    """Raise the :class:`ScheduleError` of one invalid per-core segment.

    ``length`` and ``voltage`` are Python floats; a valid segment passes.
    """
    if not math.isfinite(length) or length < MIN_INTERVAL:
        raise ScheduleError(f"segment length must be >= {MIN_INTERVAL}, got {length}")
    if voltage < 0 or not math.isfinite(voltage):
        raise ScheduleError(f"segment voltage must be finite >= 0, got {voltage}")


def check_segments(
    seg_lengths: np.ndarray, seg_volts: np.ndarray, real: np.ndarray
) -> None:
    """Raise the :func:`check_segment` error of the first invalid real segment.

    Segments are visited core by core, in timeline order.
    """
    bad_len = ~np.isfinite(seg_lengths) | (seg_lengths < MIN_INTERVAL)
    bad_volt = (seg_volts < 0) | ~np.isfinite(seg_volts)
    bad = (bad_len | bad_volt) & real
    if bad.any():
        c, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        check_segment(seg_lengths[c, j].item(), seg_volts[c, j].item())
