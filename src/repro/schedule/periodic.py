"""The periodic multi-core schedule ``S(t)`` of the paper.

A :class:`PeriodicSchedule` is a sequence of ``z`` state intervals,
repeated forever.  It is stored as two read-only float64 arrays:

* ``lengths`` — ``(z,)`` interval durations, and
* ``voltage_matrix`` — ``(z, n_cores)`` voltage of each core in each
  interval,

which is the form the thermal solvers and the builders work on.  The
object view — a tuple of :class:`~repro.schedule.intervals.StateInterval`
(``intervals``) and the per-core timeline (``core_timeline``) used by the
step-up reordering (Definition 2) — is derived from the arrays on demand.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.intervals import MIN_INTERVAL, CoreSegment, StateInterval

__all__ = ["PeriodicSchedule"]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class PeriodicSchedule:
    """An immutable periodic schedule over N cores.

    ``PeriodicSchedule(intervals)`` builds one from a sequence of
    :class:`StateInterval`; :meth:`from_arrays` builds one from the
    ``(lengths, voltage_matrix)`` arrays directly.  Equality, hashing and
    pickling behave as for a frozen dataclass with a single ``intervals``
    field.
    """

    __slots__ = ("_lengths", "_volts", "_period", "_intervals", "_bounds")

    def __init__(self, intervals) -> None:
        ivs = tuple(intervals)
        if len(ivs) == 0:
            raise ScheduleError("a schedule needs at least one state interval")
        n = ivs[0].n_cores
        for q, iv in enumerate(ivs):
            if iv.n_cores != n:
                raise ScheduleError(
                    f"interval {q} has {iv.n_cores} cores, expected {n}"
                )
        self._init(
            np.array([iv.length for iv in ivs], dtype=float),
            np.array([iv.voltages for iv in ivs], dtype=float),
        )
        object.__setattr__(self, "_intervals", ivs)

    @classmethod
    def from_arrays(cls, lengths, voltage_matrix) -> "PeriodicSchedule":
        """Build a schedule from ``(z,)`` lengths and a ``(z, n)`` voltage matrix.

        The arrays are copied (C-ordered, so reductions over them add in
        the same order as over an array built row by row) and frozen.
        Validation matches building the same intervals one
        :class:`StateInterval` at a time: the first bad interval (in order)
        raises the same :class:`ScheduleError`.
        """
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
            if bad_len[q]:
                raise ScheduleError(
                    f"state interval length must be >= {MIN_INTERVAL}, "
                    f"got {lengths[q].item()}"
                )
            if volts.shape[1] == 0:
                raise ScheduleError("state interval needs at least one core")
            raise ScheduleError(
                f"voltages must be finite and >= 0, got {tuple(volts[q].tolist())}"
            )
        self = object.__new__(cls)
        self._init(lengths, volts)
        return self

    def _init(self, lengths: np.ndarray, volts: np.ndarray) -> None:
        object.__setattr__(self, "_lengths", _readonly(lengths))
        object.__setattr__(self, "_volts", _readonly(volts))
        # Left-to-right Python sum, exactly as summing the intervals one by
        # one: a pairwise np.sum could differ in the last bit.
        object.__setattr__(self, "_period", float(sum(lengths.tolist())))
        object.__setattr__(self, "_intervals", None)
        object.__setattr__(self, "_bounds", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PeriodicSchedule is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PeriodicSchedule is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------
    # value semantics: those of a frozen dataclass with one field, intervals
    # ------------------------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._volts.shape == other._volts.shape and bool(
            np.array_equal(self._lengths, other._lengths)
            and np.array_equal(self._volts, other._volts)
        )

    def __hash__(self) -> int:
        # hash((intervals,)) with each StateInterval hashing as
        # (length, voltages): the same value the dataclass produced.
        rows = tuple((length, tuple(volts)) for length, volts in self.interval_rows())
        return hash((rows,))

    def __getstate__(self):
        return {"intervals": self._build_intervals()}

    def __setstate__(self, state) -> None:
        self.__init__(state["intervals"])

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

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def intervals(self) -> tuple[StateInterval, ...]:
        """The schedule as a tuple of :class:`StateInterval` (built on first use).

        A compatibility view for code that walks intervals as objects; the
        thermal kernels and builders read the arrays instead.
        """
        if self._intervals is None:
            object.__setattr__(self, "_intervals", self._build_intervals())
        return self._intervals

    def _build_intervals(self) -> tuple[StateInterval, ...]:
        if self._intervals is not None:
            return self._intervals
        return tuple(
            StateInterval(length=length, voltages=tuple(volts))
            for length, volts in self.interval_rows()
        )

    def core_timeline(self, core: int, merge: bool = True) -> list[CoreSegment]:
        """Per-core view: the sequence of (length, voltage) segments.

        With ``merge`` (default) consecutive segments at the same voltage
        are coalesced, which is the natural per-core decomposition the
        paper's Definition 2 reorders.
        """
        if not (0 <= core < self.n_cores):
            raise ScheduleError(f"core {core} out of range [0, {self.n_cores})")
        lengths, volts = self._lengths, self._volts[:, core]
        if merge:
            lengths, volts, _ = core_runs(lengths, volts[:, None])
            lengths, volts = lengths[0], volts[0]
        return [
            CoreSegment(length=length, voltage=v)
            for length, v in zip(lengths.tolist(), volts.tolist())
        ]

    def voltage_at(self, t: float) -> np.ndarray:
        """Voltage vector in effect at time ``t`` (wrapped into the period)."""
        return self._volts[self.interval_at(t)[0]].copy()

    # ------------------------------------------------------------------
    # edits (return new schedules)
    # ------------------------------------------------------------------

    def with_interval(self, q: int, interval: StateInterval) -> "PeriodicSchedule":
        """Copy with state interval ``q`` replaced."""
        if not (0 <= q < self.n_intervals):
            raise ScheduleError(f"interval {q} out of range [0, {self.n_intervals})")
        if interval.n_cores != self.n_cores:
            raise ScheduleError(
                f"replacement has {interval.n_cores} cores, expected {self.n_cores}"
            )
        lengths, volts = self._lengths.copy(), self._volts.copy()
        lengths[q] = interval.length
        volts[q] = interval.voltages
        return PeriodicSchedule.from_arrays(lengths, volts)

    def scaled(self, factor: float) -> "PeriodicSchedule":
        """Copy with every interval length multiplied by ``factor``."""
        if factor <= 0:
            raise ScheduleError(f"scale factor must be > 0, got {factor}")
        return PeriodicSchedule.from_arrays(self._lengths * factor, self._volts)

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
        return PeriodicSchedule.from_arrays(
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

    Consecutive intervals whose voltages differ by less than 1e-12 merge
    into one segment that keeps the last interval's voltage.
    """
    z, n = volts.shape
    split = np.ones((n, z), dtype=bool)
    split[:, 1:] = ~(np.abs(np.diff(volts.T, axis=1)) < 1e-12)
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
    atol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-core timelines into state-interval ``(lengths, voltage_matrix)``.

    ``seg_lengths``/``seg_volts`` are ``(n, k)`` with core ``c``'s
    ``counts[c]`` segments left-aligned in row ``c`` (the rest is
    ignored).  The union of all switch instants becomes the interval grid;
    core 0's period closes it, and every core's last segment is stretched
    to it.  Segments are assumed valid (see :func:`check_segments`).
    """
    n, k = seg_lengths.shape
    rows = np.arange(n)
    # Left-to-right running sums; padding past a core's last segment is
    # never read.
    ends = np.cumsum(seg_lengths, axis=1)
    period = float(sum(seg_lengths[0, : counts[0]].tolist()))
    periods = ends[rows, counts - 1]
    off = np.abs(periods - period) > atol * max(period, 1.0)
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


def check_segments(
    seg_lengths: np.ndarray, seg_volts: np.ndarray, real: np.ndarray
) -> None:
    """Raise the :class:`CoreSegment` error of the first invalid real segment.

    Segments are visited core by core, in timeline order, so the message is
    the one building them one :class:`CoreSegment` at a time would give.
    """
    bad_len = ~np.isfinite(seg_lengths) | (seg_lengths < MIN_INTERVAL)
    bad_volt = (seg_volts < 0) | ~np.isfinite(seg_volts)
    bad = (bad_len | bad_volt) & real
    if bad.any():
        c, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        # Building the CoreSegment raises the canonical message.
        CoreSegment(length=seg_lengths[c, j].item(), voltage=seg_volts[c, j].item())
