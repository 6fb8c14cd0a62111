"""Schedule constructors.

The central builder is :func:`from_core_timelines`: given each core's
private (length, voltage) sequence over a common period, take the union of
all switch instants and emit one state interval per gap — the canonical
state-interval representation the thermal solvers consume.  Its array
core, :func:`~repro.schedule.periodic.combine_timelines`, also serves
:func:`phase_schedule` and the transforms; :func:`two_mode_schedule` uses
a closed form of it (:func:`two_mode_rows`, which also builds whole
candidate sets as stacked arrays).

On top of it we provide the shapes the paper uses:

* :func:`constant_schedule` — one mode per core (the EXS/LNS world),
* :func:`two_mode_schedule` — per-core low-then-high pairs (the step-up
  building block of AO),
* :func:`phase_schedule` — per-core high intervals placed at chosen start
  offsets (Fig. 3's ``x_i`` sweep, PCO's shifts),
* :func:`random_schedule` / :func:`random_stepup_schedule` — workload
  generators for the property tests and Figs. 4-5.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.periodic import (
    PeriodicSchedule,
    check_segment,
    check_segments,
    combine_timelines,
    padded,
)
from repro.tolerances import MIN_INTERVAL, RATIO_ATOL

__all__ = [
    "from_core_timelines",
    "constant_schedule",
    "two_mode_schedule",
    "two_mode_rows",
    "phase_schedule",
    "random_schedule",
    "random_stepup_schedule",
]


def _segment(item) -> tuple[float, float]:
    """One ``(length, voltage)`` timeline entry as a validated pair of floats."""
    length, voltage = item
    length, voltage = float(length), float(voltage)
    check_segment(length, voltage)
    return length, voltage


def from_core_timelines(timelines: Sequence[Sequence]) -> PeriodicSchedule:
    """Combine per-core timelines into a state-interval schedule.

    Parameters
    ----------
    timelines:
        One sequence per core of ``(length, voltage)`` pairs.  All cores
        must cover the same total period (within ``PERIOD_RTOL``
        relative tolerance); tiny rounding drift is absorbed by stretching the
        final segment.
    """
    if not timelines:
        raise ScheduleError("need at least one core timeline")
    segs: list[tuple[float, float]] = []
    counts = []
    for timeline in timelines:
        core = [_segment(item) for item in timeline]
        if not core:
            raise ScheduleError("each core timeline needs at least one segment")
        segs.extend(core)
        counts.append(len(core))
    flat = np.array(segs)
    counts = np.array(counts)
    return PeriodicSchedule(
        *combine_timelines(
            padded(flat[:, 0], counts), padded(flat[:, 1], counts), counts
        )
    )


def constant_schedule(voltages, period: float = 1.0) -> PeriodicSchedule:
    """Single state interval: every core at a constant mode."""
    return PeriodicSchedule([float(period)], [[float(v) for v in voltages]])


def _per_core(*values) -> list[np.ndarray]:
    """Per-core float arrays: scalars and length-1 inputs broadcast to N cores."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    n = max(a.size for a in arrays)
    return [a if a.shape == (n,) else np.broadcast_to(a, n) for a in arrays]


def _check_period(period: float) -> None:
    if period <= 0:
        raise ScheduleError(f"period must be > 0, got {period}")
    if not math.isfinite(period):
        raise ScheduleError(f"period must be finite, got {period}")


def two_mode_schedule(
    v_low,
    v_high,
    high_ratio,
    period: float,
    high_first: bool = False,
) -> PeriodicSchedule:
    """Per-core two-mode schedule: low for ``(1-r)t_p`` then high for ``r t_p``.

    This is the step-up building block of AO: with ``high_first=False``
    every core's voltage is non-decreasing over the period, so the result
    is a step-up schedule regardless of per-core ratios.

    Parameters
    ----------
    v_low, v_high:
        Per-core arrays (or scalars) of the two modes.  Where
        ``v_low == v_high`` or the ratio is 0/1 the core degenerates to a
        constant mode.
    high_ratio:
        Per-core array (or scalar) in [0, 1]: fraction of the period spent
        at ``v_high``.
    period:
        Schedule period ``t_p`` in seconds.
    """
    v_low, v_high, ratio = _per_core(v_low, v_high, high_ratio)
    if np.any((ratio < -RATIO_ATOL) | (ratio > 1 + RATIO_ATOL)):
        raise ScheduleError(f"high_ratio must be within [0, 1], got {ratio}")
    if np.any(v_high < v_low):
        raise ScheduleError("two_mode_schedule requires v_high >= v_low per core")
    _check_period(period)
    _, lengths, volts = two_mode_rows(v_low, v_high, ratio[None], period, high_first)
    return PeriodicSchedule(lengths[0], volts[0])


def two_mode_rows(
    v_low: np.ndarray,
    v_high: np.ndarray,
    high_ratio: np.ndarray,
    period,
    high_first: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`two_mode_schedule` for K ratio rows at once, as stacked arrays.

    ``v_low``/``v_high`` are ``(n,)``, ``high_ratio`` is ``(K, n)`` and
    ``period`` a scalar or ``(K,)``; the inputs are not range-checked.
    Returns ``(z, lengths, volts)``: row k's first ``z[k]`` intervals are
    the lengths and voltage matrix of ``two_mode_schedule(v_low, v_high,
    high_ratio[k], period[k], high_first)``, bit for bit, zero-padded to
    the widest row.
    """
    ratio = np.minimum(np.maximum(high_ratio, 0.0), 1.0)
    k = ratio.shape[0]
    period = np.asarray(period, dtype=float).reshape(-1, 1)

    # Each core plays a first and a second segment; pieces shorter than
    # MIN_INTERVAL are dropped, and a core left with none holds v_low.
    t_high = ratio * period
    t_low = period - t_high
    first, second = (t_high, t_low) if high_first else (t_low, t_high)
    v_first, v_second = (v_high, v_low) if high_first else (v_low, v_high)
    has_first = first >= MIN_INTERVAL
    has_second = second >= MIN_INTERVAL
    both = has_first & has_second
    len0 = np.where(has_first, first, np.where(has_second, second, period))
    v0 = np.where(has_first, v_first, np.where(has_second, v_second, v_low))
    # Only a held v_low/v_high or a sub-MIN_INTERVAL period can be invalid.
    used = np.stack((v0, np.where(both, v_second, v0), len0 - MIN_INTERVAL))
    if used.size and not (np.isfinite(used).all() and used.min() >= 0):
        check_segments(
            np.stack((len0, second), axis=2).reshape(-1, 2),
            np.stack((v0, np.broadcast_to(v_second, v0.shape)), axis=2).reshape(-1, 2),
            np.stack((np.ones_like(both), both), axis=2).reshape(-1, 2),
        )

    # Closed form of combine_timelines for at most one cut per core, row by
    # row.  Every core's segments sum to the period to within rounding, far
    # inside the period-mismatch tolerance, so that check cannot fire here.
    # Core 0's timeline closes the period; a core without a cut adds one
    # more copy of ``end`` to cut_grid's input, which it drops as a
    # duplicate.
    end = np.where(both[:, :1], len0[:, :1] + second[:, :1], len0[:, :1])
    cuts = np.where(both, np.minimum(len0, end), end)
    grid = np.sort(np.concatenate((np.zeros((k, 1)), end, cuts), axis=1), axis=1)
    keep = np.ones(grid.shape, dtype=bool)
    np.greater(np.diff(grid, axis=1), MIN_INTERVAL, out=keep[:, 1:])
    n_kept = keep.sum(axis=1)
    # Dropped points become ``end`` and sort after the kept ones.  Past
    # its kept points each row so holds its period: re-appended where
    # cut_grid's rule dropped it, then as padding (zero-length intervals).
    grid = np.sort(np.where(keep, grid, end), axis=1)
    z = n_kept - 1 + (grid[np.arange(k), n_kept - 1] < end[:, 0] - MIN_INTERVAL)

    width = int(z.max()) if k else 0
    real = np.arange(width) < z[:, None]
    lengths = np.where(real, np.diff(grid, axis=1)[:, :width], 0.0)
    mids = 0.5 * (grid[:, :width] + grid[:, 1 : width + 1])
    second_now = both[:, None] & (mids[:, :, None] > len0[:, None])
    volts = np.where(second_now, v_second, v0[:, None])
    return z, lengths, volts


def phase_schedule(
    v_low,
    v_high,
    high_length,
    high_start,
    period: float,
) -> PeriodicSchedule:
    """Per-core schedules with the high-voltage burst at a chosen offset.

    Core ``c`` runs ``v_low[c]`` except during
    ``[high_start[c], high_start[c] + high_length[c])`` (wrapped around the
    period), where it runs ``v_high[c]``.  This is exactly the family swept
    in Fig. 3 and searched by PCO.
    """
    v_low, v_high, h_len, h_start = _per_core(v_low, v_high, high_length, high_start)
    _check_period(period)
    if np.any((h_len < 0) | (h_len > period + MIN_INTERVAL)):
        raise ScheduleError("high_length must lie in [0, period]")

    # An infinite start wraps to NaN, as Python's float modulo does.
    start = np.mod(np.where(np.isfinite(h_start), h_start, np.nan), period)
    length = np.where(period < h_len, period, h_len)
    low = length < MIN_INTERVAL
    high = ~low & (length > period - MIN_INTERVAL)
    burst = ~low & ~high
    end = start + length
    inside = burst & (end <= period + MIN_INTERVAL)
    wrap = burst & ~inside
    end = np.where(period < end, period, end)
    spill = start + length - period

    # Up to three segments per core: [low | high | low] for a burst inside
    # the period, [high | low | high] for one that wraps, one otherwise.
    seg_len = np.stack((
        np.where(inside, start, np.where(wrap, spill, period)),
        np.where(inside, end - start, start - spill),
        np.where(inside, period - end, period - start),
    ), axis=1)
    seg_v = np.stack((
        np.where(inside | low, v_low, v_high),
        np.where(inside, v_high, v_low),
        np.where(inside, v_low, v_high),
    ), axis=1)
    real = np.stack((
        ~inside | (start >= MIN_INTERVAL),
        burst,
        wrap | (inside & (period - end >= MIN_INTERVAL)),
    ), axis=1)
    check_segments(seg_len, seg_v, real)
    counts = real.sum(axis=1)
    return PeriodicSchedule(
        *combine_timelines(
            padded(seg_len[real], counts), padded(seg_v[real], counts), counts
        )
    )


def random_schedule(
    n_cores: int,
    rng: np.random.Generator,
    levels: Sequence[float] = (0.6, 0.8, 1.0, 1.2, 1.3),
    max_segments: int = 4,
    period: float | None = None,
) -> PeriodicSchedule:
    """Random periodic schedule (workload generator for property tests)."""
    if n_cores < 1 or max_segments < 1:
        raise ScheduleError("need n_cores >= 1 and max_segments >= 1")
    if period is None:
        period = float(rng.uniform(0.05, 10.0))
    timelines = []
    for _ in range(n_cores):
        k = int(rng.integers(1, max_segments + 1))
        weights = rng.dirichlet(np.ones(k))
        weights = np.maximum(weights, 1e-3)
        weights /= weights.sum()
        volts = rng.choice(np.asarray(levels, dtype=float), size=k)
        timelines.append([(float(w * period), float(v)) for w, v in zip(weights, volts)])
    return from_core_timelines(timelines)


def random_stepup_schedule(
    n_cores: int,
    rng: np.random.Generator,
    levels: Sequence[float] = (0.6, 0.8, 1.0, 1.2, 1.3),
    max_segments: int = 4,
    period: float | None = None,
) -> PeriodicSchedule:
    """Random *step-up* schedule: per-core voltages sorted non-decreasing."""
    sched = random_schedule(n_cores, rng, levels=levels, max_segments=max_segments, period=period)
    from repro.schedule.transforms import step_up

    return step_up(sched)
