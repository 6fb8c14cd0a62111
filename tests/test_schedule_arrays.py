"""Bit-parity of the array-native schedule layer against the object builders.

``PeriodicSchedule`` stores ``(lengths, voltage_matrix)`` arrays and its
builders are array code.  The oracle below is the interval-object
implementation they replaced, kept verbatim (names prefixed ``Old``/
``old_``): one state-interval or core-segment object per piece, per-core
Python loops.  Every builder and transform must reproduce it *bit for
bit* — lengths, voltages, period and wire document — because the solvers'
outputs (golden pins, committed results, throughput digests) hang on the
last bit of every interval length.  Invalid inputs must still raise
:class:`ScheduleError`, with the oracle's message where it had one.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.schedule import (
    PeriodicSchedule,
    from_core_timelines,
    m_oscillate_core,
    merge_adjacent,
    phase_schedule,
    shift_core,
    shift_cores,
    step_up,
    throughput,
    two_mode_schedule,
)
from repro.schedule.builders import random_stepup_schedule
from repro.schedule.periodic import (
    MIN_INTERVAL,
    combine_timelines,
    core_runs,
    rotate_segments,
)
from repro.schedule.serialization import schedule_from_dict, schedule_to_dict
from repro.schedule.transforms import shift_core_rows

settings.register_profile(
    "ci", max_examples=15, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

LEVELS = (0.0, 0.6, 0.8, 1.0, 1.2, 1.3)


# ----------------------------------------------------------------------
# oracle: the interval-object implementation, verbatim
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OldStateInterval:
    length: float
    voltages: tuple[float, ...]

    def __post_init__(self) -> None:
        if not np.isfinite(self.length) or self.length < MIN_INTERVAL:
            raise ScheduleError(
                f"state interval length must be >= {MIN_INTERVAL}, got {self.length}"
            )
        volts = tuple(float(v) for v in self.voltages)
        if len(volts) == 0:
            raise ScheduleError("state interval needs at least one core")
        if any(v < 0 or not np.isfinite(v) for v in volts):
            raise ScheduleError(f"voltages must be finite and >= 0, got {volts}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "voltages", volts)

    @property
    def n_cores(self) -> int:
        return len(self.voltages)

    def with_length(self, length: float) -> "OldStateInterval":
        return OldStateInterval(length=length, voltages=self.voltages)


@dataclass(frozen=True)
class OldCoreSegment:
    length: float
    voltage: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.length) or self.length < MIN_INTERVAL:
            raise ScheduleError(
                f"segment length must be >= {MIN_INTERVAL}, got {self.length}"
            )
        if self.voltage < 0 or not np.isfinite(self.voltage):
            raise ScheduleError(f"segment voltage must be finite >= 0, got {self.voltage}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "voltage", float(self.voltage))


@dataclass(frozen=True)
class OldSchedule:
    intervals: tuple[OldStateInterval, ...]

    def __post_init__(self) -> None:
        ivs = tuple(self.intervals)
        if len(ivs) == 0:
            raise ScheduleError("a schedule needs at least one state interval")
        n = ivs[0].n_cores
        for q, iv in enumerate(ivs):
            if iv.n_cores != n:
                raise ScheduleError(
                    f"interval {q} has {iv.n_cores} cores, expected {n}"
                )
        object.__setattr__(self, "intervals", ivs)

    @property
    def n_cores(self) -> int:
        return self.intervals[0].n_cores

    @property
    def period(self) -> float:
        return float(sum(iv.length for iv in self.intervals))

    @property
    def lengths(self) -> np.ndarray:
        return np.array([iv.length for iv in self.intervals])

    @property
    def voltage_matrix(self) -> np.ndarray:
        return np.array([iv.voltages for iv in self.intervals])

    def core_timeline(self, core: int, merge: bool = True) -> list[OldCoreSegment]:
        if not (0 <= core < self.n_cores):
            raise ScheduleError(f"core {core} out of range [0, {self.n_cores})")
        segs: list[OldCoreSegment] = []
        for iv in self.intervals:
            v = iv.voltages[core]
            if merge and segs and abs(segs[-1].voltage - v) < 1e-12:
                segs[-1] = OldCoreSegment(length=segs[-1].length + iv.length, voltage=v)
            else:
                segs.append(OldCoreSegment(length=iv.length, voltage=v))
        return segs

    def scaled(self, factor: float) -> "OldSchedule":
        if factor <= 0:
            raise ScheduleError(f"scale factor must be > 0, got {factor}")
        return OldSchedule(
            tuple(iv.with_length(iv.length * factor) for iv in self.intervals)
        )

    def rotated(self, offset: float) -> "OldSchedule":
        period = self.period
        offset = float(offset) % period
        if offset < MIN_INTERVAL:
            return self
        timelines = []
        for core in range(self.n_cores):
            timelines.append(
                _old_rotate_segments(self.core_timeline(core, merge=False), offset)
            )
        return old_from_core_timelines(timelines)


def _old_rotate_segments(segs: list[OldCoreSegment], offset: float) -> list[OldCoreSegment]:
    period = sum(s.length for s in segs)
    offset = offset % period
    cut = period - offset  # old-time instant that becomes the new period start
    head: list[OldCoreSegment] = []  # old content in [0, cut): plays second
    tail: list[OldCoreSegment] = []  # old content in [cut, period): plays first
    t = 0.0
    for seg in segs:
        start, end = t, t + seg.length
        before = min(end, cut) - start
        if before >= MIN_INTERVAL:
            head.append(OldCoreSegment(length=before, voltage=seg.voltage))
        after = end - max(start, cut)
        if after >= MIN_INTERVAL:
            tail.append(OldCoreSegment(length=after, voltage=seg.voltage))
        t = end
    return tail + head


def _old_coerce_timeline(timeline) -> list[OldCoreSegment]:
    segs = []
    for item in timeline:
        if isinstance(item, OldCoreSegment):
            segs.append(item)
        else:
            length, voltage = item
            segs.append(OldCoreSegment(length=float(length), voltage=float(voltage)))
    if not segs:
        raise ScheduleError("each core timeline needs at least one segment")
    return segs


def old_from_core_timelines(
    timelines: Sequence[Sequence],
    atol: float = 1e-9,
) -> OldSchedule:
    if not timelines:
        raise ScheduleError("need at least one core timeline")
    per_core = [_old_coerce_timeline(t) for t in timelines]
    periods = [sum(s.length for s in segs) for segs in per_core]
    period = periods[0]
    for i, p in enumerate(periods[1:], start=1):
        if abs(p - period) > atol * max(period, 1.0):
            raise ScheduleError(
                f"core {i} period {p} != core 0 period {period}"
            )

    # Union of all switch instants.
    cuts = {0.0, period}
    for segs in per_core:
        t = 0.0
        for seg in segs[:-1]:
            t += seg.length
            cuts.add(min(t, period))
    grid = np.array(sorted(cuts))
    # Drop numerically-duplicate cuts.
    keep = np.concatenate([[True], np.diff(grid) > MIN_INTERVAL])
    grid = grid[keep]
    if grid[-1] < period - MIN_INTERVAL:
        grid = np.append(grid, period)

    # Voltage of each core within each gap.
    intervals = []
    mids = 0.5 * (grid[:-1] + grid[1:])
    core_volts = np.empty((len(mids), len(per_core)))
    for c, segs in enumerate(per_core):
        ends = np.cumsum([s.length for s in segs])
        ends[-1] = period  # absorb rounding drift
        idx = np.searchsorted(ends, mids, side="left")
        idx = np.clip(idx, 0, len(segs) - 1)
        core_volts[:, c] = [segs[k].voltage for k in idx]
    for q in range(len(mids)):
        intervals.append(
            OldStateInterval(length=float(grid[q + 1] - grid[q]), voltages=tuple(core_volts[q]))
        )
    return OldSchedule(tuple(intervals))


def old_two_mode_schedule(
    v_low,
    v_high,
    high_ratio,
    period: float,
    high_first: bool = False,
) -> OldSchedule:
    v_low = np.atleast_1d(np.asarray(v_low, dtype=float))
    v_high = np.atleast_1d(np.asarray(v_high, dtype=float))
    ratio = np.atleast_1d(np.asarray(high_ratio, dtype=float))
    n = max(v_low.size, v_high.size, ratio.size)
    v_low, v_high, ratio = (
        np.broadcast_to(v_low, n).astype(float),
        np.broadcast_to(v_high, n).astype(float),
        np.broadcast_to(ratio, n).astype(float),
    )
    if np.any((ratio < -1e-12) | (ratio > 1 + 1e-12)):
        raise ScheduleError(f"high_ratio must be within [0, 1], got {ratio}")
    if np.any(v_high < v_low):
        raise ScheduleError("two_mode_schedule requires v_high >= v_low per core")
    ratio = np.clip(ratio, 0.0, 1.0)
    if period <= 0:
        raise ScheduleError(f"period must be > 0, got {period}")

    timelines = []
    for c in range(n):
        t_high = ratio[c] * period
        t_low = period - t_high
        segs: list[tuple[float, float]] = []
        first = (t_high, v_high[c]) if high_first else (t_low, v_low[c])
        second = (t_low, v_low[c]) if high_first else (t_high, v_high[c])
        for length, v in (first, second):
            if length >= MIN_INTERVAL:
                segs.append((length, v))
        if not segs:  # degenerate: zero-length everything cannot happen (period > 0)
            segs.append((period, v_low[c]))
        timelines.append(segs)
    return old_from_core_timelines(timelines)


def old_phase_schedule(
    v_low,
    v_high,
    high_length,
    high_start,
    period: float,
) -> OldSchedule:
    v_low = np.atleast_1d(np.asarray(v_low, dtype=float))
    v_high = np.atleast_1d(np.asarray(v_high, dtype=float))
    h_len = np.atleast_1d(np.asarray(high_length, dtype=float))
    h_start = np.atleast_1d(np.asarray(high_start, dtype=float))
    n = max(v_low.size, v_high.size, h_len.size, h_start.size)
    v_low = np.broadcast_to(v_low, n).astype(float)
    v_high = np.broadcast_to(v_high, n).astype(float)
    h_len = np.broadcast_to(h_len, n).astype(float)
    h_start = np.broadcast_to(h_start, n).astype(float)
    if period <= 0:
        raise ScheduleError(f"period must be > 0, got {period}")
    if np.any((h_len < 0) | (h_len > period + 1e-12)):
        raise ScheduleError("high_length must lie in [0, period]")

    timelines = []
    for c in range(n):
        start = float(h_start[c]) % period
        length = min(float(h_len[c]), period)
        segs: list[tuple[float, float]] = []
        if length < MIN_INTERVAL:
            segs = [(period, v_low[c])]
        elif length > period - MIN_INTERVAL:
            segs = [(period, v_high[c])]
        else:
            end = start + length
            if end <= period + MIN_INTERVAL:
                end = min(end, period)
                if start >= MIN_INTERVAL:
                    segs.append((start, v_low[c]))
                segs.append((end - start, v_high[c]))
                if period - end >= MIN_INTERVAL:
                    segs.append((period - end, v_low[c]))
            else:  # wraps around the period end
                wrap = end - period
                segs.append((wrap, v_high[c]))
                segs.append((start - wrap, v_low[c]))
                segs.append((period - start, v_high[c]))
        timelines.append(segs)
    return old_from_core_timelines(timelines)


def old_step_up(schedule: OldSchedule) -> OldSchedule:
    timelines = []
    for core in range(schedule.n_cores):
        segs = schedule.core_timeline(core, merge=True)
        segs = sorted(segs, key=lambda s: s.voltage)
        timelines.append(segs)
    return old_from_core_timelines(timelines)


def old_m_oscillate_core(schedule: OldSchedule, core: int, m: int) -> OldSchedule:
    if m < 1 or int(m) != m:
        raise ScheduleError(f"m must be a positive integer, got {m}")
    if not (0 <= core < schedule.n_cores):
        raise ScheduleError(f"core {core} out of range [0, {schedule.n_cores})")
    m = int(m)
    timelines = []
    for c in range(schedule.n_cores):
        segs = schedule.core_timeline(c, merge=True)
        if c == core and m > 1:
            cycle = [OldCoreSegment(length=s.length / m, voltage=s.voltage) for s in segs]
            segs = cycle * m
        timelines.append(segs)
    return old_from_core_timelines(timelines)


def old_shift_core(schedule: OldSchedule, core: int, offset: float) -> OldSchedule:
    if not (0 <= core < schedule.n_cores):
        raise ScheduleError(f"core {core} out of range [0, {schedule.n_cores})")
    timelines = []
    for c in range(schedule.n_cores):
        segs = schedule.core_timeline(c, merge=False)
        if c == core:
            segs = _old_rotate_segments(segs, float(offset))
        timelines.append(segs)
    return old_from_core_timelines(timelines)


def old_merge_adjacent(schedule: OldSchedule) -> OldSchedule:
    merged: list[OldStateInterval] = []
    for iv in schedule.intervals:
        if merged and merged[-1].voltages == iv.voltages:
            merged[-1] = OldStateInterval(
                length=merged[-1].length + iv.length, voltages=iv.voltages
            )
        else:
            merged.append(iv)
    return OldSchedule(tuple(merged))


def old_schedule_from_dict(data: dict) -> OldSchedule:
    """The deserializer's checks over the interval objects: every field is
    parsed first, then each item becomes one interval, in document order."""
    if data.get("format") != "repro.schedule":
        raise ScheduleError(f"not a repro schedule document: {data.get('format')!r}")
    if data.get("version") != 1:
        raise ScheduleError(
            f"unsupported schedule format version {data.get('version')!r} "
            f"(this library reads version 1)"
        )
    try:
        parsed = [
            (float(item["length_s"]), [float(v) for v in item["voltages"]])
            for item in data["intervals"]
        ]
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    schedule = OldSchedule(
        tuple(OldStateInterval(length, tuple(row)) for length, row in parsed)
    )
    declared = data.get("n_cores")
    if declared is not None and declared != schedule.n_cores:
        raise ScheduleError(
            f"document declares {declared} cores but intervals have "
            f"{schedule.n_cores}"
        )
    return schedule


def old_schedule_to_dict(schedule: OldSchedule) -> dict:
    return {
        "format": "repro.schedule",
        "version": 1,
        "n_cores": schedule.n_cores,
        "period_s": schedule.period,
        "intervals": [
            {"length_s": iv.length, "voltages": list(iv.voltages)}
            for iv in schedule.intervals
        ],
    }


# ----------------------------------------------------------------------
# comparison helpers and input generators
# ----------------------------------------------------------------------


def to_old(schedule: PeriodicSchedule) -> OldSchedule:
    """The same schedule in the oracle's representation."""
    return OldSchedule(
        tuple(OldStateInterval(length, volts) for length, volts in schedule.interval_rows())
    )


def assert_same(new: PeriodicSchedule, old: OldSchedule) -> None:
    """Bitwise equality of lengths, voltages, period and wire document."""
    assert np.array_equal(new.lengths, old.lengths)
    assert np.array_equal(new.voltage_matrix, old.voltage_matrix)
    assert new.period.hex() == old.period.hex()
    assert schedule_to_dict(new) == old_schedule_to_dict(old)
    # Consumers reduce over the arrays (eq.-5 throughput): the memory
    # layout fixes the summation order, so it must match too.
    assert throughput(new) == throughput(old)


def assert_same_outcome(new_fn, old_fn) -> None:
    """Both accept with bit-identical output, or both raise ScheduleError."""
    try:
        # The oracle's scalar NumPy arithmetic on non-finite input warns
        # before it rejects; only the outcome is compared.
        with np.errstate(all="ignore"):
            old = old_fn()
    except ScheduleError:
        with pytest.raises(ScheduleError):
            new_fn()
        return
    assert_same(new_fn(), old)


def edge_ratios(rng: np.random.Generator, n: int, period: float) -> np.ndarray:
    """Per-core ratios mixing 0, 1, ties and values within MIN_INTERVAL of the edges."""
    eps = MIN_INTERVAL / period
    pool = np.array([
        0.0, 1.0, 0.5, 0.5,
        eps * 0.5, eps, eps * 1.5, 1 - eps * 0.5, 1 - eps, 1 - eps * 1.5,
    ])
    r = rng.uniform(0, 1, n)
    pick = rng.random(n) < 0.4
    r[pick] = rng.choice(pool, pick.sum())
    if n > 1 and rng.random() < 0.3:
        r[rng.integers(n)] = r[0]  # a tie
    return np.clip(r, 0.0, 1.0)


def random_modes(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo = rng.choice(LEVELS, n)
    hi = np.maximum(lo, rng.choice(LEVELS, n))
    return lo, hi


def random_old_schedule(rng: np.random.Generator, n: int) -> OldSchedule:
    period = 0.02 / int(rng.integers(1, 65))
    timelines = []
    for _ in range(n):
        k = int(rng.integers(1, 5))
        w = np.maximum(rng.dirichlet(np.ones(k)), 1e-3)
        w /= w.sum()
        timelines.append(
            [(float(x * period), float(v)) for x, v in zip(w, rng.choice(LEVELS, k))]
        )
    return old_from_core_timelines(timelines)


def shift_offsets(rng: np.random.Generator, period: float) -> list[float]:
    """0, a full cycle, wrapping and negative offsets, and random ones."""
    return [
        0.0, period, 2 * period, -0.3 * period, 1.7 * period,
        MIN_INTERVAL * 0.5, period - MIN_INTERVAL * 0.5,
        float(rng.uniform(0, period)), float(rng.uniform(-3, 3) * period),
    ]


# ----------------------------------------------------------------------
# parity on random inputs
# ----------------------------------------------------------------------


class TestBuilderParity:
    def test_two_mode_schedule(self):
        rng = np.random.default_rng(1)
        for _ in range(1500):
            n = int(rng.integers(1, 17))
            period = 0.02 / int(rng.integers(1, 65))
            lo, hi = random_modes(rng, n)
            r = edge_ratios(rng, n, period)
            high_first = bool(rng.random() < 0.2)
            assert_same(
                two_mode_schedule(lo, hi, r, period, high_first=high_first),
                old_two_mode_schedule(lo, hi, r, period, high_first=high_first),
            )

    def test_phase_schedule(self):
        rng = np.random.default_rng(2)
        for _ in range(1500):
            n = int(rng.integers(1, 17))
            period = 0.02 / int(rng.integers(1, 65))
            lo, hi = random_modes(rng, n)
            h_len = edge_ratios(rng, n, period) * period
            h_start = rng.uniform(-2, 3, n) * period
            pick = rng.random(n) < 0.3
            h_start[pick] = rng.choice(
                [0.0, period, period - h_len[0], MIN_INTERVAL * 0.5], pick.sum()
            )
            assert_same_outcome(
                lambda: phase_schedule(lo, hi, h_len, h_start, period),
                lambda: old_phase_schedule(lo, hi, h_len, h_start, period),
            )

    def test_from_core_timelines(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 17))
            old = random_old_schedule(rng, n)
            timelines = [old.core_timeline(c, merge=False) for c in range(n)]
            pairs = [[(s.length, s.voltage) for s in segs] for segs in timelines]
            assert_same(from_core_timelines(pairs), old_from_core_timelines(pairs))

    def test_transforms(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            old = random_old_schedule(rng, n)
            new = PeriodicSchedule(old.lengths, old.voltage_matrix)
            assert_same(new, old)
            assert_same(step_up(new), old_step_up(old))
            assert_same(merge_adjacent(new), old_merge_adjacent(old))
            factor = float(rng.choice([0.5, 1 / 3, 1 / 7, 2.0]))
            assert_same(new.scaled(factor), old.scaled(factor))
            core = int(rng.integers(n))
            m = int(rng.integers(1, 5))
            assert_same(m_oscillate_core(new, core, m), old_m_oscillate_core(old, core, m))
            for offset in shift_offsets(rng, old.period)[:4]:
                assert_same_outcome(
                    lambda: new.rotated(offset), lambda: old.rotated(offset)
                )
            seg_len, seg_v, counts = core_runs(new.lengths, new.voltage_matrix)
            for c in range(n):
                merged = zip(seg_len[c, : counts[c]].tolist(), seg_v[c, : counts[c]].tolist())
                unmerged = zip(new.lengths.tolist(), new.voltage_matrix[:, c].tolist())
                for got, merge in ((merged, True), (unmerged, False)):
                    want = old.core_timeline(c, merge=merge)
                    assert list(got) == [(s.length, s.voltage) for s in want]

    def test_shift_core(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            period = 0.02 / int(rng.integers(1, 65))
            lo, hi = random_modes(rng, n)
            r = edge_ratios(rng, n, period)
            new = two_mode_schedule(lo, hi, r, period)
            old = old_two_mode_schedule(lo, hi, r, period)
            core = int(rng.integers(n))
            for offset in shift_offsets(rng, period):
                assert_same(shift_core(new, core, offset), old_shift_core(old, core, offset))

    def test_shift_cores_matches_sequential_shifts(self):
        """The one-pass multi-core shift of the headroom fill."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            period = 0.02 / int(rng.integers(1, 65))
            lo, hi = random_modes(rng, n)
            r = edge_ratios(rng, n, period)
            grid = [k * period / 8 for k in range(8)]
            offsets = {
                c: float(rng.choice(grid[1:]))
                for c in range(n) if rng.random() < 0.6
            }
            old = old_two_mode_schedule(lo, hi, r, period)
            for core, off in offsets.items():
                old = old_shift_core(old, core, off)
            assert_same(shift_cores(two_mode_schedule(lo, hi, r, period), offsets), old)


def seq_shift_core_arrays(
    lengths: np.ndarray, volts: np.ndarray, core: int, offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """The one-schedule array shift that the row form replaced, verbatim."""
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


def stacked(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(z, lengths, volts)`` rows of ``(lengths, volts)`` pairs, zero-padded."""
    z = np.array([ls.size for ls, _ in pairs], dtype=int)
    width = int(z.max())
    lengths = np.zeros((len(pairs), width))
    volts = np.zeros((len(pairs), width, pairs[0][1].shape[1]))
    for i, (ls, vs) in enumerate(pairs):
        lengths[i, : ls.size] = ls
        volts[i, : ls.size] = vs
    return z, lengths, volts


def shift_error(fn) -> str | None:
    try:
        fn()
    except ScheduleError as exc:
        return str(exc)
    return None


class TestShiftRows:
    """The K-row shift against the sequential one-schedule shift, bit for bit."""

    @staticmethod
    def random_pairs(rng: np.random.Generator, n: int, k: int):
        """Step-up schedules and already-shifted ones, with varying z."""
        pairs = []
        for _ in range(k):
            period = 0.02 / int(rng.integers(1, 65))
            s = random_stepup_schedule(
                n, rng, max_segments=int(rng.integers(1, 5)), period=period
            )
            pair = (s.lengths, s.voltage_matrix)
            for _ in range(int(rng.integers(0, 3))):
                pair = seq_shift_core_arrays(
                    *pair, int(rng.integers(n)), float(rng.uniform(0, period))
                )
            pairs.append(pair)
        return pairs

    @staticmethod
    def offset_for(rng: np.random.Generator, lengths: np.ndarray) -> float:
        """0, whole and wrapping periods, and cuts within MIN_INTERVAL of a boundary."""
        period = float(sum(lengths.tolist()))
        bounds = np.concatenate(([0.0], np.cumsum(lengths)))
        near = period - float(rng.choice(bounds))
        return float(rng.choice([
            0.0, period, 2 * period, 2.5 * period, -0.3 * period,
            near + MIN_INTERVAL * 0.5, near - MIN_INTERVAL * 0.5, near,
            rng.uniform(0, period), rng.uniform(-3, 3) * period,
        ]))

    def test_matches_sequential_shifts(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(1, 10))
            pairs = self.random_pairs(rng, n, int(rng.integers(1, 8)))
            core = 0 if trial % 4 == 0 else int(rng.integers(n))
            offsets = np.array([self.offset_for(rng, ls) for ls, _ in pairs])
            z, lengths, volts = shift_core_rows(*stacked(pairs), core, offsets)
            want = [
                seq_shift_core_arrays(ls, vs, core, off)
                for (ls, vs), off in zip(pairs, offsets.tolist())
            ]
            assert lengths.shape[1] == max(ls.size for ls, _ in want)
            for i, (ls, vs) in enumerate(want):
                assert z[i] == ls.size
                assert lengths[i, : z[i]].tobytes() == ls.tobytes()
                assert volts[i, : z[i]].tobytes() == np.ascontiguousarray(vs).tobytes()
                assert not lengths[i, z[i] :].any()
                assert not volts[i, z[i] :].any()

    def test_scalar_offset_and_no_rows(self):
        rng = np.random.default_rng(8)
        pairs = self.random_pairs(rng, 4, 3)
        z, lengths, volts = shift_core_rows(*stacked(pairs), 2, 0.001)
        for i, (ls, vs) in enumerate(pairs):
            want = seq_shift_core_arrays(ls, vs, 2, 0.001)
            assert lengths[i, : z[i]].tobytes() == want[0].tobytes()
        empty = (np.zeros(0, dtype=int), np.zeros((0, 5)), np.zeros((0, 5, 4)))
        z, lengths, volts = shift_core_rows(*empty, 1, np.zeros(0))
        assert (z.shape, lengths.shape, volts.shape) == ((0,), (0, 0), (0, 0, 4))

    def test_period_mismatch_message(self):
        # Sub-MIN_INTERVAL intervals (rows are unchecked) drop out of the
        # shifted core's timeline, so its period falls short of the others'.
        good = (np.array([0.5, 0.5]), np.tile([0.6, 0.8, 1.0], (2, 1)))
        short = (
            np.array([0.4e-12] * 4000 + [1.0]),
            np.tile([0.6, 0.8, 1.0], (4001, 1)),
        )
        for core in (0, 1, 2):
            want = shift_error(lambda: seq_shift_core_arrays(*short, core, 0.3))
            assert want is not None and "period" in want
            got = shift_error(
                lambda: shift_core_rows(*stacked([good, short, good]), core, 0.3)
            )
            assert got == want


# ----------------------------------------------------------------------
# parity on hypothesis-drawn edge cases
# ----------------------------------------------------------------------


def _cores(draw, n, elements):
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)))


@st.composite
def two_mode_inputs(draw):
    n = draw(st.integers(1, 16))
    period = 0.02 / draw(st.integers(1, 64))
    eps = MIN_INTERVAL / period
    ratio = st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, eps / 2, eps, 1 - eps, 1 - eps / 2]),
        st.floats(0.0, 1.0),
    )
    level = st.sampled_from(LEVELS)
    lo = _cores(draw, n, level)
    hi = np.maximum(lo, _cores(draw, n, level))
    return lo, hi, _cores(draw, n, ratio), period, draw(st.booleans())


@st.composite
def phase_inputs(draw):
    lo, hi, ratio, period, _ = draw(two_mode_inputs())
    n = lo.size
    start = st.one_of(
        st.sampled_from([0.0, period, -period, 2.5 * period, MIN_INTERVAL / 2]),
        st.floats(-3 * period, 3 * period),
    )
    return lo, hi, ratio * period, _cores(draw, n, start), period


class TestHypothesisParity:
    @settings(max_examples=200)
    @given(two_mode_inputs())
    def test_two_mode_schedule(self, args):
        lo, hi, ratio, period, high_first = args
        assert_same(
            two_mode_schedule(lo, hi, ratio, period, high_first=high_first),
            old_two_mode_schedule(lo, hi, ratio, period, high_first=high_first),
        )

    @settings(max_examples=200)
    @given(phase_inputs())
    def test_phase_schedule(self, args):
        assert_same_outcome(
            lambda: phase_schedule(*args), lambda: old_phase_schedule(*args)
        )

    @settings(max_examples=100)
    @given(two_mode_inputs(), st.data())
    def test_shift_and_step_up(self, args, data):
        lo, hi, ratio, period, high_first = args
        new = two_mode_schedule(lo, hi, ratio, period, high_first=high_first)
        old = old_two_mode_schedule(lo, hi, ratio, period, high_first=high_first)
        core = data.draw(st.integers(0, lo.size - 1))
        offset = data.draw(st.one_of(
            st.sampled_from([0.0, period, -period, 1.5 * period]),
            st.floats(-2 * period, 2 * period),
        ))
        assert_same(shift_core(new, core, offset), old_shift_core(old, core, offset))
        assert_same(step_up(new), old_step_up(old))


# ----------------------------------------------------------------------
# representation: value semantics
# ----------------------------------------------------------------------


class TestRepresentation:
    def test_arrays_are_read_only(self):
        s = two_mode_schedule([0.6, 0.8], [1.3, 1.3], [0.3, 0.6], 0.02)
        for arr in (s.lengths, s.voltage_matrix):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            s.period = 1.0  # type: ignore[misc]

    def test_constructor_copies_its_input(self):
        lengths, volts = np.array([0.5, 0.5]), np.array([[0.6], [1.3]])
        s = PeriodicSchedule(lengths, volts)
        lengths[0], volts[0, 0] = 9.0, 9.0
        assert s.lengths[0] == 0.5 and s.voltage_matrix[0, 0] == 0.6

    def test_equality_and_hash_match_the_dataclass(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            old = random_old_schedule(rng, int(rng.integers(1, 6)))
            new = PeriodicSchedule(old.lengths, old.voltage_matrix)
            assert hash(new) == hash(old)
            rows = new.interval_rows()
            assert hash(new) == hash((tuple((l, tuple(v)) for l, v in rows),))
            again = PeriodicSchedule([l for l, _ in rows], [v for _, v in rows])
            assert again == new and hash(again) == hash(new)
        a = PeriodicSchedule([0.5, 0.5], [[0.6], [1.3]])
        assert a != PeriodicSchedule([0.5, 0.5], [[0.6], [1.2]])
        assert a != PeriodicSchedule([1.0], [[0.6]])
        assert a != PeriodicSchedule([0.5, 0.5], [[0.6, 0.6], [1.3, 1.3]])
        assert a != "not a schedule"

    def test_pickle_round_trips_the_arrays(self):
        s = two_mode_schedule([0.6, 0.8], [1.3, 1.3], [0.3, 0.6], 0.02)
        assert s.__reduce__() == (PeriodicSchedule, (s.lengths, s.voltage_matrix))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(s, protocol))
            assert back == s and hash(back) == hash(s)
            assert not back.lengths.flags.writeable
            assert not back.voltage_matrix.flags.writeable
            assert_same(back, to_old(s))

    def test_wire_document_round_trips_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            old = random_old_schedule(rng, int(rng.integers(1, 9)))
            back = schedule_from_dict(old_schedule_to_dict(old))
            assert_same(back, old)


# ----------------------------------------------------------------------
# validation: same inputs rejected, same messages
# ----------------------------------------------------------------------

BAD_NUMBERS = [0.0, -1.0, 5e-13, float("nan"), float("inf"), -float("inf")]
GOOD_NUMBERS = [1e-12, 0.5, 1, np.float64(0.25), True]


def _message(fn) -> str | None:
    try:
        fn()
    except ScheduleError as exc:
        return str(exc)
    return None


class TestValidation:
    @pytest.mark.parametrize("length", BAD_NUMBERS + GOOD_NUMBERS)
    @pytest.mark.parametrize("volt", [0.0, 1.3, -0.1, float("nan"), float("inf")])
    def test_primitives_match_oracle(self, length, volt):
        assert _message(lambda: PeriodicSchedule([length], [[0.6, volt]])) == _message(
            lambda: OldStateInterval(length, (0.6, volt))
        )
        with np.errstate(all="ignore"):
            want = _message(lambda: old_from_core_timelines([[(length, volt)]]))
        assert _message(lambda: from_core_timelines([[(length, volt)]])) == want
        assert _message(
            lambda: PeriodicSchedule([0.5, length], [[0.6], [volt]])
        ) == _message(
            lambda: OldSchedule(
                (OldStateInterval(0.5, (0.6,)), OldStateInterval(length, (volt,)))
            )
        )

    def test_empty_and_ragged(self):
        assert _message(lambda: PeriodicSchedule([1.0], [[]])) == _message(
            lambda: OldStateInterval(1.0, ())
        )
        for lengths, volts in (
            ([], []), ([1.0], [[]]), ([1.0, 1.0], [[0.6], [0.6, 0.6]]),
            ([1.0], [[0.6], [0.6]]), ([[1.0]], [[0.6]]),
        ):
            with pytest.raises(ScheduleError):
                PeriodicSchedule(lengths, volts)

    def test_serialization_rejects_what_it_did(self):
        good = schedule_to_dict(PeriodicSchedule([0.5, 0.5], [[0.6], [1.3]]))
        cases = [
            {"intervals": []},
            {"intervals": [{"length_s": 0.5}]},
            {"intervals": [{"length_s": -0.5, "voltages": [0.6]}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6]},
                           {"length_s": 0.5, "voltages": [0.6, 0.6]}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6]},
                           {"length_s": 0.5, "voltages": [-1.0, 0.6]}]},
            {"intervals": [{"length_s": 0.5, "voltages": []}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6]},
                           {"length_s": 0.5, "voltages": [0.6, 0.6]},
                           {"length_s": 0.0, "voltages": [0.6]}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6, 0.6]},
                           {"length_s": 0.5, "voltages": [0.6]},
                           {"length_s": 0.5, "voltages": [0.6, float("nan")]}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6]},
                           {"length_s": 0.5, "voltages": []}]},
            {"intervals": [{"length_s": -0.5, "voltages": [0.6]},
                           {"length_s": 0.5}]},
            {"intervals": [{"length_s": 0.5, "voltages": [0.6]}, {"length_s": None}]},
            {"intervals": None},
            {"n_cores": 3},
            {"format": "other"},
            {"version": 2},
        ]
        for patch in cases:
            doc = dict(good, **patch)
            want = _message(lambda: old_schedule_from_dict(doc))
            assert want is not None, patch
            assert _message(lambda: schedule_from_dict(doc)) == want, patch

    def test_builders_reject_what_they_did(self):
        nan, inf = float("nan"), float("inf")
        for args in (
            ([0.6], [1.3], [0.5], nan), ([0.6], [1.3], [0.5], inf),
            ([0.6], [1.3], [0.5], 0.0), ([0.6], [1.3], [1.5], 1.0),
            ([1.3], [0.6], [0.5], 1.0), ([0.6], [nan], [0.5], 1.0),
            ([-0.6], [1.3], [0.5], 1.0), ([0.6], [1.3], [0.5], 1e-12),
        ):
            assert_same_outcome(
                lambda: two_mode_schedule(*args), lambda: old_two_mode_schedule(*args)
            )
        for args in (
            ([0.6], [1.3], [0.5], [nan], 1.0), ([0.6], [1.3], [0.5], [inf], 1.0),
            ([0.6], [1.3], [0.0], [inf], 1.0), ([0.6], [1.3], [nan], [0.2], 1.0),
            ([0.6], [1.3], [2.0], [0.2], 1.0), ([0.6], [1.3], [0.5], [0.2], inf),
            ([0.6], [1.3], [1e-12], [1.0 - 5e-13], 1.0), ([0.6], [-1.3], [0.5], [0.0], 1.0),
        ):
            assert_same_outcome(
                lambda: phase_schedule(*args), lambda: old_phase_schedule(*args)
            )
        for timelines in (
            [], [[]], [[(1.0, 0.6)], []], [[(1.0, 0.6)], [(0.9, 0.6)]],
            [[(0.5, 0.6), (-0.5, 0.6)]], [[(1.0, nan)]], [[(1.0, 0.6)], [(inf, 0.6)]],
        ):
            assert_same_outcome(
                lambda: from_core_timelines(timelines),
                lambda: old_from_core_timelines(timelines),
            )
        s = two_mode_schedule([0.6], [1.3], [1e-6], 1e-6)
        with pytest.raises(ScheduleError):
            m_oscillate_core(s, 0, 10**7)
        with pytest.raises(ScheduleError):
            shift_cores(s, {3: 0.1})
        with pytest.raises(ScheduleError):
            s.scaled(nan)
