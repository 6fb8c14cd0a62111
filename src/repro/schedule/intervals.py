"""Primitive schedule pieces: state intervals and per-core segments.

A **state interval** (section II-A) is a stretch of time in which *every*
core holds a fixed running mode; a periodic schedule is a sequence of
them.  A **core segment** is the per-core view: one core holding one
voltage for some duration.  Builders convert between the two
(:func:`repro.schedule.builders.from_core_timelines`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ScheduleError

__all__ = ["StateInterval", "CoreSegment", "MIN_INTERVAL"]

#: Durations below this (seconds) are treated as degenerate and rejected or
#: dropped by builders.  Far below any DVFS-relevant timescale.
MIN_INTERVAL = 1e-12


@dataclass(frozen=True)
class StateInterval:
    """One state interval: every core pinned to a voltage for ``length`` s.

    Attributes
    ----------
    length:
        Duration in seconds (strictly positive).
    voltages:
        Tuple of per-core supply voltages (0.0 = idle core).
    """

    length: float
    voltages: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.length) or self.length < MIN_INTERVAL:
            raise ScheduleError(
                f"state interval length must be >= {MIN_INTERVAL}, got {self.length}"
            )
        volts = tuple(float(v) for v in self.voltages)
        if len(volts) == 0:
            raise ScheduleError("state interval needs at least one core")
        if any(v < 0 or not math.isfinite(v) for v in volts):
            raise ScheduleError(f"voltages must be finite and >= 0, got {volts}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "voltages", volts)

    @property
    def n_cores(self) -> int:
        """Number of cores this interval describes."""
        return len(self.voltages)

    def with_length(self, length: float) -> "StateInterval":
        """Copy with a different duration (used by the m-oscillating scale)."""
        return StateInterval(length=length, voltages=self.voltages)

    def with_voltage(self, core: int, v: float) -> "StateInterval":
        """Copy with one core's voltage replaced."""
        if not (0 <= core < self.n_cores):
            raise ScheduleError(f"core {core} out of range [0, {self.n_cores})")
        volts = list(self.voltages)
        volts[core] = float(v)
        return StateInterval(length=self.length, voltages=tuple(volts))


@dataclass(frozen=True)
class CoreSegment:
    """One core holding one voltage for ``length`` seconds."""

    length: float
    voltage: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.length) or self.length < MIN_INTERVAL:
            raise ScheduleError(
                f"segment length must be >= {MIN_INTERVAL}, got {self.length}"
            )
        if self.voltage < 0 or not math.isfinite(self.voltage):
            raise ScheduleError(f"segment voltage must be finite >= 0, got {self.voltage}")
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "voltage", float(self.voltage))
