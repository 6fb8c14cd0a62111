"""Peak temperature identification for periodic schedules.

Two paths, mirroring the paper's central computational argument:

* :func:`stepup_peak_temperature` — for *step-up* schedules, Theorem 1
  puts the stable-status peak at the period end, so the peak is just the
  fixed point's final boundary temperature: **O(z) matrix operations, no
  search**.
* :func:`peak_temperature` — for arbitrary schedules the peak may fall
  strictly inside an interval, so we run the MatEx-style analytic extrema
  search in every interval of the stable status (the expensive general
  case; this is what PCO pays for its spatial interleaving).

Both report the peak over *core* nodes, since Problem 1 constrains core
temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import is_step_up
from repro.thermal.matex import stacked_peak, stacked_temperatures
from repro.thermal.model import ThermalModel
from repro.thermal.periodic import periodic_steady_state

__all__ = ["PeakResult", "peak_temperature", "stepup_peak_temperature"]


@dataclass(frozen=True)
class PeakResult:
    """Where/when the stable-status peak occurs.

    Attributes
    ----------
    value:
        Peak core temperature above ambient (K).
    core:
        Index of the hottest core.
    time:
        Time within the period (seconds from the period start).
    core_peaks:
        ``(n_cores,)`` per-core stable-status maxima — the AO ratio
        adjustment ranks cores by these.
    """

    value: float
    core: int
    time: float
    core_peaks: np.ndarray

    def celsius(self, model: ThermalModel) -> float:
        """The peak in Celsius."""
        return float(self.value + model.t_ambient_c)


def stepup_peak_temperature(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> PeakResult:
    """Theorem-1 fast path: stable peak of a step-up schedule.

    Theorem 1 places the peak at the period end, which one stable-status
    solve yields in O(z) matrix operations.  Our reproduction found the
    statement holds only up to a *wrap-continuation epsilon*: a core whose
    voltage is constant across the period wrap keeps the sign of its
    temperature derivative through the wrap (its own power is unchanged
    and its neighbours are still hot), so it can continue rising for a
    short while into the next period and overshoot the period-end value —
    by up to ~0.7 K in randomized step-up schedules on the calibrated
    chip.  With ``wrap_refine`` (default) a vectorized dense grid over the
    stable-status period catches these humps; the cost stays linear in z
    and far below the general engine's refined search.  Pass
    ``wrap_refine=False`` for the literal Theorem-1 value (used by the
    ablation benchmarks).

    Parameters
    ----------
    check:
        Verify the schedule is actually step-up (raise otherwise).  Turn
        off only in hot loops that construct step-up schedules by design.
    wrap_refine:
        Also grid-scan the stable period for wrap-continuation humps.
    grid:
        Samples per interval for the wrap scan.
    """
    if check and not is_step_up(schedule):
        raise ScheduleError(
            "stepup_peak_temperature requires a step-up schedule; "
            "use peak_temperature for arbitrary schedules"
        )
    solution = periodic_steady_state(model, schedule)
    cores = model.network.core_nodes
    end = solution.end_temperature[cores]
    core_peaks = end.copy()
    core_idx = int(np.argmax(end))
    best_val = float(end[core_idx])
    best_time = schedule.period

    if wrap_refine:
        # One stacked grid.  The flat argmax (first occurrence in interval,
        # sample, core order) is what a scan of interval after interval
        # that keeps only strict improvements picks.
        times, temps = solution.grid(model, grid)
        temps = temps[:, :, cores]
        np.maximum(core_peaks, temps.max(axis=(0, 1)), out=core_peaks)
        q, ti, ci = np.unravel_index(int(np.argmax(temps)), temps.shape)
        if temps[q, ti, ci] > best_val:
            best_val = float(temps[q, ti, ci])
            core_idx = int(ci)
            best_time = float(schedule.boundaries[q] + times[q, ti])

    return PeakResult(
        value=best_val,
        core=core_idx,
        time=best_time,
        core_peaks=core_peaks,
    )


def peak_temperature(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> PeakResult:
    """Stable-status peak core temperature of an arbitrary periodic schedule.

    Runs the analytic extrema search of :mod:`repro.thermal.matex` inside
    every state interval.  When the schedule happens to be step-up and
    ``stepup_fast_path`` is set, falls back to the O(z) Theorem-1 path.
    """
    if stepup_fast_path and is_step_up(schedule):
        return stepup_peak_temperature(model, schedule, check=False)

    solution = periodic_steady_state(model, schedule)
    cores = model.network.core_nodes
    n_cores = cores.shape[0]

    # One grid serves the per-core maxima and the refined global peak.
    lam = model.eigen.eigenvalues
    t_inf, modal = solution.modal_stack(model)
    times = np.linspace(0.0, schedule.lengths, max(grid_per_interval, 2), axis=1)
    temps = stacked_temperatures(t_inf, modal, lam, times)[:, :, cores]
    core_peaks = temps.max(axis=(0, 1))
    value, core, q, when = stacked_peak(
        t_inf, modal, lam, times, temps, cores, refine=refine
    )
    core_peaks = np.maximum(core_peaks, value * (np.arange(n_cores) == core))
    return PeakResult(
        value=value,
        core=core,
        time=float(schedule.boundaries[q] + when),
        core_peaks=core_peaks,
    )

