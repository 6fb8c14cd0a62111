"""Piecewise-constant transient simulation of periodic schedules.

Propagates eq. (3) interval by interval using the cached eigendecomposition
(each interval costs two dense mat-vecs), optionally recording dense
temperature traces for plotting/validation (Fig. 4's experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ThermalModelError
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.matex import interval_solution
from repro.thermal.model import ThermalModel
from repro.util.validation import as_1d_float

__all__ = ["TraceResult", "simulate_piecewise", "simulate_schedule_period"]


@dataclass(frozen=True)
class TraceResult:
    """A sampled temperature trace.

    Attributes
    ----------
    times:
        ``(n_samples,)`` sample instants in seconds from the trace start.
    temperatures:
        ``(n_samples, n_nodes)`` node temperatures above ambient (K).
    end_temperature:
        ``(n_nodes,)`` exact state at the final instant (independent of the
        sampling grid).
    """

    times: np.ndarray
    temperatures: np.ndarray
    end_temperature: np.ndarray

    def core_trace(self, model: ThermalModel) -> np.ndarray:
        """Restrict the trace to core nodes."""
        return self.temperatures[:, model.network.core_nodes]


def simulate_schedule_period(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    theta0: np.ndarray,
) -> np.ndarray:
    """Exact temperatures at the period end after one pass of the schedule.

    This is the cheap building block (no sampling): one closed-form
    propagation per state interval.
    """
    theta = as_1d_float(theta0, "theta0", model.n_nodes).copy()
    for length, volts in schedule.interval_rows():
        theta = model.propagate(theta, length, volts)
    return theta


def simulate_piecewise(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    theta0: np.ndarray | None = None,
    periods: int = 1,
    samples_per_interval: int = 16,
) -> TraceResult:
    """Simulate ``periods`` repetitions of the schedule, recording a trace.

    Parameters
    ----------
    model:
        The thermal model.
    schedule:
        The periodic schedule to run.
    theta0:
        Starting temperatures (default: ambient, i.e. zeros).
    periods:
        Number of schedule repetitions to simulate.
    samples_per_interval:
        Dense samples recorded inside each state interval (>= 2).
    """
    if periods < 1:
        raise ThermalModelError(f"periods must be >= 1, got {periods}")
    if samples_per_interval < 2:
        raise ThermalModelError(
            f"samples_per_interval must be >= 2, got {samples_per_interval}"
        )
    if theta0 is None:
        theta0 = np.zeros(model.n_nodes)
    theta = as_1d_float(theta0, "theta0", model.n_nodes).copy()

    all_times: list[np.ndarray] = []
    all_temps: list[np.ndarray] = []
    t_base = 0.0
    rows = schedule.interval_rows()
    for _ in range(periods):
        for length, volts in rows:
            sol = interval_solution(model, theta, volts, length)
            local = np.linspace(0.0, length, samples_per_interval)
            all_times.append(t_base + local)
            all_temps.append(sol.temperatures(local))
            theta = sol.end_temperature()
            t_base += length

    return TraceResult(
        times=np.concatenate(all_times),
        temperatures=np.vstack(all_temps),
        end_temperature=theta,
    )
