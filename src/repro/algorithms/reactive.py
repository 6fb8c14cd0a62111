"""Reactive DTM baseline: threshold throttling with a temperature sensor.

The paper's introduction contrasts its proactive (offline, guaranteed)
approach with reactive DTM — governors that throttle when a sensor reads
hot.  This module makes that comparison executable: a closed-loop
simulation of per-core threshold throttling with hysteresis on the same
thermal engine the proactive algorithms use.

The governor's dilemma, quantified here: sample-and-react always either
*overshoots* (the temperature keeps rising between sensor reads, so
``T_max`` is violated) or must keep a *guard band* below the threshold
(sacrificing throughput).  AO needs neither — its guarantee is computed
offline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import SolverError
from repro.safety.faults import FaultSpec
from repro.schedule.builders import constant_schedule
from repro.sim.engine import simulate_closed_loop
from repro.tolerances import within_threshold

__all__ = ["ReactiveTrace", "reactive_throttling"]


@dataclass(frozen=True)
class ReactiveTrace:
    """Sampled closed-loop state of the reactive governor.

    Attributes
    ----------
    times:
        Sensor instants (s).
    temperatures:
        ``(n_samples, n_nodes)`` temperatures at the sensor instants.
    levels:
        ``(n_samples, n_cores)`` the voltage applied *after* each read.
    peak_theta:
        Hottest core temperature observed anywhere in the run (dense
        within-step maxima, not just at sensor instants).
    """

    times: np.ndarray
    temperatures: np.ndarray
    levels: np.ndarray
    peak_theta: float


@engine_entrypoint("reactive")
def reactive_throttling(
    engine: ThermalEngine,
    sensor_period: float = 1e-3,
    guard_band: float = 0.0,
    horizon: float | None = None,
    settle_fraction: float = 0.5,
    faults: FaultSpec | dict | None = None,
) -> SchedulerResult:
    """Simulate a per-core reactive threshold governor.

    Policy (per sensor read, per core): if the core reads above
    ``T_max - guard_band``, step one ladder level down; if it reads below
    the re-raise threshold (one guard band lower still), step one level
    up.  Classic hysteresis throttling.

    Parameters
    ----------
    sensor_period:
        Time between sensor reads (reaction latency).
    guard_band:
        Kelvin below ``T_max`` at which throttling starts.  0 = throttle
        exactly at the limit (maximally aggressive, maximal overshoot).
    horizon:
        Simulated span (default: 60 sensor periods plus 8 thermal time
        constants, enough to reach the limit cycle).
    settle_fraction:
        Fraction of the horizon discarded as warm-up before throughput
        and peak statistics are taken.
    faults:
        Optional :class:`~repro.safety.faults.FaultSpec` (or its dict
        form) injected into the closed loop: the governor reacts to
        *perturbed* sensor readings (noise, dropout), a stuck DVFS core
        ignores its commands, and ambient drift raises the physical
        temperatures the statistics are taken over.  The paper's DTM
        dilemma, sharpened: an offline certificate is immune to all of
        this; the reactive loop is not.

    Returns
    -------
    SchedulerResult
        ``throughput`` is the time-averaged speed over the measurement
        window, ``peak_theta`` the true (dense) maximum over it;
        ``feasible`` reports whether ``T_max`` was respected —
        with ``guard_band = 0`` it typically is **not**, which is the
        point.  ``details["trace"]`` holds the :class:`ReactiveTrace`;
        ``details["overshoot_k"]`` the violation depth.
    """
    if sensor_period <= 0:
        raise SolverError(f"sensor_period must be > 0, got {sensor_period}")
    faults = FaultSpec.coerce(faults)
    model = engine.model
    ladder = engine.ladder
    n = engine.n_cores
    theta_max = engine.theta_max
    throttle_at = theta_max - guard_band
    raise_at = throttle_at - max(guard_band, 0.5)

    if horizon is None:
        horizon = 60 * sensor_period + 8.0 * model.slowest_time_constant
    n_steps = int(np.ceil(horizon / sensor_period))
    settle_steps = int(settle_fraction * n_steps)

    level_idx = np.full(n, len(ladder) - 1, dtype=int)  # start at full speed

    def policy(_step: int, reading: np.ndarray) -> np.ndarray:
        for i in range(n):
            if reading[i] > throttle_at and level_idx[i] > 0:
                level_idx[i] -= 1
            elif reading[i] < raise_at and level_idx[i] < len(ladder) - 1:
                level_idx[i] += 1
        return level_idx

    loop = simulate_closed_loop(
        model,
        ladder,
        policy,
        n_steps=n_steps,
        sensor_period=sensor_period,
        initial_levels=level_idx,
        settle_steps=settle_steps,
        faults=faults,
    )
    peak = loop.peak_theta
    trace = ReactiveTrace(
        times=loop.times,
        temperatures=loop.temperatures,
        levels=loop.levels,
        peak_theta=peak,
    )
    # Report the limit-cycle behaviour as a pseudo-schedule (the last
    # sensor period's level vector held constant) so SchedulerResult's
    # schedule field stays meaningful for inspection.
    schedule = constant_schedule(loop.levels[-1], period=sensor_period)
    return SchedulerResult(
        name="Reactive",
        schedule=schedule,
        throughput=loop.throughput,
        peak_theta=peak,
        feasible=bool(within_threshold(peak, theta_max)),
        details={
            "trace": trace,
            "overshoot_k": float(max(0.0, peak - theta_max)),
            "guard_band": guard_band,
            "sensor_period": sensor_period,
            "faults": faults.as_dict() if faults is not None else None,
        },
    )
