"""Closed-loop integral-controller solver family (adjustable gain).

The reactive baseline throttles on a threshold; this module implements
the principled alternative: a per-core *integral* feedback controller in
the style of Rao et al.'s adjustable-gain thermal controllers
(arXiv:1507.06357).  Each core regulates its temperature error to a
reference just below ``theta_max`` by integrating the error and mapping
the integral state onto a continuous DVFS command, which is then
quantized onto the platform's discrete voltage ladder:

.. math::

    z_i(k+1) &= \\operatorname{clip}(z_i(k) + T_s\\, e_i(k),\\;
               z_i^{lo}, z_i^{hi}) \\\\
    u_i(k+1) &= u_{mid} + K_i\\, z_i(k+1)

with error ``e_i = theta_ref - reading_i`` (hot errors weighted by
``hot_gain`` — the safety asymmetry a thermal governor wants), and the
clamp bounds ``z^{lo/hi}`` chosen so the command exactly spans the
ladder — the classic anti-windup conditioning that keeps the integral
state bounded while the command saturates.

**Gain scheduling.**  The gains come from the platform physics rather
than hand tuning: for a first-order plant with time constant ``tau`` and
DC gain ``s = dtheta/dv``, the discrete-time integral gain
``1 / ((1 - exp(-T_s / tau)) * s * T_s)`` is the deadbeat choice — the
command increment that cancels the present error within one sensor
period, given that a period only realizes a ``1 - exp(-T_s/tau)``
fraction of the DC response.  The ``integral``
solver uses the platform's *dominant* (slowest) time constant for every
core; the ``gain_sched`` preset schedules per-core gains from each core
node's local time constant ``-1 / A_ii``, so thermally fast cores get
proportionally hotter gains.  Both scale by ``gain_scale`` and use
per-core DC gains measured from the coupled steady-state map.

On a 2-level ladder the quantized integral controller is an *online
oscillation synthesizer*: the integral state dithers the core between
the two levels with exactly the duty cycle that parks the temperature at
the reference — the closed-loop mirror of the paper's offline
oscillating schedules, which is what makes the comparison in the
``control`` experiment meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import SolverError
from repro.obs import METRICS, span
from repro.safety.faults import FaultSpec
from repro.schedule.builders import constant_schedule
from repro.sim.engine import simulate_closed_loop
from repro.tolerances import within_threshold

__all__ = [
    "ControllerTrace",
    "dc_gain_vector",
    "scheduled_gains",
    "integral_controller",
]


@dataclass(frozen=True)
class ControllerTrace:
    """Sampled closed-loop state of the integral controller.

    Attributes
    ----------
    times:
        Sensor instants (s).
    temperatures:
        ``(n_samples, n_nodes)`` temperatures at the sensor instants.
    levels:
        ``(n_samples, n_cores)`` voltages actually applied per step
        (quantized commands, stuck-DVFS fault folded in).
    commands:
        ``(n_samples, n_cores)`` the continuous (pre-quantization)
        controller commands.
    integrals:
        ``(n_samples, n_cores)`` the anti-windup-clamped integral state.
    peak_theta:
        Hottest core temperature observed anywhere in the measurement
        window (dense within-step maxima, not just sensor samples).
    """

    times: np.ndarray
    temperatures: np.ndarray
    levels: np.ndarray
    commands: np.ndarray
    integrals: np.ndarray
    peak_theta: float


def dc_gain_vector(engine: "ThermalEngine") -> np.ndarray:
    """Per-core DC gain ``dtheta_i / dv_i`` of the coupled steady-state map.

    Measured by finite difference on the real (leakage-coupled) model:
    raise core ``i`` from the ladder floor to the ladder ceiling with
    every other core at the floor, and read off core ``i``'s steady-state
    response.  The cross-coupling a core's own ladder swing induces is
    included, which is what the feedback loop actually fights.
    """
    engine = ThermalEngine.ensure(engine)
    n = engine.n_cores
    v_lo, v_hi = engine.ladder.v_min, engine.ladder.v_max
    base = np.full(n, v_lo)
    theta_base = engine.steady_state_cores(base)
    gains = np.empty(n)
    for i in range(n):
        v = base.copy()
        v[i] = v_hi
        gains[i] = (engine.steady_state_cores(v)[i] - theta_base[i]) / (v_hi - v_lo)
    return gains


def scheduled_gains(
    engine: "ThermalEngine",
    sensor_period: float,
    *,
    per_core: bool = False,
    gain_scale: float = 1.0,
) -> np.ndarray:
    """Integral gains ``K_i`` (V per K·s) from the platform physics.

    ``K_i = gain_scale / ((1 - exp(-T_s / tau_i)) * s_i * T_s)`` — the
    deadbeat integral gain for a first-order plant with time constant
    ``tau_i`` and DC gain ``s_i``: one sensor period only realizes a
    ``1 - exp(-T_s/tau)`` fraction of the DC response, so the command
    increment that cancels a 1 K error within the next period is
    ``1 / ((1 - exp(-T_s/tau)) * s)`` volts.  With ``per_core=False``
    every core uses the dominant (slowest) model time constant; with
    ``per_core=True`` core ``i`` uses its node's local time constant
    ``-1 / A_ii`` (the gain-scheduling mode), so thermally fast cores —
    which realize more of their DC response per period — get
    proportionally gentler gains.
    """
    engine = ThermalEngine.ensure(engine)
    model = engine.model
    s = dc_gain_vector(engine)
    if per_core:
        core_nodes = model.network.core_nodes
        tau = -1.0 / np.diag(model.a)[core_nodes]
    else:
        tau = np.full(engine.n_cores, model.slowest_time_constant)
    return gain_scale / (-np.expm1(-sensor_period / tau) * s * sensor_period)


@engine_entrypoint("integral")
def integral_controller(
    engine: ThermalEngine,
    ki: float | tuple | None = None,
    gain_scale: float = 1.0,
    gain_schedule: bool = False,
    hot_gain: float = 2.0,
    sensor_period: float = 1e-3,
    reference_offset: float = 1.0,
    horizon: float | None = None,
    settle_fraction: float = 0.5,
    faults: FaultSpec | dict | None = None,
) -> SchedulerResult:
    """Simulate the per-core adjustable-gain integral DVFS controller.

    Parameters
    ----------
    ki:
        Explicit integral gain(s) in V per K·s — a scalar shared by all
        cores or one value per core.  ``None`` (default) derives the
        gains from the platform's thermal time constants and DC gains
        via :func:`scheduled_gains`.
    gain_scale:
        Multiplier on the derived gains (ignored when ``ki`` is given).
        1.0 is the deadbeat setting; smaller is more conservative.
    gain_schedule:
        Schedule per-core gains from each core's local time constant
        instead of the shared dominant one (the ``gain_sched`` registry
        preset sets this).
    hot_gain:
        Multiplier on *hot* errors (reading above the reference).  The
        asymmetry biases the loop toward safety: sensor noise then costs
        throughput rather than overshoot, and throughput degrades
        monotonically as noise grows.
    sensor_period:
        Time between sensor reads (and command updates).
    reference_offset:
        Kelvin below ``theta_max`` the loop regulates to — the closed
        loop's guard band.
    horizon:
        Simulated span (default: 60 sensor periods plus 8 thermal time
        constants, enough to settle into the limit cycle).
    settle_fraction:
        Fraction of the horizon discarded as warm-up before throughput
        and peak statistics are taken.
    faults:
        Optional :class:`~repro.safety.faults.FaultSpec` (or dict form)
        injected into the loop: the controller integrates *perturbed*
        readings (noise, dropout), a stuck DVFS core ignores its
        commands, ambient drift shrinks the real margin.

    Returns
    -------
    SchedulerResult
        ``throughput`` is the time-averaged speed over the measurement
        window, ``peak_theta`` the true (dense) maximum over it;
        ``details["trace"]`` holds the :class:`ControllerTrace`,
        ``details["gains"]`` the per-core gains used, and
        ``details["windup_z_bounds"]`` the anti-windup clamp interval.
    """
    if sensor_period <= 0:
        raise SolverError(f"sensor_period must be > 0, got {sensor_period}")
    if reference_offset < 0:
        raise SolverError(
            f"reference_offset must be >= 0, got {reference_offset}"
        )
    if gain_scale <= 0:
        raise SolverError(f"gain_scale must be > 0, got {gain_scale}")
    if hot_gain < 1.0:
        raise SolverError(
            f"hot_gain must be >= 1 (safety bias), got {hot_gain}"
        )
    faults = FaultSpec.coerce(faults)
    model = engine.model
    ladder = engine.ladder
    n = engine.n_cores
    theta_max = engine.theta_max
    theta_ref = theta_max - reference_offset

    if ki is None:
        gains = scheduled_gains(
            engine, sensor_period,
            per_core=gain_schedule, gain_scale=gain_scale,
        )
    else:
        gains = np.broadcast_to(np.asarray(ki, dtype=float), (n,)).copy()
        if np.any(gains <= 0):
            raise SolverError(f"ki must be > 0, got {np.asarray(ki)}")

    if horizon is None:
        horizon = 60 * sensor_period + 8.0 * model.slowest_time_constant
    n_steps = int(np.ceil(horizon / sensor_period))
    settle_steps = int(settle_fraction * n_steps)

    levels_arr = np.asarray(ladder.levels)
    v_lo, v_hi = ladder.v_min, ladder.v_max
    u_mid = 0.5 * (v_lo + v_hi)
    # Anti-windup: clamp the integral state so the command exactly spans
    # the ladder — the state cannot wind up past what actuation can do.
    z_lo = (v_lo - u_mid) / gains
    z_hi = (v_hi - u_mid) / gains
    midpoints = 0.5 * (levels_arr[1:] + levels_arr[:-1])

    z = z_hi.copy()  # start at full speed, like the reactive governor
    commands = np.empty((n_steps, n))
    integrals = np.empty((n_steps, n))
    # Step 0 applies the initial full-speed command.
    commands_prev = u_mid + gains * z
    clamped_steps = 0

    def policy(step: int, reading: np.ndarray) -> np.ndarray:
        nonlocal z, commands_prev, clamped_steps
        e = theta_ref - reading
        e = np.where(e < 0, hot_gain * e, e)
        raw = z + sensor_period * e
        z = np.clip(raw, z_lo, z_hi)
        if np.any(raw != z):
            clamped_steps += 1
        u = u_mid + gains * z
        commands[step] = commands_prev
        integrals[step] = z
        commands_prev = u
        return np.searchsorted(midpoints, u)

    with span(
        "controller/loop",
        n_steps=n_steps,
        gain_schedule=bool(gain_schedule),
        sensor_period=sensor_period,
    ):
        loop = simulate_closed_loop(
            model,
            ladder,
            policy,
            n_steps=n_steps,
            sensor_period=sensor_period,
            initial_levels=np.searchsorted(midpoints, commands_prev),
            settle_steps=settle_steps,
            faults=faults,
        )
    peak = loop.peak_theta
    overshoot = float(max(0.0, peak - theta_max))
    METRICS.counter("controller.runs").inc()
    METRICS.counter("controller.steps").inc(n_steps)
    METRICS.counter("controller.windup_clamped_steps").inc(clamped_steps)
    METRICS.histogram("controller.overshoot_k").observe(overshoot)

    trace = ControllerTrace(
        times=loop.times,
        temperatures=loop.temperatures,
        levels=loop.levels,
        commands=commands,
        integrals=integrals,
        peak_theta=peak,
    )
    # The settled limit cycle as a pseudo-schedule (the last sensor
    # period's level vector held constant) — same contract as reactive:
    # the schedule field summarizes the simulation, it is not the
    # artifact the closed loop "computed".
    schedule = constant_schedule(loop.levels[-1], period=sensor_period)
    return SchedulerResult(
        name="GainSched" if gain_schedule else "Integral",
        schedule=schedule,
        throughput=loop.throughput,
        peak_theta=peak,
        feasible=bool(within_threshold(peak, theta_max)),
        details={
            "trace": trace,
            "overshoot_k": overshoot,
            "gains": gains.tolist(),
            "gain_schedule": bool(gain_schedule),
            "hot_gain": float(hot_gain),
            "windup_z_bounds": (z_lo.tolist(), z_hi.tolist()),
            "windup_clamped_steps": int(clamped_steps),
            "theta_ref": float(theta_ref),
            "reference_offset": float(reference_offset),
            "sensor_period": sensor_period,
            "faults": faults.as_dict() if faults is not None else None,
        },
    )


@engine_entrypoint("gain_sched")
def gain_scheduled_controller(
    engine: ThermalEngine, **params
) -> SchedulerResult:
    """:func:`integral_controller` with per-core gain scheduling on.

    Registered as the ``gain_sched`` solver: identical loop, but each
    core's integral gain is scheduled from its own local thermal time
    constant instead of the shared dominant one.
    """
    result = integral_controller(engine, gain_schedule=True, **params)
    return replace(result, name="GainSched")
