"""Full-system co-simulation: workload execution + thermal response.

The thermal analysis so far assumes each core draws the *nominal* power of
its DVFS schedule at all times.  A real core with EDF-scheduled tasks
power-gates whenever its ready queue is empty (race-to-idle), so the true
temperature trace sits at or below the nominal one.  This engine closes
the loop:

1. run the EDF simulation per core on the nominal speed profile,
   collecting idle windows,
2. mask the nominal schedule with those windows (speed -> 0 while idle),
3. simulate the thermal model on the masked power timeline,
4. report both worlds: deadline behaviour, nominal-vs-actual peak, and
   the idle-slack temperature dividend.

The nominal peak remains the *guarantee* (it upper-bounds the actual);
the co-simulated peak shows the margin a governor could reclaim.

The second half of this module closes the loop the other way:
:func:`simulate_closed_loop` runs a *sensor-driven* DVFS policy (the
reactive throttler, the integral-controller family) against the same
thermal model under injected :class:`~repro.safety.faults.FaultSpec`
perturbations — sensor noise and dropout on what the policy reads, a
stuck DVFS actuator overriding what it commands, ambient drift eating
its headroom — while the reported statistics stay grounded in the true
(dense, unperturbed-physics) temperature trace.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.safety.faults import FaultSpec, stuck_schedule
from repro.schedule.builders import from_core_timelines
from repro.schedule.periodic import MIN_INTERVAL, PeriodicSchedule
from repro.thermal.matex import interval_solution
from repro.thermal.model import ThermalModel
from repro.thermal.peak import peak_temperature
from repro.tolerances import VOLTAGE_ATOL
from repro.workload.edf import EDFReport, default_horizon, simulate_edf

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.realtime imports repro.sim)
    from repro.realtime.tasks import RTTask

__all__ = [
    "ClosedLoopTrace",
    "CoSimReport",
    "cosimulate",
    "simulate_closed_loop",
]

#: ``policy(step, reading) -> level_idx`` — the governor side of the loop.
PolicyFn = Callable[[int, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Sampled state of one sensor-driven closed-loop simulation.

    Attributes
    ----------
    times:
        Sensor instants (s), one per step.
    temperatures:
        ``(n_steps, n_nodes)`` node temperatures at the sensor instants.
    levels:
        ``(n_steps, n_cores)`` voltages *applied* during each step (the
        stuck-DVFS fault is already folded in — this is what the silicon
        ran, not what the policy commanded).
    readings:
        ``(n_steps, n_cores)`` core temperatures the policy *saw* after
        each step — sensor noise, dropout, and ambient drift included.
    peak_theta:
        Hottest core temperature over the measurement window (dense
        within-step maxima plus ambient drift, not just sensor samples).
    work:
        Integrated speed-seconds over the measurement window (summed
        across cores).
    measured_time:
        Length (s) of the measurement window the statistics cover.
    """

    times: np.ndarray
    temperatures: np.ndarray
    levels: np.ndarray
    readings: np.ndarray
    peak_theta: float
    work: float
    measured_time: float

    @property
    def throughput(self) -> float:
        """Time-averaged per-core speed over the measurement window."""
        if self.measured_time <= 0:
            return 0.0
        n_cores = self.levels.shape[1]
        return float(self.work / (n_cores * self.measured_time))


def simulate_closed_loop(
    model: ThermalModel,
    ladder,
    policy: PolicyFn,
    *,
    n_steps: int,
    sensor_period: float,
    initial_levels: np.ndarray,
    settle_steps: int = 0,
    faults: FaultSpec | dict | None = None,
    rng: np.random.Generator | None = None,
) -> ClosedLoopTrace:
    """Run a sensor-driven DVFS policy against the thermal model.

    This is the shared cosimulation core behind every closed-loop
    governor in the tree (the reactive threshold throttler and the
    integral-controller family): per sensor period it propagates the
    exact interval solution, tracks the dense within-step peak, perturbs
    the end-of-step sensor reading through the injected
    :class:`~repro.safety.faults.FaultSpec` (noise, dropout, ambient
    drift), pins a stuck DVFS core, power-gates failed cores, and hands
    the *perturbed* reading to ``policy`` — which returns the ladder
    level indices for the next step.  The physics the statistics are
    taken over always uses the true temperatures; only the policy is
    lied to, exactly like on real silicon.

    Core failures (``faults.core_failures``) are fail-stop: from the
    first step whose start fraction (``step / n_steps``) reaches a
    failure's ``at_fraction``, the failed core draws zero power no
    matter what the policy commands (transient failures return after
    their outage).  The applied-levels trace records the zeros — that
    is what the silicon ran.

    Parameters
    ----------
    policy:
        ``policy(step, reading) -> level_idx`` mapping the perturbed
        core-temperature reading after ``step`` to the per-core ladder
        level indices applied in step ``step + 1``.
    initial_levels:
        Per-core ladder level indices applied in step 0.  The array is
        adopted (stuck-actuator pinning mutates it in place); pass a
        copy if the caller needs it preserved.
    settle_steps:
        Steps discarded as warm-up before peak/throughput statistics.
    faults:
        Optional :class:`~repro.safety.faults.FaultSpec` (or dict form)
        injected into sensing and actuation.
    rng:
        Explicit generator driving the fault sampling.  ``None`` derives
        one from ``faults.seed`` — pass a generator only to share one
        stream across several simulations deliberately.
    """
    faults = FaultSpec.coerce(faults)
    n = model.n_cores
    cores = model.network.core_nodes
    levels_arr = np.asarray(ladder.levels)
    # Adopted, not copied: a policy that keeps a reference to this array
    # (the reactive throttler's hysteresis state) sees the stuck-actuator
    # pinning exactly as it would on shared hardware registers.
    level_idx = np.asarray(initial_levels, dtype=int)

    if rng is None and faults is not None:
        rng = faults.rng()
    stuck_idx: int | None = None
    if faults is not None and faults.stuck_core is not None:
        stuck_idx = faults.stuck_level % len(ladder)

    theta = np.zeros(model.n_nodes)
    times = np.empty(n_steps)
    temps = np.empty((n_steps, model.n_nodes))
    levels = np.empty((n_steps, n))
    readings = np.empty((n_steps, n))
    peak = -np.inf
    work = 0.0
    measured_time = 0.0
    last_reading = np.zeros(n)

    has_failures = faults is not None and bool(faults.core_failures)

    for step in range(n_steps):
        if stuck_idx is not None:
            # The stuck actuator ignores whatever the policy decided.
            level_idx[faults.stuck_core] = stuck_idx
        volts = levels_arr[level_idx]
        if has_failures:
            dead = faults.failed_cores_at(step / n_steps)
            if dead:
                volts = volts.copy()
                for core in dead:
                    if core < n:
                        volts[core] = 0.0
        # Dense within-step maximum (the sensor cannot see it, we can).
        drift = faults.drift_at((step + 1) / n_steps) if faults is not None else 0.0
        sol = interval_solution(model, theta, volts, sensor_period)
        if step >= settle_steps:
            val, _node, _when = sol.peak(nodes=cores, grid=16, refine=False)
            peak = max(peak, val + drift)
            work += float(volts.sum()) * sensor_period
            measured_time += sensor_period
        theta = sol.end_temperature()

        times[step] = (step + 1) * sensor_period
        temps[step] = theta
        levels[step] = volts

        # Policy reaction based on the (end-of-step) sensor reading —
        # perturbed by the injected sensor faults, which is exactly what
        # a real governor would be reacting to.
        reading = theta[cores] + drift
        if faults is not None and faults.any_sensor_fault:
            reading = faults.perturb_reading(reading, last_reading, rng)
        last_reading = reading
        readings[step] = reading
        level_idx = np.asarray(policy(step, reading), dtype=int)

    return ClosedLoopTrace(
        times=times,
        temperatures=temps,
        levels=levels,
        readings=readings,
        peak_theta=float(peak),
        work=float(work),
        measured_time=float(measured_time),
    )


@dataclass(frozen=True)
class CoSimReport:
    """Outcome of a workload + thermal co-simulation.

    Attributes
    ----------
    edf_reports:
        Per-core EDF simulation results over the co-sim horizon.
    nominal_peak_theta:
        Stable peak of the nominal schedule (the offline guarantee).
    actual_peak_theta:
        Stable peak of the idle-masked power timeline (<= nominal).
    idle_fractions:
        Per-core fraction of time spent power-gated.
    horizon_s:
        The common horizon used for EDF and the masked thermal period.
    faults:
        The injected :class:`~repro.safety.faults.FaultSpec`, if any.
    faulted_peak_theta:
        Stable peak of the *nominal* schedule re-evaluated under the
        injected faults (stuck DVFS core pinned, ambient drift added) —
        the temperature the offline guarantee degrades to when the
        platform misbehaves.  ``None`` when no faults were injected.
    """

    edf_reports: tuple[EDFReport, ...]
    nominal_peak_theta: float
    actual_peak_theta: float
    idle_fractions: np.ndarray
    horizon_s: float
    faults: FaultSpec | None = None
    faulted_peak_theta: float | None = None

    @property
    def all_deadlines_met(self) -> bool:
        """True when no core missed a deadline."""
        return all(r.all_deadlines_met for r in self.edf_reports)

    @property
    def idle_dividend_theta(self) -> float:
        """Peak reduction the idle slack bought (K)."""
        return self.nominal_peak_theta - self.actual_peak_theta

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"cosim: deadlines {'OK' if self.all_deadlines_met else 'MISSED'}, "
            f"nominal peak {self.nominal_peak_theta:.2f} K, actual "
            f"{self.actual_peak_theta:.2f} K "
            f"(idle dividend {self.idle_dividend_theta:+.2f} K)"
        )
        if self.faulted_peak_theta is not None:
            text += f", faulted peak {self.faulted_peak_theta:.2f} K"
        return text


def _mask_timeline(
    schedule: PeriodicSchedule,
    core: int,
    idle_windows: tuple[tuple[float, float], ...],
    horizon: float,
) -> list[tuple[float, float]]:
    """Core's (length, voltage) segments over [0, horizon], idle masked to 0."""
    bounds = schedule.boundaries
    volts = schedule.voltage_matrix[:, core]
    period = schedule.period

    # Cut points: schedule boundaries (unrolled) + idle window edges.
    cuts = {0.0, horizon}
    t = 0.0
    while t < horizon:
        for b in bounds[1:]:
            point = t + b
            if point < horizon:
                cuts.add(point)
        t += period
    for s, e in idle_windows:
        if s < horizon:
            cuts.add(s)
            cuts.add(min(e, horizon))
    grid = sorted(cuts)

    def speed_at(instant: float) -> float:
        for s, e in idle_windows:
            if s - MIN_INTERVAL <= instant < e - MIN_INTERVAL:
                return 0.0
        return float(volts[schedule.interval_at(instant)[0]])

    segments: list[tuple[float, float]] = []
    for a, b in zip(grid, grid[1:]):
        if b - a < MIN_INTERVAL:
            continue
        v = speed_at(0.5 * (a + b))
        if segments and abs(segments[-1][1] - v) < VOLTAGE_ATOL:
            segments[-1] = (segments[-1][0] + (b - a), v)
        else:
            segments.append((b - a, v))
    return segments


def cosimulate(
    model: ThermalModel,
    schedule: PeriodicSchedule,
    tasks_per_core: Sequence[Sequence[RTTask]],
    horizon_s: float | None = None,
    faults: FaultSpec | dict | None = None,
    ladder=None,
) -> CoSimReport:
    """Co-simulate EDF execution and temperature on one platform.

    Parameters
    ----------
    model:
        The thermal model (cores must match the schedule).
    schedule:
        The nominal DVFS schedule (speed = voltage).
    tasks_per_core:
        Task lists per core (empty list = core has no work and idles
        entirely).
    horizon_s:
        Co-simulation span shared by every core; defaults to the EDF
        span of all tasks (:func:`~repro.workload.edf.default_horizon`).
        The masked timeline is treated as one period of a periodic
        pattern for the thermal stable status — exact when the horizon is
        a multiple of the task hyperperiod, an excellent approximation
        otherwise.
    faults:
        Optional :class:`~repro.safety.faults.FaultSpec` (or dict form).
        The nominal schedule is re-evaluated under a stuck DVFS core
        (requires ``ladder``) and full ambient drift; the result lands in
        ``faulted_peak_theta``.  Sensor faults do not apply here — there
        is no sensor in the offline loop, which is the point.
    ladder:
        The platform's :class:`~repro.platform.VoltageLadder`; only
        needed when ``faults.stuck_core`` is set.
    """
    if len(tasks_per_core) != schedule.n_cores:
        raise ConfigurationError(
            f"tasks_per_core must have {schedule.n_cores} entries, "
            f"got {len(tasks_per_core)}"
        )
    faults = FaultSpec.coerce(faults)
    if faults is not None and faults.stuck_core is not None and ladder is None:
        raise ConfigurationError(
            "cosimulate needs the platform ladder to pin a stuck DVFS core"
        )
    all_tasks = [t for core_tasks in tasks_per_core for t in core_tasks]
    if horizon_s is None:
        horizon_s = default_horizon(schedule, all_tasks)

    reports = []
    timelines = []
    idle_fracs = np.zeros(schedule.n_cores)
    for core in range(schedule.n_cores):
        tasks = tasks_per_core[core]
        if tasks:
            report = simulate_edf(schedule, core, tasks, horizon_s=horizon_s)
            idle = report.idle_windows
        else:
            report = EDFReport(
                horizon_s=horizon_s, jobs_released=0, jobs_completed=0,
                deadline_misses=(), max_lateness_s=0.0,
                idle_windows=((0.0, horizon_s),),
            )
            idle = report.idle_windows
        reports.append(report)
        idle_fracs[core] = sum(e - s for s, e in idle) / horizon_s
        timelines.append(_mask_timeline(schedule, core, idle, horizon_s))

    masked = from_core_timelines(timelines)
    nominal_peak = peak_temperature(model, schedule).value
    actual_peak = peak_temperature(model, masked).value
    faulted_peak: float | None = None
    if faults is not None and faults.any_active:
        faulted = schedule
        if faults.stuck_core is not None:
            faulted = stuck_schedule(schedule, ladder, faults)
        faulted_peak = float(
            peak_temperature(model, faulted).value + faults.ambient_drift_k
        )
    return CoSimReport(
        edf_reports=tuple(reports),
        nominal_peak_theta=float(nominal_peak),
        actual_peak_theta=float(actual_peak),
        idle_fractions=idle_fracs,
        horizon_s=float(horizon_s),
        faults=faults,
        faulted_peak_theta=faulted_peak,
    )
