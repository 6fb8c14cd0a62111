"""Peak-temperature minimization at fixed workload (the dual of Problem 1).

Theorems 3-5 are statements about *minimizing the peak for a given
workload*: run each core at the constant speed matching its work if the
ladder offers it (Theorem 3); otherwise split between the two neighboring
modes (Theorem 4) and oscillate as fast as the transition overhead allows
(Theorem 5).  :func:`minimize_peak` operationalizes exactly that recipe —
the building block :func:`repro.workload.schedule_taskset` uses to
thermally qualify a mapping of a :class:`repro.realtime.TaskSet`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.oscillation import (
    DEFAULT_M_CAP,
    adjusted_high_ratios,
    build_oscillating_schedule,
    choose_m,
    plan_modes,
)
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import SolverError
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.peak import PeakResult
from repro.tolerances import VOLTAGE_SPILL

__all__ = ["MinPeakResult", "minimize_peak"]


@dataclass(frozen=True)
class MinPeakResult:
    """Outcome of a fixed-workload peak minimization.

    Attributes
    ----------
    schedule:
        The emitted m-oscillating step-up schedule.
    peak:
        Its stable-status peak (exact engine).
    m:
        The chosen oscillation count.
    target_speeds:
        The per-core speeds the schedule realizes (net of overhead).
    constant_bound_theta:
        The unreachable lower bound: the peak if every core could run its
        continuous target speed exactly (Theorem 3's optimum).  The gap to
        ``peak`` is the discreteness penalty.
    runtime_s:
        Wall-clock seconds spent.
    """

    schedule: PeriodicSchedule
    peak: PeakResult
    m: int
    target_speeds: np.ndarray
    constant_bound_theta: float
    runtime_s: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"min-peak: {self.peak.value:.2f} K above ambient at m={self.m} "
            f"(constant-speed bound {self.constant_bound_theta:.2f} K, "
            f"discreteness penalty "
            f"{self.peak.value - self.constant_bound_theta:+.2f} K)"
        )


@engine_entrypoint()
def minimize_peak(
    engine: ThermalEngine,
    target_speeds,
    period: float = 0.02,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
) -> MinPeakResult:
    """Minimize the stable peak while each core delivers its target speed.

    Parameters
    ----------
    engine:
        The platform or its engine (``t_max_c`` is *not* enforced here —
        this is the unconstrained dual; callers compare ``result.peak``
        against their own threshold).
    target_speeds:
        Per-core average speeds (voltages) to sustain, each within the
        supported continuous range.
    period:
        Base period before oscillation.
    m_cap, m_step:
        Scan bounds for the oscillation count.

    Raises
    ------
    SolverError
        If a target speed lies outside the platform's speed range.
    """
    platform = engine.platform
    t0 = time.perf_counter()
    targets = np.atleast_1d(np.asarray(target_speeds, dtype=float))
    if targets.shape != (platform.n_cores,):
        raise SolverError(
            f"target_speeds must have shape ({platform.n_cores},), got {targets.shape}"
        )
    v_lo, v_hi = platform.ladder.v_min, platform.ladder.v_max
    busy = targets[targets > 0]
    if np.any((busy < v_lo - VOLTAGE_SPILL) | (busy > v_hi + VOLTAGE_SPILL)):
        raise SolverError(
            f"target speeds must be 0 (idle) or within [{v_lo}, {v_hi}], "
            f"got {targets}"
        )

    # Theorem 3's (generally unreachable) bound: the continuous constant point.
    constant_bound = float(
        engine.steady_state_cores(np.clip(targets, 0.0, v_hi)).max()
    )

    plan = plan_modes(platform, targets)
    if not plan.oscillating.any():
        # Every target is a ladder level: the constant schedule is optimal.
        sched = build_oscillating_schedule(plan, plan.high_ratio, period, 1)
        peak = engine.general_peak(sched)
        return MinPeakResult(
            schedule=sched,
            peak=peak,
            m=1,
            target_speeds=targets,
            constant_bound_theta=constant_bound,
            runtime_s=time.perf_counter() - t0,
        )

    m_opt, sched, _history = choose_m(
        engine, plan, period, m_cap=m_cap, m_step=m_step
    )
    ratios = adjusted_high_ratios(platform, plan, m_opt, period)
    sched = build_oscillating_schedule(plan, ratios, period, m_opt)
    peak = engine.general_peak(sched)
    return MinPeakResult(
        schedule=sched,
        peak=peak,
        m=m_opt,
        target_speeds=targets,
        constant_bound_theta=constant_bound,
        runtime_s=time.perf_counter() - t0,
    )
