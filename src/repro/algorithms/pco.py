"""PCO — phase-conscious oscillation (section VI-C).

AO constrains every candidate to be a step-up schedule so the peak is
cheap to verify; the price is purely *temporal* interleaving.  PCO starts
from AO's schedule after the TPT loop (:func:`~repro.algorithms.ao.ao_core`,
memoized on the engine, so PCO after AO on one engine reuses AO's core)
and additionally interleaves *spatially*: each core's cycle is
phase-shifted so that neighbours' high-power bursts avoid coinciding,
which lowers the peak and frees headroom that a final ratio fill converts
back into throughput.

Shifted schedules are no longer step-up, so every candidate is priced with
the general MatEx-style peak search — this is why Table V shows PCO
consistently slower than AO.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.ao import ao_core, constant_floor_guard
from repro.algorithms.base import SchedulerResult
from repro.algorithms.oscillation import DEFAULT_M_CAP, effective_throughput
from repro.algorithms.tpt import fill_headroom
from repro.engine import ThermalEngine, engine_entrypoint
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.transforms import shift_core_rows
from repro.thermal.batch import Rows
from repro.tolerances import FILL_HEADROOM, IMPROVEMENT_MARGIN, within_threshold

__all__ = ["pco"]


@engine_entrypoint("PCO")
def pco(
    engine: ThermalEngine,
    period: float = 0.02,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
    t_unit: float | None = None,
    shift_grid: int = 8,
    adaptive: bool = True,
) -> SchedulerResult:
    """Run PCO: AO, then per-core phase search, then headroom refill.

    Parameters
    ----------
    shift_grid:
        Number of candidate phase offsets per core (evenly spaced over the
        oscillation cycle).
    Other parameters are forwarded to :func:`repro.algorithms.ao.ao_core`.
    """
    platform = engine.platform
    base = ao_core(
        engine, period, m_cap=m_cap, m_step=m_step, t_unit=t_unit,
        adaptive=adaptive,
    )
    plan, m_opt, ratios = base.plan, base.m_opt, base.ratios
    cycle = period / m_opt

    # Greedy sequential phase search: shift one core at a time, keep the
    # offset that minimizes the (general) stable peak.  It starts from
    # AO's schedule and its scalar peak; each core's whole offset grid is
    # built and priced as one batch of rows (the current schedule tiled
    # over the offsets), and each accepted shift is priced once, scalar.
    sched, peak = base.schedule, base.peak
    shifts = [0.0] * platform.n_cores
    candidates = [k * cycle / shift_grid for k in range(shift_grid)]
    offsets = np.array(candidates[1:])
    with engine.phase("pco/phase_search"):
        for core in range(platform.n_cores):
            best, best_val = -1, peak.value
            tiled = (
                np.full(offsets.size, sched.n_intervals),
                np.broadcast_to(sched.lengths, (offsets.size, sched.n_intervals)),
                np.broadcast_to(
                    sched.voltage_matrix, (offsets.size, *sched.voltage_matrix.shape)
                ),
            )
            z, lengths, volts = shift_core_rows(*tiled, core, offsets)
            trials = engine.general_peak_rows(Rows(z, lengths, volts))
            for i, val in enumerate(trials.value.tolist()):
                if val < best_val - IMPROVEMENT_MARGIN:
                    best, best_val = i, val
            if best >= 0:
                k = z[best]
                sched = PeriodicSchedule(lengths[best, :k], volts[best, :k])
                shifts[core] = candidates[best + 1]
                peak = engine.general_peak(sched)

    # Refill the headroom the interleaving created (ratios grow under the
    # general peak engine, with the shifts re-applied on every rebuild).
    fill_iters = 0
    if peak.value < platform.theta_max - FILL_HEADROOM and plan.oscillating.any():
        with engine.phase("pco/fill"):
            ratios, sched, peak, fill_iters = fill_headroom(
                engine, plan, ratios, period, m_opt,
                t_unit=t_unit, adaptive=adaptive, shifts=shifts,
                start=(sched, peak),
            )

    throughput = float(effective_throughput(sched, platform))
    peak_value = float(peak.value)
    # Same AO >= EXS safety net as ao(): never lose to the best constant
    # assignment reachable from the lower-neighbor floor.
    with engine.phase("pco/floor_guard"):
        sched, peak_value, throughput, floor_volts = constant_floor_guard(
            platform, plan, period, sched, peak_value, throughput
        )
    details = dict(base.details)
    details.update(
        {
            "m_opt": m_opt,
            "final_high_ratio": base.ratios,
            "tpt_iterations": base.tpt_iterations,
            "fill_iterations": fill_iters,
            "shifts": shifts,
        }
    )
    if floor_volts is not None:
        details["constant_floor"] = floor_volts
    return SchedulerResult(
        name="PCO",
        schedule=sched,
        throughput=throughput,
        peak_theta=peak_value,
        feasible=bool(within_threshold(peak_value, platform.theta_max)),
        details=details,
    )
