"""AO — aligned oscillation, the paper's Algorithm 2.

Steps (section V):

1. Ideal continuous voltages with the stable state pinned at ``T_max``
   (:mod:`repro.algorithms.continuous`).
2. Two neighboring discrete modes + throughput-preserving ratios per core
   (:func:`repro.algorithms.oscillation.plan_modes`, Theorems 3/4).
3. Linear scan for the oscillation count ``m`` under the transition-
   overhead bound ``M``, minimizing the Theorem-1 stable peak
   (:func:`repro.algorithms.oscillation.choose_m`).
4. TPT-guided ratio reduction until the peak respects ``T_max``
   (:func:`repro.algorithms.tpt.enforce_threshold`); when the chosen m
   leaves headroom instead, an optional symmetric fill consumes it.

Every intermediate schedule is step-up, so peaks are exact and cheap —
this is what buys the orders-of-magnitude speedup over EXS at scale.
:func:`ao_core` stops after step 4; PCO starts from it.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.exs import pruned_lattice_search
from repro.algorithms.oscillation import (
    DEFAULT_M_CAP,
    ModePlan,
    adjusted_high_ratios,
    build_oscillating_schedule,
    choose_m,
    effective_throughput,
    plan_modes,
    scan_key,
)
from repro.algorithms.tpt import enforce_threshold, fill_headroom
from repro.engine import ThermalEngine, as_platform, engine_entrypoint
from repro.platform import Platform
from repro.schedule.builders import constant_schedule
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.peak import PeakResult
from repro.tolerances import FILL_HEADROOM, IMPROVEMENT_MARGIN, within_threshold

__all__ = ["AOCore", "ao", "ao_core", "best_constant_above", "constant_floor_guard"]


def best_constant_above(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    incumbent_sum: float,
) -> np.ndarray | None:
    """Best feasible constant assignment strictly beating ``incumbent_sum``.

    The monotonicity-pruned lattice search
    (:func:`repro.algorithms.exs.pruned_lattice_search`, the
    :func:`repro.algorithms.exs.exs_pruned` search) over the voltage
    ladder, seeded with two incumbents: the caller's throughput sum and
    the lower-neighbor floor ``plan.v_low`` (feasible whenever the
    continuous assignment was, by monotonicity).  With the incumbent at
    AO's own throughput the bound prune kills almost every subtree — AO
    usually dominates every constant assignment — so this guard costs a
    few small batched steady-state solves unless a constant assignment
    genuinely wins.  Cores the plan power-gates (target voltage 0) stay
    gated.

    Returns the winning voltage vector, or ``None`` when nothing feasible
    beats the incumbent.
    """
    platform = as_platform(platform)
    model = platform.model
    theta_max = platform.theta_max
    best_sum = float(incumbent_sum)
    best_volts: np.ndarray | None = None

    floor = plan.v_low.astype(float)
    if (
        within_threshold(float(model.steady_state_cores(floor).max()), theta_max)
        and float(floor.sum()) > best_sum + IMPROVEMENT_MARGIN
    ):
        best_sum = float(floor.sum())
        best_volts = floor.copy()

    volts, _, _ = pruned_lattice_search(
        platform, np.flatnonzero(plan.target_voltages > 0.0), incumbent=best_sum
    )
    return best_volts if volts is None else volts


def constant_floor_guard(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    period: float,
    sched: PeriodicSchedule,
    peak_value: float,
    throughput: float,
) -> tuple[PeriodicSchedule, float, float, np.ndarray | None]:
    """Keep the better of the candidate schedule and the best constant one.

    Ratio adjustment can land an oscillating schedule marginally below the
    best feasible *constant* assignment (EXS's answer), breaking the
    paper's AO >= EXS ordering.  This guard searches the constant lattice
    above the schedule's own throughput (pruned hard by that incumbent)
    and swaps the winner in when one exists.

    Returns ``(schedule, peak_value, throughput, floor_voltages)`` with
    ``floor_voltages`` set only when the swap happened.
    """
    platform = as_platform(platform)
    floor_volts = best_constant_above(
        platform, plan, incumbent_sum=throughput * platform.n_cores
    )
    if floor_volts is None:
        return sched, peak_value, throughput, None
    floor_sched = constant_schedule(floor_volts, period=period)
    floor_throughput = float(effective_throughput(floor_sched, platform))
    floor_peak = float(platform.model.steady_state_cores(floor_volts).max())
    return floor_sched, floor_peak, floor_throughput, floor_volts


class AOCore(NamedTuple):
    """Algorithm 2 up to the TPT loop: what :func:`ao` and PCO build on."""

    plan: ModePlan
    m_opt: int
    ratios: np.ndarray
    schedule: PeriodicSchedule
    peak: PeakResult  # the schedule's scalar Theorem-1 peak
    tpt_iterations: int
    details: dict
    runtime_s: float


def ao_core(
    engine: ThermalEngine,
    period: float,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
    t_unit: float | None = None,
    adaptive: bool = True,
    active_mask=None,
) -> AOCore:
    """Ideal speeds, mode planning, the m scan and the TPT loop (steps 1-4).

    No headroom fill, verification or constant-floor guard; parameters
    as for :func:`ao`.
    """
    platform = engine.platform
    t0 = time.perf_counter()
    with engine.phase("ao/continuous"):
        cont = continuous_assignment(platform, active_mask=active_mask)
        plan = plan_modes(platform, cont.voltages)

    details: dict = {
        "continuous_voltages": cont.voltages,
        "v_low": plan.v_low,
        "v_high": plan.v_high,
        "base_high_ratio": plan.high_ratio,
    }

    if not plan.oscillating.any():
        # Every core hit a ladder level exactly: a constant schedule.
        sched = build_oscillating_schedule(plan, plan.high_ratio, period, 1)
        peak = engine.stepup_peak(sched)
        ratios = plan.high_ratio.copy()
        m_opt = 1
        tpt_iters = 0
        details["m_history"] = [(1, peak.value)]
    else:
        with engine.phase("ao/choose_m"):
            # The comparison sweep's executor runs the m scan ahead of the
            # unit and plants it as a hint; consume it when present
            # (one-shot), otherwise scan normally.  The key pins the plan
            # (and so active_mask) as well as the scan parameters.
            hinted = engine.take_hint(
                "choose_m", scan_key(plan, period, m_cap, m_step)
            )
            if hinted is not None:
                m_opt, sched, history = hinted
            else:
                m_opt, sched, history = choose_m(
                    engine, plan, period, m_cap=m_cap, m_step=m_step
                )
        details["m_history"] = history
        ratios = adjusted_high_ratios(platform, plan, m_opt, period)
        with engine.phase("ao/tpt"):
            ratios, sched, peak, tpt_iters = enforce_threshold(
                engine, plan, ratios, period, m_opt,
                t_unit=t_unit, adaptive=adaptive,
            )
    return AOCore(
        plan=plan,
        m_opt=m_opt,
        ratios=ratios,
        schedule=sched,
        peak=peak,
        tpt_iterations=tpt_iters,
        details=details,
        runtime_s=time.perf_counter() - t0,
    )


@engine_entrypoint("AO")
def ao(
    engine: ThermalEngine,
    period: float = 0.02,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
    t_unit: float | None = None,
    fill: bool = True,
    adaptive: bool = True,
    active_mask=None,
) -> SchedulerResult:
    """Run Algorithm 2 (AO) on the platform.

    Parameters
    ----------
    period:
        The base schedule period ``t_p`` before oscillation (the paper's
        motivation example uses 20 ms).
    m_cap, m_step:
        Bounds/stride of the linear m scan.
    t_unit:
        TPT time quantum (default: cycle/200).
    fill:
        Consume leftover headroom by growing ratios after the TPT loop.
    adaptive:
        Batch TPT quanta via local linearity (same fixed point, far fewer
        iterations); disable for the paper-literal loop.
    active_mask:
        Optional boolean mask of cores allowed to run; the rest are
        power-gated (dark silicon — see
        :func:`repro.algorithms.dark.dark_silicon_ao`).
    """
    platform = engine.platform
    core = ao_core(
        engine, period, m_cap=m_cap, m_step=m_step, t_unit=t_unit,
        adaptive=adaptive, active_mask=active_mask,
    )
    plan, m_opt, ratios, sched, peak = (
        core.plan, core.m_opt, core.ratios, core.schedule, core.peak
    )
    details = core.details

    fill_iters = 0
    if fill and peak.value < platform.theta_max - FILL_HEADROOM and plan.oscillating.any():
        with engine.phase("ao/fill"):
            ratios, sched, peak, fill_iters = fill_headroom(
                engine, plan, ratios, period, m_opt,
                t_unit=t_unit, adaptive=adaptive, start=(sched, peak),
            )

    # The reported peak is the final schedule's scalar Theorem-1 price (the
    # same engine and 24-sample wrap scan the TPT loop used): the fill's
    # last single-quantum move carries its batch price, which can differ
    # from the scalar one in the last bits.
    with engine.phase("ao/verify"):
        peak_value = float(engine.stepup_peak(sched).value)

    # Restore the paper's AO >= EXS ordering: ratio adjustment can end
    # marginally below the best feasible constant assignment, in which
    # case the lower-neighbor floor wins and we emit it instead.
    throughput = float(effective_throughput(sched, platform))
    with engine.phase("ao/floor_guard"):
        sched, peak_value, throughput, floor_volts = constant_floor_guard(
            platform, plan, period, sched, peak_value, throughput
        )
    details.update(
        {
            "m_opt": m_opt,
            "final_high_ratio": ratios,
            "tpt_iterations": core.tpt_iterations,
            "fill_iterations": fill_iters,
        }
    )
    if floor_volts is not None:
        details["constant_floor"] = floor_volts
    return SchedulerResult(
        name="AO",
        schedule=sched,
        throughput=throughput,
        peak_theta=peak_value,
        feasible=bool(within_threshold(peak_value, platform.theta_max)),
        details=details,
    )
