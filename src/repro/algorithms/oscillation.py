"""Section V machinery: mode planning, overhead compensation, choosing m.

Pipeline (mirroring Algorithm 2's first half):

1. :func:`plan_modes` — from the ideal continuous voltages, pick the two
   neighboring discrete modes per core and the throughput-preserving time
   ratios (eq. (11), justified by Theorems 3/4).
2. :func:`adjusted_high_ratios` — stretch the high mode by ``delta`` per
   oscillation cycle to pay for the DVFS clock-halt ``tau`` (section V).
3. :func:`build_oscillating_schedule` — emit the m-oscillating *step-up*
   schedule: per cycle (period ``t_p / m``), every core runs low then high.
   :func:`oscillating_rows` builds a whole candidate set of them as
   stacked arrays for the batch kernel, without a schedule object each.
4. :func:`choose_m` — linear scan ``m = 1 .. M`` (the overhead bound of
   :class:`~repro.power.dvfs.TransitionOverhead`), evaluating each
   candidate's stable peak through the Theorem-1 fast path, and keeping
   the minimizer.  Without overhead the peak is monotone decreasing in
   ``m`` (Theorem 5); with overhead the high-ratio inflation turns the
   scan into a genuine tradeoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import ThermalEngine, as_platform
from repro.errors import ScheduleError, SolverError
from repro.platform import Platform
from repro.schedule.builders import two_mode_rows, two_mode_schedule
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.batch import Rows
from repro.tolerances import IMPROVEMENT_MARGIN, RATIO_ATOL, VOLTAGE_ATOL

__all__ = [
    "ModePlan",
    "plan_modes",
    "adjusted_high_ratios",
    "build_oscillating_schedule",
    "oscillating_rows",
    "choose_m",
    "choose_m_grid",
    "effective_throughput",
]

#: Hard cap on the m scan, guarding against tau -> 0 blowing the bound up.
DEFAULT_M_CAP = 256


@dataclass(frozen=True)
class ModePlan:
    """Per-core two-neighboring-mode decomposition of a continuous point.

    Attributes
    ----------
    v_low, v_high:
        ``(n_cores,)`` chosen discrete modes (equal for constant cores).
    high_ratio:
        ``(n_cores,)`` fraction of time at ``v_high`` that reproduces the
        continuous throughput (eq. (11)), before overhead compensation.
    target_voltages:
        The continuous voltages the plan realizes.
    """

    v_low: np.ndarray
    v_high: np.ndarray
    high_ratio: np.ndarray
    target_voltages: np.ndarray

    @property
    def oscillating(self) -> np.ndarray:
        """Mask of cores that genuinely use two distinct modes."""
        return (
            (self.v_high > self.v_low + VOLTAGE_ATOL)
            & (self.high_ratio > RATIO_ATOL)
            & (self.high_ratio < 1 - RATIO_ATOL)
        )

    @property
    def n_cores(self) -> int:
        """Number of cores planned."""
        return self.v_low.shape[0]


def plan_modes(platform: Platform | ThermalEngine, voltages: np.ndarray) -> ModePlan:
    """Decompose continuous voltages onto the platform's discrete ladder.

    A target of exactly 0 means the core idles (power-gated) and is planned
    as a constant zero-voltage mode.
    """
    platform = as_platform(platform)
    voltages = np.asarray(voltages, dtype=float)
    v_low = np.empty_like(voltages)
    v_high = np.empty_like(voltages)
    ratio = np.empty_like(voltages)
    for i, v in enumerate(voltages):
        if v == 0.0:
            v_low[i] = v_high[i] = 0.0
            ratio[i] = 1.0
            continue
        lo, hi, _r_l, r_h = platform.ladder.split_ratios(float(v))
        v_low[i], v_high[i], ratio[i] = lo, hi, r_h
    return ModePlan(
        v_low=v_low, v_high=v_high, high_ratio=ratio, target_voltages=voltages.copy()
    )


def adjusted_high_ratios(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    m: int,
    period: float,
) -> np.ndarray:
    """High-mode ratios inflated to pay the transition overhead at this m.

    Per period each oscillating core performs ``m`` cycles; each cycle
    needs ``delta_i`` extra high time (section V), so
    ``r_H' = r_H + m * delta_i / period``.  Ratios are clamped to 1; cores
    whose low interval cannot host the transitions any more are reported
    by :func:`max_m_bound` — callers should not exceed it.
    """
    platform = as_platform(platform)
    ratios = plan.high_ratio.copy()
    tau = platform.overhead.tau
    if tau == 0 or m <= 0:
        return ratios
    osc = plan.oscillating
    for i in np.where(osc)[0]:
        delta = platform.overhead.delta(plan.v_low[i], plan.v_high[i])
        ratios[i] = min(1.0, ratios[i] + m * delta / period)
    return ratios


def max_m_bound(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    period: float,
    cap: int = DEFAULT_M_CAP,
) -> int:
    """Chip-wide oscillation bound ``M = min_i M_i`` (section V), capped."""
    platform = as_platform(platform)
    cores = []
    for i in np.where(plan.oscillating)[0]:
        t_low = (1.0 - plan.high_ratio[i]) * period
        cores.append((t_low, float(plan.v_low[i]), float(plan.v_high[i])))
    m = platform.overhead.max_m(cores)
    return max(1, min(m, cap))


def build_oscillating_schedule(
    plan: ModePlan,
    high_ratio,
    period: float,
    m: int,
) -> PeriodicSchedule:
    """The m-oscillating step-up schedule for the given (possibly adjusted) ratios.

    One emitted period is a single cycle of length ``period / m`` — every
    core low first, then high — which repeated periodically realizes the
    paper's "divide each interval into m and interleave" schedule while
    staying step-up (Theorem 1 applies to each cycle).
    """
    if m < 1:
        raise SolverError(f"m must be >= 1, got {m}")
    cycle = period / m
    return two_mode_schedule(plan.v_low, plan.v_high, np.asarray(high_ratio), cycle)


def oscillating_rows(plan: ModePlan, high_ratios, period: float, m) -> Rows:
    """:func:`build_oscillating_schedule` for K ratio rows at once, as arrays.

    ``high_ratios`` is ``(K, n_cores)`` and ``m`` a scalar or ``(K,)``.
    Row k holds exactly the lengths and voltage matrix of
    ``build_oscillating_schedule(plan, high_ratios[k], period, m[k])``
    (:func:`~repro.schedule.builders.two_mode_rows`), padded to the
    widest row.
    """
    ratios = np.asarray(high_ratios, dtype=float)
    m = np.broadcast_to(np.asarray(m), ratios.shape[:1])
    if m.size and m.min() < 1:
        raise SolverError(f"m must be >= 1, got {m.min()}")
    if np.any((ratios < -RATIO_ATOL) | (ratios > 1 + RATIO_ATOL)):
        raise ScheduleError(f"high_ratio must be within [0, 1], got {ratios}")
    return Rows(*two_mode_rows(plan.v_low, plan.v_high, ratios, period / m))


def choose_m(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    period: float,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
) -> tuple[int, PeriodicSchedule, list[tuple[int, float]]]:
    """Linear scan over m; return the peak-minimizing oscillation count.

    Returns ``(m_opt, schedule_at_m_opt, history)`` where history holds
    the scanned ``(m, peak)`` pairs for diagnostics and Fig. 5-style plots.
    The whole sweep is priced as one batch of candidate rows; only the
    chosen m's schedule is built.
    """
    engine = ThermalEngine.ensure(platform)
    m_max = max_m_bound(engine, plan, period, cap=m_cap)
    candidates = np.arange(1, m_max + 1, max(1, m_step))
    ratios = np.array(
        [adjusted_high_ratios(engine, plan, int(m), period) for m in candidates]
    )
    peaks = engine.stepup_peak_rows(
        oscillating_rows(plan, ratios, period, candidates)
    ).value.tolist()
    # The first m whose peak strictly improves wins.
    history: list[tuple[int, float]] = []
    best, best_peak = 0, np.inf
    for i, (m, peak) in enumerate(zip(candidates.tolist(), peaks)):
        history.append((m, peak))
        if peak < best_peak - IMPROVEMENT_MARGIN:
            best, best_peak = i, peak
    m_opt = int(candidates[best])
    return m_opt, build_oscillating_schedule(plan, ratios[best], period, m_opt), history


def choose_m_grid(
    targets,
    period: float,
    m_cap: int = DEFAULT_M_CAP,
    m_step: int = 1,
) -> list[tuple[int, PeriodicSchedule, list[tuple[int, float]]]]:
    """Run :func:`choose_m` for many (platform, plan) pairs.

    ``targets`` is a sequence of ``(platform_or_engine, plan)`` pairs;
    all scans share ``period``, ``m_cap`` and ``m_step``.  Returns one
    ``(m_opt, schedule, history)`` triple per target, in input order.
    Each scan is :func:`choose_m` itself, so the triples are the
    solver's bit for bit.  The comparison sweep no longer calls it (a
    cell's PCO reuses its AO's memoized core, m scan included); the name
    stays while ``perfbench/tracer.py`` wraps it.
    """
    return [
        choose_m(platform, plan, period, m_cap=m_cap, m_step=m_step)
        for platform, plan in targets
    ]


def effective_throughput(
    schedule: PeriodicSchedule,
    platform: Platform | ThermalEngine,
    transitions_per_period: np.ndarray | None = None,
) -> float:
    """Eq.-5 throughput net of DVFS clock-halt losses.

    ``transitions_per_period[i]`` is the number of voltage switches core i
    performs per schedule period (2 for a two-mode cycle).  The work lost
    per switch is ``v * tau`` at the voltage ruling when the clock halts;
    following the paper's accounting we charge ``(v_H + v_L) * tau`` per
    up/down pair, i.e. ``tau * sum of the two voltages`` per two switches.
    """
    platform = as_platform(platform)
    volts = schedule.voltage_matrix
    lengths = schedule.lengths
    total_work = float((volts * lengths[:, None]).sum())
    tau = platform.overhead.tau
    if tau > 0:
        for i in range(schedule.n_cores):
            distinct = np.unique(volts[:, i])
            if distinct.size >= 2:
                pairs = 1.0  # one up/down pair per period for a two-mode cycle
                if transitions_per_period is not None:
                    pairs = transitions_per_period[i] / 2.0
                total_work -= pairs * tau * (distinct.max() + distinct.min())
    return total_work / (schedule.n_cores * schedule.period)
