"""TPT-guided ratio adjustment (Algorithm 2, lines 14-21) and headroom fill.

When the chosen m-oscillating schedule still tops ``T_max``, Algorithm 2
repeatedly converts high-mode time into low-mode time on the core with the
best *temperature-performance tradeoff*:

``TPT_i(j) = dT_i / (|v_{j,H} - v_{j,L}| * t_unit)``

— the reduction of the hottest core i's peak per unit of throughput
sacrificed on core j.  Linearity of the thermal system makes any core's
ratio a valid knob for any other core's temperature.

:func:`fill_headroom` runs the inverse move: when the peak sits *below*
``T_max`` (e.g. after PCO's phase interleaving), grow the high ratios,
always picking the core with the most throughput gained per degree of
headroom consumed.

Both loops support an adaptive step: the thermal response is locally
linear in the ratio perturbation, so we extrapolate how many ``t_unit``
quanta are needed and apply them in one batch, then re-verify — the
fixed-point answer matches the paper's one-unit-at-a-time loop while
cutting iterations by orders of magnitude (``adaptive=False`` restores
the literal loop).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.oscillation import ModePlan, build_oscillating_schedule
from repro.engine import PeakBatchFn, PeakFn, ThermalEngine
from repro.errors import ConvergenceError
from repro.platform import Platform
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.transforms import shift_cores
from repro.thermal.peak import PeakResult

__all__ = ["enforce_threshold", "fill_headroom"]


def enforce_threshold(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    ratios: np.ndarray,
    period: float,
    m: int,
    t_unit: float | None = None,
    peak_fn: PeakFn | None = None,
    peak_batch_fn: PeakBatchFn | None = None,
    adaptive: bool = True,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, PeriodicSchedule, PeakResult, int]:
    """Shrink high ratios until the stable peak respects ``T_max``.

    Parameters
    ----------
    ratios:
        Starting per-core high ratios (overhead-adjusted); not mutated.
    period, m:
        The oscillation parameters — the emitted cycle lasts ``period/m``.
    t_unit:
        Ratio quantum expressed in seconds of the *cycle* (default:
        cycle/200).
    peak_fn:
        Peak engine (default: the Theorem-1 step-up fast path).
    peak_batch_fn:
        Batched peak engine pricing a whole candidate set per call
        (default: the batched Theorem-1 engine when ``peak_fn`` is unset,
        else a per-candidate loop over ``peak_fn``).  Every iteration
        submits all single-quantum trials as one batch.
    adaptive:
        Batch multiple quanta per move using local linearity.

    Returns
    -------
    (ratios, schedule, peak, iterations)

    Raises
    ------
    ConvergenceError
        If the loop cannot reach feasibility (every ratio exhausted) or
        runs out of iterations.
    """
    engine = ThermalEngine.ensure(platform)
    peak_fn, peak_batch_fn = engine.resolve_peak_fns(peak_fn, peak_batch_fn)
    cycle = period / m
    if t_unit is None:
        t_unit = cycle / 200.0
    unit_ratio = t_unit / cycle
    theta_max = engine.theta_max

    ratios = np.asarray(ratios, dtype=float).copy()
    movable = plan.v_high > plan.v_low + 1e-12

    sched = build_oscillating_schedule(plan, ratios, period, m)
    peak = peak_fn(sched)
    iterations = 0

    while peak.value > theta_max + 1e-9:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"TPT loop exceeded {max_iter} iterations "
                f"(peak {peak.value:.3f} > {theta_max:.3f} K)"
            )
        hottest = peak.core
        best_j, best_tpt, best_drop = -1, -np.inf, 0.0
        movers = np.where(movable & (ratios > 1e-12))[0]
        trials = []
        for j in movers:
            trial = ratios.copy()
            trial[j] = max(0.0, trial[j] - unit_ratio)
            trials.append(build_oscillating_schedule(plan, trial, period, m))
        for j, trial_peak in zip(movers, peak_batch_fn(trials)):
            drop = peak.core_peaks[hottest] - trial_peak.core_peaks[hottest]
            tpt = drop / ((plan.v_high[j] - plan.v_low[j]) * t_unit)
            if tpt > best_tpt:
                best_j, best_tpt, best_drop = int(j), tpt, drop
        if best_j < 0:
            raise ConvergenceError(
                "no adjustable core left but the peak still exceeds T_max; "
                "the platform is infeasible even at the low modes"
            )

        steps = 1
        if adaptive and best_drop > 1e-12:
            needed = peak.value - theta_max
            # Undershoot the linear extrapolation slightly; the outer loop
            # re-verifies and tops up.  Cap each batch so the greedy
            # direction is re-evaluated at least every eighth of the
            # ratio range — otherwise one giant step can commit to a core
            # past the point where another became the better choice.
            steps = max(1, int(0.9 * needed / best_drop))
            steps = min(
                steps,
                int(ratios[best_j] / unit_ratio) + 1,
                max(1, int(0.125 / unit_ratio)),
            )
        ratios[best_j] = max(0.0, ratios[best_j] - steps * unit_ratio)
        sched = build_oscillating_schedule(plan, ratios, period, m)
        peak = peak_fn(sched)
        iterations += 1

    return ratios, sched, peak, iterations


def fill_headroom(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    ratios: np.ndarray,
    period: float,
    m: int,
    t_unit: float | None = None,
    peak_fn: PeakFn | None = None,
    peak_batch_fn: PeakBatchFn | None = None,
    adaptive: bool = True,
    max_iter: int = 100_000,
    shifts: list[float] | None = None,
) -> tuple[np.ndarray, PeriodicSchedule, PeakResult, int]:
    """Grow high ratios while the stable peak stays under ``T_max``.

    The symmetric move to :func:`enforce_threshold`: consumes thermal
    headroom for throughput, picking the core with the largest throughput
    gain per degree.  ``shifts`` (per-core phase offsets, used by PCO) are
    applied after rebuilding each candidate schedule; shifted schedules
    are no longer step-up, so supplying shifts without a ``peak_fn``
    falls back to the general peak engine (scalar and batched)
    automatically.  Candidate moves of one iteration are priced as a
    single batch through ``peak_batch_fn``.
    """
    engine = ThermalEngine.ensure(platform)
    # Shifted schedules are no longer step-up, so shifts without an
    # explicit peak engine select the general MatEx-style pair.
    needs_general = shifts is not None and any(off > 0 for off in shifts)
    peak_fn, peak_batch_fn = engine.resolve_peak_fns(
        peak_fn, peak_batch_fn, general=needs_general
    )
    cycle = period / m
    if t_unit is None:
        t_unit = cycle / 200.0
    unit_ratio = t_unit / cycle
    theta_max = engine.theta_max

    ratios = np.asarray(ratios, dtype=float).copy()
    movable = plan.v_high > plan.v_low + 1e-12

    offsets = {core: off for core, off in enumerate(shifts or ()) if off > 0}

    def rebuild(r: np.ndarray) -> PeriodicSchedule:
        sched = build_oscillating_schedule(plan, r, period, m)
        if offsets:
            sched = shift_cores(sched, offsets)
        return sched

    sched = rebuild(ratios)
    peak = peak_fn(sched)
    iterations = 0

    while peak.value <= theta_max - 1e-9 and iterations < max_iter:
        best_j, best_gain_rate, best_rise, best_trial = -1, -np.inf, 0.0, None
        movers = np.where(movable & (ratios < 1 - 1e-12))[0]
        trial_ratios, trial_scheds = [], []
        for j in movers:
            trial = ratios.copy()
            trial[j] = min(1.0, trial[j] + unit_ratio)
            trial_ratios.append(trial)
            trial_scheds.append(rebuild(trial))
        for j, trial, trial_sched, trial_peak in zip(
            movers, trial_ratios, trial_scheds, peak_batch_fn(trial_scheds)
        ):
            if trial_peak.value > theta_max + 1e-9:
                continue
            rise = max(trial_peak.value - peak.value, 1e-15)
            gain_rate = (plan.v_high[j] - plan.v_low[j]) / rise
            if gain_rate > best_gain_rate:
                best_j, best_gain_rate = int(j), gain_rate
                best_rise, best_trial = rise, (trial, trial_sched, trial_peak)
        if best_j < 0:
            break  # no single-quantum move stays feasible

        steps = 1
        if adaptive and best_rise > 1e-12:
            headroom = theta_max - peak.value
            steps = max(1, int(0.9 * headroom / best_rise))
            steps = min(
                steps,
                int((1.0 - ratios[best_j]) / unit_ratio),
                max(1, int(0.125 / unit_ratio)),
            )
        if steps <= 1:
            ratios, sched, peak = best_trial[0], best_trial[1], best_trial[2]
        else:
            trial = ratios.copy()
            trial[best_j] = min(1.0, trial[best_j] + steps * unit_ratio)
            trial_sched = rebuild(trial)
            trial_peak = peak_fn(trial_sched)
            if trial_peak.value <= theta_max + 1e-9:
                ratios, sched, peak = trial, trial_sched, trial_peak
            else:
                ratios, sched, peak = best_trial[0], best_trial[1], best_trial[2]
        iterations += 1

    return ratios, sched, peak, iterations
