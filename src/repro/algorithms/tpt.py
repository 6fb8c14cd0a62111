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

Each iteration prices its candidate set — one single-quantum move per
core — as stacked rows on the batch kernel
(:func:`~repro.algorithms.oscillation.oscillating_rows`); only the
schedule a loop accepts is built.

Both loops support an adaptive step: the thermal response is locally
linear in the ratio perturbation, so we extrapolate how many ``t_unit``
quanta are needed and apply them in one batch, then re-verify — the
fixed-point answer matches the paper's one-unit-at-a-time loop while
cutting iterations by orders of magnitude (``adaptive=False`` restores
the literal loop).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.oscillation import (
    ModePlan,
    build_oscillating_schedule,
    oscillating_rows,
)
from repro.engine import ThermalEngine
from repro.errors import ConvergenceError
from repro.platform import Platform
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.transforms import shift_core_rows, shift_cores
from repro.thermal.batch import PeakRows, Rows
from repro.thermal.peak import PeakResult
from repro.tolerances import FEASIBILITY_SLACK, RATIO_ATOL, RISE_FLOOR, SLOPE_FLOOR
from repro.tolerances import VOLTAGE_ATOL, within_threshold

__all__ = ["enforce_threshold", "fill_headroom"]


def _moved(ratios: np.ndarray, movers: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Trial ratio rows: row i is ``ratios`` with core ``movers[i]`` at ``moved[i]``."""
    trials = np.repeat(ratios[None, :], movers.size, axis=0)
    trials[np.arange(movers.size), movers] = moved
    return trials


def enforce_threshold(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    ratios: np.ndarray,
    period: float,
    m: int,
    t_unit: float | None = None,
    adaptive: bool = True,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, PeriodicSchedule, PeakResult, int]:
    """Shrink high ratios until the stable peak respects ``T_max``.

    Every schedule here is step-up, so peaks come from the Theorem-1
    engine: each accepted schedule on the scalar kernel, each iteration's
    trials as one batch of rows.

    Parameters
    ----------
    ratios:
        Starting per-core high ratios (overhead-adjusted); not mutated.
    period, m:
        The oscillation parameters — the emitted cycle lasts ``period/m``.
    t_unit:
        Ratio quantum expressed in seconds of the *cycle* (default:
        cycle/200).
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
    cycle = period / m
    if t_unit is None:
        t_unit = cycle / 200.0
    unit_ratio = t_unit / cycle
    theta_max = engine.theta_max

    ratios = np.asarray(ratios, dtype=float).copy()
    movable = plan.v_high > plan.v_low + VOLTAGE_ATOL
    swing = plan.v_high - plan.v_low

    sched = build_oscillating_schedule(plan, ratios, period, m)
    peak = engine.stepup_peak(sched)
    iterations = 0

    while not within_threshold(peak.value, theta_max):
        if iterations >= max_iter:
            raise ConvergenceError(
                f"TPT loop exceeded {max_iter} iterations "
                f"(peak {peak.value:.3f} > {theta_max:.3f} K)"
            )
        movers = np.flatnonzero(movable & (ratios > RATIO_ATOL))
        if not movers.size:
            raise ConvergenceError(
                "no adjustable core left but the peak still exceeds T_max; "
                "the platform is infeasible even at the low modes"
            )
        trials = _moved(ratios, movers, np.maximum(0.0, ratios[movers] - unit_ratio))
        trial_peaks = engine.stepup_peak_rows(
            oscillating_rows(plan, trials, period, m)
        )
        hottest = peak.core
        drops = peak.core_peaks[hottest] - trial_peaks.core_peaks[:, hottest]
        best = int(np.argmax(drops / (swing[movers] * t_unit)))
        best_j, best_drop = int(movers[best]), drops[best]

        steps = 1
        if adaptive and best_drop > SLOPE_FLOOR:
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
        peak = engine.stepup_peak(sched)
        iterations += 1

    return ratios, sched, peak, iterations


def _shift_rows(rows: Rows, offsets: dict[int, float]) -> Rows:
    """Every row with each ``core: offset`` of ``offsets`` applied, in order."""
    for core, offset in offsets.items():
        rows = Rows(*shift_core_rows(*rows, core, float(offset)))
    return rows


def fill_headroom(
    platform: Platform | ThermalEngine,
    plan: ModePlan,
    ratios: np.ndarray,
    period: float,
    m: int,
    t_unit: float | None = None,
    adaptive: bool = True,
    max_iter: int = 100_000,
    shifts: list[float] | None = None,
    start: tuple[PeriodicSchedule, PeakResult] | None = None,
) -> tuple[np.ndarray, PeriodicSchedule, PeakResult, int]:
    """Grow high ratios while the stable peak stays under ``T_max``.

    The symmetric move to :func:`enforce_threshold`: consumes thermal
    headroom for throughput, picking the core with the largest throughput
    gain per degree.  ``shifts`` (per-core phase offsets, used by PCO) are
    applied after rebuilding each candidate; shifted schedules are no
    longer step-up, so any positive shift selects the general peak engine.
    Candidate moves of one iteration are priced as a single batch of rows;
    a multi-quantum move is priced on the scalar kernel.  ``start`` is the
    schedule that ``ratios`` and ``shifts`` build and its scalar peak, when
    the caller has already priced it; it is not priced again.
    """
    engine = ThermalEngine.ensure(platform)
    cycle = period / m
    if t_unit is None:
        t_unit = cycle / 200.0
    unit_ratio = t_unit / cycle
    theta_max = engine.theta_max

    ratios = np.asarray(ratios, dtype=float).copy()
    movable = plan.v_high > plan.v_low + VOLTAGE_ATOL
    swing = plan.v_high - plan.v_low

    offsets = {core: off for core, off in enumerate(shifts or ()) if off > 0}

    def rebuild(r: np.ndarray) -> PeriodicSchedule:
        sched = build_oscillating_schedule(plan, r, period, m)
        if offsets:
            sched = shift_cores(sched, offsets)
        return sched

    def price(sched: PeriodicSchedule) -> PeakResult:
        if offsets:
            return engine.general_peak(sched)
        return engine.stepup_peak(sched)

    def price_rows(trials: np.ndarray) -> PeakRows:
        rows = oscillating_rows(plan, trials, period, m)
        if offsets:
            return engine.general_peak_rows(_shift_rows(rows, offsets))
        return engine.stepup_peak_rows(rows)

    if start is None:
        sched = rebuild(ratios)
        start = sched, price(sched)
    sched, peak = start
    iterations = 0

    while peak.value <= theta_max - FEASIBILITY_SLACK and iterations < max_iter:
        movers = np.flatnonzero(movable & (ratios < 1 - RATIO_ATOL))
        if not movers.size:
            break
        trials = _moved(ratios, movers, np.minimum(1.0, ratios[movers] + unit_ratio))
        trial_peaks = price_rows(trials)
        feasible = within_threshold(trial_peaks.value, theta_max)
        if not feasible.any():
            break  # no single-quantum move stays feasible
        rise = np.maximum(trial_peaks.value - peak.value, RISE_FLOOR)
        best = int(np.argmax(np.where(feasible, swing[movers] / rise, -np.inf)))
        best_j, best_rise = int(movers[best]), rise[best]

        steps = 1
        if adaptive and best_rise > SLOPE_FLOOR:
            headroom = theta_max - peak.value
            steps = max(1, int(0.9 * headroom / best_rise))
            steps = min(
                steps,
                int((1.0 - ratios[best_j]) / unit_ratio),
                max(1, int(0.125 / unit_ratio)),
            )
        if steps > 1:
            trial = ratios.copy()
            trial[best_j] = min(1.0, trial[best_j] + steps * unit_ratio)
            trial_sched = rebuild(trial)
            trial_peak = price(trial_sched)
            if not within_threshold(trial_peak.value, theta_max):
                steps = 1  # fall back to the single-quantum move
        if steps > 1:
            ratios, sched, peak = trial, trial_sched, trial_peak
        else:
            # The single-quantum trial keeps the price it got in the batch.
            ratios = trials[best].copy()
            sched = rebuild(ratios)
            peak = trial_peaks.result(best)
        iterations += 1

    return ratios, sched, peak, iterations
