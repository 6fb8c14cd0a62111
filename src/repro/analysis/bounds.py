"""Design-space pruning with the step-up peak bound (Theorem 2).

The point of Theorem 2 is cheap *screening*: the step-up reordering's peak
is computable in linear time and upper-bounds the candidate's true peak,
so candidates whose bound already fits under ``T_max`` can be accepted
without ever running the expensive general peak search.  This module
packages that bound-then-verify pattern:

* :func:`stepup_bound` — the bound itself (with the wrap-epsilon margin),
* :func:`classify_schedule` — accept / reject / verify decision for one
  candidate,
* :func:`prune_candidates` — batch screening with statistics, the shape a
  design-space explorer (like PCO's phase search) would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.transforms import step_up
from repro.thermal.model import ThermalModel
from repro.thermal.peak import peak_temperature, stepup_peak_temperature
from repro.tolerances import within_threshold

__all__ = ["Screen", "ScreeningReport", "stepup_bound", "classify_schedule",
           "prune_candidates"]

#: Safety margin (K) added to the bound to absorb the wrap-continuation
#: epsilon (EXPERIMENTS.md Finding 1: worst observed ~0.25 K on arbitrary
#: schedules, <1 % relative).
WRAP_MARGIN = 0.3
#: How far (K) a candidate's true peak may sit below its step-up bound; a
#: bound this far over ``theta_max`` rejects outright (a generous value on
#: the calibrated chip).
REJECT_SLACK = 5.0


class Screen(Enum):
    """Outcome of the cheap screening stage."""

    ACCEPT = "accept"    # bound (plus margin) fits under the threshold
    VERIFY = "verify"    # bound inconclusive; run the general engine
    REJECT = "reject"    # even an optimistic slack cannot save it


def stepup_bound(model: ThermalModel, schedule: PeriodicSchedule) -> float:
    """Theorem-2 upper bound on the schedule's stable peak (K above ambient)."""
    return stepup_peak_temperature(model, step_up(schedule), check=False).value


def classify_schedule(
    model: ThermalModel, schedule: PeriodicSchedule, theta_max: float
) -> Screen:
    """Screen one candidate against ``theta_max`` using only the bound.

    * ``ACCEPT`` when ``bound + WRAP_MARGIN <= theta_max`` — the
      candidate is certainly feasible (up to the wrap epsilon, absorbed
      by the margin).
    * ``REJECT`` when ``bound - REJECT_SLACK > theta_max`` — the bound is
      so far over that no reordering slack can rescue it.
    * ``VERIFY`` otherwise.
    """
    bound = stepup_bound(model, schedule)
    if bound + WRAP_MARGIN <= theta_max:
        return Screen.ACCEPT
    if bound - REJECT_SLACK > theta_max:
        return Screen.REJECT
    return Screen.VERIFY


@dataclass(frozen=True)
class ScreeningReport:
    """Batch screening outcome.

    Attributes
    ----------
    feasible:
        Indices of candidates established feasible (bound-accepted or
        verify-confirmed).
    infeasible:
        Indices established infeasible.
    verified:
        Indices that needed the general engine.
    """

    feasible: tuple[int, ...]
    infeasible: tuple[int, ...]
    verified: tuple[int, ...]

    @property
    def general_engine_fraction(self) -> float:
        """Share of candidates that needed the expensive engine."""
        total = len(self.feasible) + len(self.infeasible)
        return len(self.verified) / total if total else 0.0


def prune_candidates(
    model: ThermalModel, candidates: list[PeriodicSchedule], theta_max: float
) -> ScreeningReport:
    """Screen a candidate list, verifying only the inconclusive ones."""
    feasible: list[int] = []
    infeasible: list[int] = []
    verified: list[int] = []
    for k, schedule in enumerate(candidates):
        screen = classify_schedule(model, schedule, theta_max)
        if screen is Screen.ACCEPT:
            feasible.append(k)
        elif screen is Screen.REJECT:
            infeasible.append(k)
        else:
            verified.append(k)
            true_peak = peak_temperature(model, schedule).value
            (feasible if within_threshold(true_peak, theta_max) else infeasible).append(k)
    return ScreeningReport(
        feasible=tuple(feasible),
        infeasible=tuple(infeasible),
        verified=tuple(verified),
    )
