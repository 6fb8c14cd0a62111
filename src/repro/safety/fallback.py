"""Graceful-degradation ladder for solver failures.

When a registered solver crashes (:class:`~repro.errors.SolverError`, a
linear-algebra failure on an ill-conditioned platform) or its result
fails certification, :func:`repro.algorithms.registry.guarded_solve`
walks this chain instead of losing the grid cell:

1. ``neighbor_rounding`` — the LNS baseline: round the continuous
   assignment down one ladder level per core.  Feasible by monotonicity
   whenever the continuous relaxation was.
2. ``best_constant`` — the monotonicity-pruned exact search over the
   constant-mode lattice (:func:`repro.algorithms.ao.best_constant_above`
   seeded with no incumbent), i.e. EXS's answer without EXS's failure
   modes.
3. ``lowest_mode`` — every core at the ladder's lowest level.  Builds
   unconditionally (the never-fails floor); its feasibility is reported
   honestly rather than assumed.

Each hop emits a plain :class:`~repro.algorithms.base.SchedulerResult`
named after the hop; the guard re-labels it with the requested solver's
name and records the hop in ``details["fallback"]``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro.algorithms.ao import best_constant_above
from repro.algorithms.base import SchedulerResult
from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.lns import lns
from repro.algorithms.oscillation import plan_modes
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import SolverError
from repro.schedule.builders import constant_schedule
from repro.tolerances import within_threshold

__all__ = ["FALLBACK_CHAIN", "FALLBACK_PERIOD", "run_fallback_hop"]

#: Period (s) of every degraded schedule the chain builds.
FALLBACK_PERIOD = 0.02


def _neighbor_rounding(engine: ThermalEngine) -> SchedulerResult:
    return replace(lns(engine, period=FALLBACK_PERIOD), name="neighbor_rounding")


@engine_entrypoint("best_constant")
def _best_constant(engine: ThermalEngine) -> SchedulerResult:
    cont = continuous_assignment(engine.platform)
    plan = plan_modes(engine.platform, cont.voltages)
    volts = best_constant_above(engine.platform, plan, incumbent_sum=-1.0)
    if volts is None:
        raise SolverError("no feasible constant assignment exists")
    peak = float(engine.steady_state_cores(volts).max())
    return SchedulerResult(
        name="best_constant",
        schedule=constant_schedule(volts, period=FALLBACK_PERIOD),
        throughput=float(np.mean(volts)),
        peak_theta=peak,
        feasible=bool(within_threshold(peak, engine.theta_max)),
        details={"voltages": volts},
    )


@engine_entrypoint("lowest_mode")
def _lowest_mode(engine: ThermalEngine) -> SchedulerResult:
    volts = np.full(engine.n_cores, engine.ladder.v_min)
    peak = float(engine.steady_state_cores(volts).max())
    return SchedulerResult(
        name="lowest_mode",
        schedule=constant_schedule(volts, period=FALLBACK_PERIOD),
        throughput=float(np.mean(volts)),
        peak_theta=peak,
        feasible=bool(within_threshold(peak, engine.theta_max)),
        details={"voltages": volts},
    )


#: Degradation order: hop name -> builder.  Walked front to back; the
#: last hop never raises.
FALLBACK_CHAIN: dict[str, Callable[[ThermalEngine], SchedulerResult]] = {
    "neighbor_rounding": _neighbor_rounding,
    "best_constant": _best_constant,
    "lowest_mode": _lowest_mode,
}


def run_fallback_hop(hop: str, engine: ThermalEngine) -> SchedulerResult:
    """Build the degraded schedule for one named hop."""
    try:
        builder = FALLBACK_CHAIN[hop]
    except KeyError:
        raise SolverError(
            f"unknown fallback hop {hop!r}; chain: {list(FALLBACK_CHAIN)}"
        ) from None
    return builder(engine)
