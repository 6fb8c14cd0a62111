"""LNS — the lower-neighboring-speed baseline (section III).

Compute the ideal continuous voltages, then round each core *down* to the
nearest available discrete level.  Monotonicity of the thermal map makes
the rounded point always feasible, but with few levels the loss can be
large — this is the pessimism the paper's motivation example quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.algorithms.continuous import continuous_assignment
from repro.engine import ThermalEngine, engine_entrypoint
from repro.schedule.builders import constant_schedule
from repro.tolerances import within_threshold

__all__ = ["lns"]


@engine_entrypoint("LNS")
def lns(engine: ThermalEngine, period: float = 0.02) -> SchedulerResult:
    """Run the LNS baseline.

    Parameters
    ----------
    engine:
        The target platform (or its :class:`ThermalEngine`).
    period:
        Nominal period of the emitted (constant) schedule — it only labels
        the schedule object; a constant schedule's behaviour is
        period-independent.
    """
    cont = continuous_assignment(engine.platform)
    voltages = np.array(
        [engine.ladder.lower_neighbor(v) for v in cont.voltages]
    )
    theta = engine.steady_state_cores(voltages)
    peak = float(theta.max())
    return SchedulerResult(
        name="LNS",
        schedule=constant_schedule(voltages, period=period),
        throughput=float(np.mean(voltages)),
        peak_theta=peak,
        feasible=bool(within_threshold(peak, engine.theta_max)),
        details={"continuous_voltages": cont.voltages},
    )
