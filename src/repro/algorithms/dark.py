"""Dark-silicon scheduling: power-gate cores until the rest can run.

The paper's system model allows inactive cores (``v = f = 0``), and its
introduction cites the dark-silicon problem [7]; dense 3D stacks built
with :func:`repro.platform.platform_3d` make the case concrete — past a
certain layer count not even the all-``v_min`` configuration is thermally
feasible, so *some* cores must go dark.

:func:`dark_silicon_ao` searches the gating greedily: while the active set
is infeasible (or while gating improves throughput), switch off the core
with the worst thermal quality (steady-state self-heating per watt),
then run AO on the survivors.  Greedy-by-thermal-quality is not provably
optimal but matches how the continuous budget concentrates on
well-cooled cores.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.algorithms.ao import ao
from repro.algorithms.base import SchedulerResult
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import InfeasibleError, SolverError
from repro.platform import Platform
from repro.tolerances import IMPROVEMENT_MARGIN

__all__ = ["dark_silicon_ao"]


def _thermal_quality_order(platform: Platform) -> np.ndarray:
    """Core indices sorted worst-cooled first (gate these first)."""
    model = platform.model
    cores = model.network.core_nodes
    response = np.linalg.solve(model.g_eff, np.eye(model.n_nodes))
    self_heating = np.diag(response[np.ix_(cores, cores)])
    return np.argsort(-self_heating)


@engine_entrypoint("dark")
def dark_silicon_ao(
    engine: ThermalEngine,
    max_dark: int | None = None,
    explore_extra: int = 1,
    **ao_kwargs,
) -> SchedulerResult:
    """AO with greedy power gating.

    Parameters
    ----------
    engine:
        The target platform (or its :class:`ThermalEngine`).
    max_dark:
        Maximum number of cores allowed to go dark
        (default: ``n_cores - 1``).
    explore_extra:
        After the first feasible active set is found, try gating this many
        *additional* cores and keep whichever result has the highest
        chip-wide throughput (gating can pay when a hot core's minimum
        speed costs its neighbours more than it contributes).
    **ao_kwargs:
        Forwarded to :func:`repro.algorithms.ao.ao`.

    Raises
    ------
    InfeasibleError
        If no active set (down to a single core) is feasible.
    """
    platform = engine.platform
    n = platform.n_cores
    if max_dark is None:
        max_dark = n - 1
    order = _thermal_quality_order(platform)

    best: SchedulerResult | None = None
    found_at: int | None = None
    for dark_count in range(0, max_dark + 1):
        active = np.ones(n, dtype=bool)
        active[order[:dark_count]] = False
        try:
            result = ao(engine, active_mask=active, **ao_kwargs)
        except SolverError:
            continue  # this active set is thermally infeasible; gate more
        if found_at is None:
            found_at = dark_count
        if best is None or result.throughput > best.throughput + IMPROVEMENT_MARGIN:
            best = result
            best.details["dark_cores"] = sorted(int(c) for c in order[:dark_count])
        if found_at is not None and dark_count >= found_at + explore_extra:
            break

    if best is None:
        raise InfeasibleError(
            f"no active subset of up to {n} cores is feasible at "
            f"T_max={platform.t_max_c} C"
        )
    return replace(best, name="AO-dark")
