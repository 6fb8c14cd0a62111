"""Partitioned task-to-core mapping heuristics.

Three packers over the same capacity model (a core at maximum speed
``v_max`` sustains utilization up to ``v_max``):

* :func:`first_fit_decreasing` — classic FFD bin packing; concentrates
  load on low-index cores.
* :func:`worst_fit_decreasing` — balances utilization across cores; the
  usual choice for thermal friendliness.
* :func:`thermal_aware_mapping` — worst-fit weighted by each core's
  thermal quality (steady-state temperature per watt), so the center core
  of a 3x3 chip receives less work than the corners.  This is the
  floorplan-awareness the paper's asymmetric ideal voltages call for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SolverError
from repro.platform import Platform
from repro.tolerances import UTILIZATION_SLACK

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.realtime imports repro.sim)
    from repro.realtime.tasks import RTTask, TaskSet

__all__ = [
    "Mapping",
    "first_fit_decreasing",
    "worst_fit_decreasing",
    "thermal_aware_mapping",
]


@dataclass(frozen=True)
class Mapping:
    """A partitioned assignment of tasks to cores.

    Attributes
    ----------
    assignment:
        task name -> core index.
    taskset:
        The mapped task set.
    n_cores:
        Number of cores on the platform.
    """

    assignment: dict[str, int]
    taskset: TaskSet
    n_cores: int

    def core_tasks(self, core: int) -> list[RTTask]:
        """Tasks assigned to one core."""
        return [t for t in self.taskset if self.assignment[t.name] == core]

    def core_utilizations(self) -> np.ndarray:
        """Per-core total utilization at reference speed."""
        utils = np.zeros(self.n_cores)
        for task in self.taskset:
            utils[self.assignment[task.name]] += task.utilization
        return utils

    def required_speeds(self) -> np.ndarray:
        """Per-core average speed sustaining the assigned load under EDF.

        A core at average speed ``s`` completes utilization ``s`` per unit
        time, so the required speed equals the assigned utilization
        (idle cores require 0).
        """
        return self.core_utilizations()


def _pack(
    taskset: TaskSet,
    n_cores: int,
    capacity: float,
    choose_core,
) -> Mapping:
    load = np.zeros(n_cores)
    assignment: dict[str, int] = {}
    for task in taskset.sorted_by_utilization():
        core = choose_core(load, task)
        if core is None:
            raise SolverError(
                f"task {task.name!r} (u={task.utilization:.3f}) does not fit: "
                f"per-core capacity {capacity:.3f}, loads {np.round(load, 3)}"
            )
        assignment[task.name] = core
        load[core] += task.utilization
    return Mapping(assignment=assignment, taskset=taskset, n_cores=n_cores)


def first_fit_decreasing(taskset: TaskSet, platform: Platform) -> Mapping:
    """FFD: place each task on the first core with room."""
    capacity = platform.ladder.v_max

    def choose(load, task):
        for core in range(platform.n_cores):
            if load[core] + task.utilization <= capacity + UTILIZATION_SLACK:
                return core
        return None

    return _pack(taskset, platform.n_cores, capacity, choose)


def worst_fit_decreasing(taskset: TaskSet, platform: Platform) -> Mapping:
    """WFD: place each task on the least-loaded core with room."""
    capacity = platform.ladder.v_max

    def choose(load, task):
        order = np.argsort(load)
        core = int(order[0])
        if load[core] + task.utilization <= capacity + UTILIZATION_SLACK:
            return core
        return None

    return _pack(taskset, platform.n_cores, capacity, choose)


def thermal_aware_mapping(taskset: TaskSet, platform: Platform) -> Mapping:
    """WFD weighted by thermal quality: cool-running cores get more load.

    Each core's *thermal weight* is the steady-state temperature it reaches
    per watt injected on it alone (the diagonal of the thermal response);
    loads are balanced in weighted terms ``load * weight`` so thermally
    disadvantaged cores (chip center) carry less utilization.
    """
    capacity = platform.ladder.v_max
    model = platform.model
    cores = model.network.core_nodes
    response = np.linalg.solve(model.g_eff, np.eye(model.n_nodes))
    weights = np.diag(response[np.ix_(cores, cores)])
    weights = weights / weights.min()

    def choose(load, task):
        order = np.argsort(load * weights)
        for core in order:
            if load[int(core)] + task.utilization <= capacity + UTILIZATION_SLACK:
                return int(core)
        return None

    return _pack(taskset, platform.n_cores, capacity, choose)
