"""Periodic real-time tasks and task sets.

The paper's schedules "complete the same workload" per period; this module
gives that workload a concrete shape: implicit-deadline periodic tasks in
the Liu & Layland model.  A task's *utilization* is expressed at the
platform's reference speed (speed 1.0 == 1.0 V in the normalized f = v
convention): a core running at average speed ``s`` sustains any assigned
utilization up to ``s`` under EDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.util.sampling import uunifast

__all__ = ["PeriodicTask", "TaskSet"]


@dataclass(frozen=True)
class PeriodicTask:
    """An implicit-deadline periodic task.

    Attributes
    ----------
    name:
        Identifier (unique within a task set).
    wcec:
        Worst-case execution *cycles* per job, in units where a core at
        speed 1.0 retires one cycle per second — i.e. ``wcec / period_s``
        is the task's utilization at reference speed.
    period_s:
        Activation period (= deadline) in seconds.
    """

    name: str
    wcec: float
    period_s: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("task name must be non-empty")
        if self.wcec <= 0:
            raise ConfigurationError(f"wcec must be > 0, got {self.wcec}")
        if self.period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {self.period_s}")

    @property
    def utilization(self) -> float:
        """Utilization at reference speed 1.0."""
        return self.wcec / self.period_s

    def demand_at_speed(self, speed: float) -> float:
        """Fraction of a core this task occupies when the core runs at ``speed``."""
        if speed <= 0:
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        return self.utilization / speed


@dataclass(frozen=True)
class TaskSet:
    """An immutable collection of periodic tasks."""

    tasks: tuple[PeriodicTask, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate task names in {names}")
        object.__setattr__(self, "tasks", tuple(self.tasks))

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def total_utilization(self) -> float:
        """Sum of task utilizations at reference speed."""
        return float(sum(t.utilization for t in self.tasks))

    def utilizations(self) -> np.ndarray:
        """Per-task utilizations, in task order."""
        return np.array([t.utilization for t in self.tasks])

    def sorted_by_utilization(self, descending: bool = True) -> list[PeriodicTask]:
        """Tasks ordered by utilization (for the *-fit-decreasing packers)."""
        return sorted(self.tasks, key=lambda t: t.utilization, reverse=descending)

    @classmethod
    def random(
        cls,
        n_tasks: int,
        total_utilization: float,
        rng: np.random.Generator,
        period_range: tuple[float, float] = (0.01, 0.2),
        max_task_utilization: float = 1.0,
        max_attempts: int = 64,
    ) -> "TaskSet":
        """UUniFast-style random task set with the given total utilization.

        Individual task utilizations are capped at ``max_task_utilization``
        (no single task may exceed one reference core) by rejection
        sampling over the UUniFast split; if the cap is statistically hard
        to satisfy the final attempt is clamped and renormalized.
        """
        if n_tasks < 1:
            raise ConfigurationError(f"n_tasks must be >= 1, got {n_tasks}")
        if total_utilization <= 0:
            raise ConfigurationError(
                f"total_utilization must be > 0, got {total_utilization}"
            )
        if total_utilization > n_tasks * max_task_utilization:
            raise ConfigurationError(
                f"total utilization {total_utilization} cannot be split into "
                f"{n_tasks} tasks of at most {max_task_utilization} each"
            )

        utils = uunifast(
            n_tasks, total_utilization, rng, max_task_utilization, max_attempts
        )
        if utils is None:
            # Clamp one more draw and push the excess onto the unclamped
            # tasks.
            utils = uunifast(n_tasks, total_utilization, rng)
            utils = np.minimum(utils, max_task_utilization)
            deficit = total_utilization - utils.sum()
            room = max_task_utilization - utils
            utils += room * (deficit / room.sum())

        tasks = []
        lo, hi = period_range
        for k, u in enumerate(utils):
            period = float(rng.uniform(lo, hi))
            tasks.append(
                PeriodicTask(name=f"task{k}", wcec=float(u) * period, period_s=period)
            )
        return cls(tasks=tuple(tasks))
