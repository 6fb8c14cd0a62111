"""Real-time tasks and task sets: the one workload model.

The paper's scheduling object is a periodic DVFS pattern with no notion
of *jobs*; this module gives the work that pattern runs a concrete
shape, shared by every scheduler that consumes it:

* :class:`RTTask` — one implicit-deadline periodic task: worst-case
  execution *cycles* (so its WCET at speed ``v`` is ``wcec / v``), a
  period that is also its deadline, and a criticality rank that fixes
  the graceful-degradation shedding order (lowest rank shed first);
* :class:`TaskSet` — an immutable set of uniquely named tasks with two
  seeded UUniFast generators: :meth:`TaskSet.random` draws a period per
  task (partitioned EDF, :func:`~repro.sim.engine.cosimulate`), and
  :meth:`TaskSet.random_frame` gives every task one common period, the
  *frame* (the k-fault frame scheduler: each frame is one
  fault-containment and recovery unit).

Speeds are normalized so a core at speed 1.0 retires one cycle per
second: ``wcec / period_s`` is a task's utilization at reference speed,
and a core at average speed ``s`` sustains any EDF-assigned utilization
up to ``s``.

Layering: pure data — imports nothing above :mod:`repro.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RTTask", "TaskSet"]

#: UUniFast draws :meth:`TaskSet.random` makes before it clamps one.
RANDOM_DRAWS = 64


@dataclass(frozen=True)
class RTTask:
    """One implicit-deadline periodic real-time task.

    Attributes
    ----------
    name:
        Identifier, unique within a task set.
    wcec:
        Worst-case execution cycles per job, in speed-seconds: executing
        at speed ``v`` takes ``wcec / v`` seconds.
    period_s:
        Activation period (= relative deadline) in seconds.
    criticality:
        Degradation rank — when thermal margin runs out, the frame
        scheduler sheds tasks in ascending criticality (ties broken by
        name).
    """

    name: str
    wcec: float
    period_s: float
    criticality: int = 0

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

    def wcet_at(self, speed: float) -> float:
        """Worst-case execution time (s) at speed ``speed``."""
        if speed <= 0:
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        return self.wcec / float(speed)

    def as_dict(self) -> dict[str, Any]:
        """Frame wire form; the period travels once, as the set's ``frame_s``."""
        return {
            "name": self.name,
            "wcec": float(self.wcec),
            "criticality": int(self.criticality),
        }


@dataclass(frozen=True)
class TaskSet:
    """An immutable collection of uniquely named real-time tasks."""

    tasks: tuple[RTTask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate task names in {names}")

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def frame_s(self) -> float:
        """The tasks' common period: the frame of frame-based scheduling.

        Raises :class:`~repro.errors.ConfigurationError` when the set is
        empty or its periods differ — such a set has no frame.
        """
        periods = {t.period_s for t in self.tasks}
        if len(periods) != 1:
            raise ConfigurationError(
                "a frame needs a non-empty task set with one common period, "
                f"got periods {sorted(periods)}"
            )
        return periods.pop()

    @property
    def total_utilization(self) -> float:
        """Sum of task utilizations at reference speed."""
        return float(sum(t.utilization for t in self.tasks))

    def sorted_by_utilization(self) -> list[RTTask]:
        """Tasks by decreasing utilization (for the *-fit-decreasing packers)."""
        return sorted(self.tasks, key=lambda t: t.utilization, reverse=True)

    def shed_order(self) -> tuple[RTTask, ...]:
        """Tasks in degradation order: lowest criticality first."""
        return tuple(sorted(self.tasks, key=lambda t: (t.criticality, t.name)))

    def without(self, names) -> "TaskSet":
        """Copy with the named tasks shed."""
        drop = set(names)
        return replace(
            self, tasks=tuple(t for t in self.tasks if t.name not in drop)
        )

    def as_dict(self) -> dict[str, Any]:
        """Frame wire form ``{"frame_s", "tasks": [...]}`` (needs :attr:`frame_s`)."""
        return {
            "frame_s": float(self.frame_s),
            "tasks": [t.as_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskSet":
        frame_s = float(data["frame_s"])
        return cls(
            tasks=tuple(
                RTTask(
                    name=str(t["name"]),
                    wcec=float(t["wcec"]),
                    period_s=frame_s,
                    criticality=int(t.get("criticality", 0)),
                )
                for t in data["tasks"]
            )
        )

    @classmethod
    def random(
        cls,
        n_tasks: int,
        total_utilization: float,
        rng: np.random.Generator,
        period_range: tuple[float, float] = (0.01, 0.2),
        max_task_utilization: float = 1.0,
    ) -> "TaskSet":
        """UUniFast task set with a uniform random period per task.

        Individual task utilizations are capped at ``max_task_utilization``
        (no single task may exceed one reference core) by rejection
        sampling over the UUniFast split (:data:`RANDOM_DRAWS` draws); if
        the cap is statistically hard to satisfy one more draw is clamped
        and renormalized.
        """
        utils = _uunifast(
            n_tasks, total_utilization, rng, max_task_utilization, RANDOM_DRAWS
        )
        if utils is None:
            # Clamp one more draw and push the excess onto the unclamped
            # tasks.
            utils = _uunifast(n_tasks, total_utilization, rng)
            utils = np.minimum(utils, max_task_utilization)
            deficit = total_utilization - utils.sum()
            room = max_task_utilization - utils
            utils += room * (deficit / room.sum())

        tasks = []
        lo, hi = period_range
        for k, u in enumerate(utils):
            period = float(rng.uniform(lo, hi))
            tasks.append(
                RTTask(name=f"task{k}", wcec=float(u) * period, period_s=period)
            )
        return cls(tasks=tuple(tasks))

    @classmethod
    def random_frame(
        cls,
        n_tasks: int,
        total_utilization: float,
        frame_s: float,
        rng: np.random.Generator | int,
        max_task_utilization: float = 1.0,
    ) -> "TaskSet":
        """UUniFast frame task set: every task's period is ``frame_s``.

        ``total_utilization`` is the summed demand fraction of one frame
        when every task runs at speed 1.0; per-task shares come from the
        unbiased UUniFast split (resampled until no share exceeds
        ``max_task_utilization``).  Criticalities are a random
        permutation of ``0..n_tasks-1`` — every task has a distinct
        degradation rank, so shedding order is total.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        shares = _uunifast(
            n_tasks, total_utilization, rng, max_task_utilization, 1000
        )
        if shares is None:  # pragma: no cover - vanishingly unlikely at sane caps
            raise ConfigurationError(
                "could not draw a workload under the per-task cap"
            )
        ranks = rng.permutation(n_tasks)
        return cls(
            tasks=tuple(
                RTTask(
                    name=f"t{i}",
                    wcec=float(share * frame_s),
                    period_s=float(frame_s),
                    criticality=int(ranks[i]),
                )
                for i, share in enumerate(shares)
            )
        )


def _uunifast(
    n_tasks: int,
    total: float,
    rng: np.random.Generator,
    cap: float = np.inf,
    max_draws: int = 1,
) -> np.ndarray | None:
    """UUniFast (Bini & Buttazzo): an unbiased split of ``total`` in ``n_tasks``.

    Draws up to ``max_draws`` splits and returns the first whose largest
    share is at most ``cap``, or ``None`` once the budget is spent.  Each
    draw consumes ``n_tasks - 1`` uniforms from ``rng``.
    """
    if n_tasks < 1:
        raise ConfigurationError(f"n_tasks must be >= 1, got {n_tasks}")
    if not 0 < total <= n_tasks * cap:
        raise ConfigurationError(
            f"total utilization {total} cannot be split into {n_tasks} "
            f"tasks of at most {cap} each"
        )
    for _ in range(max_draws):
        shares = []
        remaining = total
        for i in range(n_tasks - 1):
            nxt = remaining * rng.random() ** (1.0 / (n_tasks - 1 - i))
            shares.append(remaining - nxt)
            remaining = nxt
        shares.append(remaining)
        if max(shares) <= cap:
            return np.asarray(shares)
    return None
