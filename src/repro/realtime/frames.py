"""Frame-based real-time workload model.

The paper's scheduling object is a periodic DVFS pattern with no notion
of *jobs*; EnSuRe-style fault-tolerant schedulers work the other way
around — frame-based task sets where every task releases one job per
frame and must finish by the frame end.  This module provides that
workload shape:

* :class:`RTTask` — one task: worst-case execution *cycles* (so its
  WCET at ladder speed ``v`` is ``wcec / v``), plus a criticality rank
  that fixes the graceful-degradation shedding order (lowest rank shed
  first);
* :class:`FrameWorkload` — a set of tasks sharing one frame (period =
  deadline = ``frame_s``), with a seeded UUniFast-style generator for
  the experiments and property tests.

Layering: pure data — imports nothing above :mod:`repro.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.util.sampling import uunifast

__all__ = ["RTTask", "FrameWorkload"]


@dataclass(frozen=True)
class RTTask:
    """One frame-based real-time task.

    Attributes
    ----------
    name:
        Unique identifier within a workload.
    wcec:
        Worst-case execution cycles, in speed-seconds: executing at
        ladder speed ``v`` takes ``wcec / v`` seconds.
    criticality:
        Degradation rank — when thermal margin runs out, the scheduler
        sheds tasks in ascending criticality (ties broken by name).
    """

    name: str
    wcec: float
    criticality: int = 0

    def __post_init__(self) -> None:
        if self.wcec <= 0:
            raise ConfigurationError(f"wcec must be > 0, got {self.wcec}")

    def wcet_at(self, speed: float) -> float:
        """Worst-case execution time (s) at ladder speed ``speed``."""
        if speed <= 0:
            raise ConfigurationError(f"speed must be > 0, got {speed}")
        return self.wcec / float(speed)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wcec": float(self.wcec),
            "criticality": int(self.criticality),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RTTask":
        return cls(
            name=str(data["name"]),
            wcec=float(data["wcec"]),
            criticality=int(data.get("criticality", 0)),
        )


@dataclass(frozen=True)
class FrameWorkload:
    """A frame-based task set: every task runs once per frame.

    All tasks share the frame — period and deadline are both
    ``frame_s``, the standard frame-based model of fault-tolerant
    real-time scheduling (each frame is one fault-containment and
    recovery unit).
    """

    frame_s: float
    tasks: tuple[RTTask, ...]

    def __post_init__(self) -> None:
        if self.frame_s <= 0:
            raise ConfigurationError(f"frame_s must be > 0, got {self.frame_s}")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigurationError("task names must be unique")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def utilization_at(self, speed: float) -> float:
        """Total demand as a fraction of one frame at uniform ``speed``."""
        return sum(t.wcet_at(speed) for t in self.tasks) / self.frame_s

    def task(self, name: str) -> RTTask:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r}")

    def shed_order(self) -> tuple[RTTask, ...]:
        """Tasks in degradation order: lowest criticality first."""
        return tuple(
            sorted(self.tasks, key=lambda t: (t.criticality, t.name))
        )

    def without(self, names) -> "FrameWorkload":
        """Copy with the named tasks shed."""
        drop = set(names)
        return replace(
            self, tasks=tuple(t for t in self.tasks if t.name not in drop)
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "frame_s": float(self.frame_s),
            "tasks": [t.as_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrameWorkload":
        return cls(
            frame_s=float(data["frame_s"]),
            tasks=tuple(RTTask.from_dict(t) for t in data["tasks"]),
        )

    @classmethod
    def random(
        cls,
        n_tasks: int,
        total_utilization: float,
        frame_s: float,
        rng: np.random.Generator | int,
        max_task_utilization: float = 1.0,
    ) -> "FrameWorkload":
        """UUniFast-style random workload at reference speed 1.0.

        ``total_utilization`` is the summed demand fraction of one frame
        when every task runs at speed 1.0; per-task shares come from the
        unbiased UUniFast split (resampled until no share exceeds
        ``max_task_utilization``).  Criticalities are a random
        permutation of ``0..n_tasks-1`` — every task has a distinct
        degradation rank, so shedding order is total.
        """
        if n_tasks < 1:
            raise ConfigurationError(f"n_tasks must be >= 1, got {n_tasks}")
        if not 0 < total_utilization <= n_tasks * max_task_utilization:
            raise ConfigurationError(
                f"total_utilization {total_utilization} not achievable with "
                f"{n_tasks} tasks capped at {max_task_utilization}"
            )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        shares = uunifast(
            n_tasks, total_utilization, rng, max_task_utilization, 1000
        )
        if shares is None:  # pragma: no cover - vanishingly unlikely at sane caps
            raise ConfigurationError(
                "could not draw a workload under the per-task cap"
            )
        ranks = rng.permutation(n_tasks)
        tasks = tuple(
            RTTask(
                name=f"t{i}",
                wcec=float(share * frame_s),
                criticality=int(ranks[i]),
            )
            for i, share in enumerate(shares)
        )
        return cls(frame_s=float(frame_s), tasks=tasks)
