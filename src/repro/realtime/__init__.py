"""Thermal-margin-aware k-fault-tolerant real-time frame scheduling.

The fusion the ROADMAP's "fault-tolerant real-time frames" item asks
for: EnSuRe-style primary/backup frame scheduling whose fault-tolerance
budget *is* the certified thermal margin of the safety layer.

* :mod:`repro.realtime.tasks` — the one real-time task model
  (:class:`RTTask` / :class:`TaskSet`), shared with partitioned EDF,
  :func:`~repro.workload.schedule_taskset` and
  :func:`~repro.sim.engine.cosimulate`;
* :mod:`repro.realtime.scheduler` — :func:`plan_frames`, the
  margin-aware (vs thermally-blind) k-fault-tolerant placement;
* :mod:`repro.realtime.recovery` — :func:`simulate_recovery`, closed-
  loop validation of backup activation, re-certification of the
  degraded placement, and graceful degradation by criticality.

Layering: nothing here may import :mod:`repro.algorithms` or
:mod:`repro.experiments` (enforced by the TID253 ruff ban and the
public-API layering tests).
"""

from repro.realtime.tasks import RTTask, TaskSet
from repro.realtime.recovery import (
    RecoveryReport,
    simulate_recovery,
    snap_failures,
)
from repro.realtime.scheduler import (
    FramePlacement,
    PlacedTask,
    overload_factor,
    plan_frames,
)

__all__ = [
    "RTTask",
    "TaskSet",
    "FramePlacement",
    "PlacedTask",
    "RecoveryReport",
    "overload_factor",
    "plan_frames",
    "simulate_recovery",
    "snap_failures",
]
