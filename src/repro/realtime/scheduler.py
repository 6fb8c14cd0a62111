"""Thermal-margin-aware k-fault-tolerant frame scheduling.

EnSuRe-style frame schedulers buy k-fault tolerance with primary/backup
placement and backup-backup overloading, but are thermally blind; the
safety layer's :class:`~repro.safety.certificate.SafetyCertificate`
quantifies exactly how much thermal headroom each placement has to
spare.  This module fuses the two: **the fault-tolerance budget is the
certified thermal margin**.

The model
---------
Every task releases one job per frame and must finish by the frame end.
Each task gets a *primary* copy on one core and a chain of ``k`` backup
copies on ``k`` further distinct cores — so any ≤ k fail-stop core
failures leave every task with at least one alive copy.  All backup
copies execute inside one shared *backup window* at the end of the
frame, sized by exact enumeration of the worst ≤ k-failure activation
pattern (that sizing *is* backup-backup overloading: the window is far
smaller than the sum of all backup WCETs because at most k primaries
can fail at once).

Where the thermal margin comes in:

* backups land on the cores whose certified steady-state headroom is
  largest (``policy="margin"``); the thermally-blind baseline
  (``policy="blind"``) places by load only;
* activated backups run at the **highest ladder level the remaining
  margin certifies**: the worst-case activation envelope — every core
  oscillating to its activation level for the whole backup window every
  frame — is peak-evaluated, and activation levels are walked down from
  the top until the envelope fits under ``T_max``; the blind baseline
  always activates at the top level;
* on ill-conditioned platforms (large ``cond(G - E_beta)``) the
  certificate's peak re-derivations are numerically fragile, so the
  overloading benefit is distrusted: the window is inflated from the
  exact-enumeration size toward the no-overloading size proportionally
  to ``log cond`` (:func:`overload_factor`).

When a placement cannot be admitted, graceful degradation sheds the
lowest-criticality tasks (recorded in ``FramePlacement.shed``) until
the remainder fits — or :class:`~repro.errors.InfeasibleError` if
nothing survives.

Layering: may import the safety and thermal layers, never
:mod:`repro.algorithms` or :mod:`repro.experiments`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine import ThermalEngine
from repro.errors import ConfigurationError, InfeasibleError
from repro.platform import Platform
from repro.realtime.tasks import RTTask, TaskSet
from repro.safety.certificate import SafetyCertificate, certify
from repro.schedule.builders import from_core_timelines
from repro.schedule.periodic import MIN_INTERVAL, PeriodicSchedule
from repro.tolerances import ADMISSION_ATOL, CAPACITY_RTOL, within_threshold

__all__ = [
    "PlacedTask",
    "FramePlacement",
    "overload_factor",
    "plan_frames",
]

#: Condition numbers at or below this get the full overloading benefit.
COND_FULL_OVERLOAD = 1e2
#: Condition numbers at or above this get no overloading benefit at all.
COND_NO_OVERLOAD = 1e6


def overload_factor(condition_number: float) -> float:
    """How much of the backup-backup overloading benefit to trust.

    1.0 for well-conditioned platforms (``cond <= 1e2``): the backup
    window is the exact worst-≤k-failure enumeration.  0.0 for
    ill-conditioned ones (``cond >= 1e6``): every backup copy gets
    disjoint reserved time.  Log-linear in between — the overloading
    window shrinks proportionally to ``log cond``.
    """
    if not math.isfinite(condition_number):
        return 0.0
    lo, hi = math.log10(COND_FULL_OVERLOAD), math.log10(COND_NO_OVERLOAD)
    x = math.log10(max(condition_number, 1.0))
    return float(min(1.0, max(0.0, (hi - x) / (hi - lo))))


@dataclass(frozen=True)
class PlacedTask:
    """One task with its primary core and backup chain."""

    task: RTTask
    primary: int
    backups: tuple[int, ...]

    @property
    def name(self) -> str:
        return self.task.name

    def executing_core(self, failed) -> int | None:
        """First alive copy under the failure set, ``None`` if all dead."""
        if self.primary not in failed:
            return self.primary
        for core in self.backups:
            if core not in failed:
                return core
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "task": self.task.as_dict(),
            "primary": int(self.primary),
            "backups": [int(b) for b in self.backups],
        }


@dataclass(frozen=True)
class FramePlacement:
    """An admitted k-fault-tolerant frame placement.

    Attributes
    ----------
    workload:
        The *admitted* workload (shed tasks already removed).
    k:
        Number of fail-stop core failures tolerated per run.
    policy:
        ``"margin"`` (thermal-margin-aware) or ``"blind"``.
    levels:
        Per-core nominal ladder level index (primary execution speed).
    activation_levels:
        Per-core ladder level index backups execute at when activated.
    backup_window_s:
        Length of the shared backup window at the frame end.  Primaries
        are confined to ``[0, frame - window)``; all activated backups
        run inside ``[frame - window, frame)``.
    placements:
        One :class:`PlacedTask` per admitted task.
    shed:
        Names of tasks shed at admission, in shedding order (lowest
        criticality first) — the journaled degradation record.
    certificate:
        Independent certificate of the worst-case activation envelope
        (every core hot for the full window, every frame).  For the
        blind policy this is evaluated but never consulted — which is
        exactly how blind placements end up certifiably unsafe.
    condition_number:
        ``cond(G - E_beta)`` of the platform the window sizing used.
    overload:
        The :func:`overload_factor` applied to the window sizing.
    """

    workload: TaskSet
    k: int
    policy: str
    levels: tuple[int, ...]
    activation_levels: tuple[int, ...]
    backup_window_s: float
    placements: tuple[PlacedTask, ...]
    shed: tuple[str, ...]
    certificate: SafetyCertificate | None
    condition_number: float
    overload: float
    ladder_levels: tuple[float, ...] = field(repr=False, default=())

    @property
    def n_cores(self) -> int:
        return len(self.levels)

    @property
    def frame_s(self) -> float:
        return self.workload.frame_s

    def placed(self, name: str) -> PlacedTask:
        for p in self.placements:
            if p.name == name:
                return p
        raise KeyError(f"no placed task named {name!r}")

    def speed(self, core: int, activated: bool = False) -> float:
        idx = self.activation_levels[core] if activated else self.levels[core]
        return float(self.ladder_levels[idx])

    def primary_seconds(self, core: int) -> float:
        """Primary execution time reserved on ``core`` per frame."""
        v = self.speed(core)
        return sum(
            p.task.wcet_at(v) for p in self.placements if p.primary == core
        )

    def activated_backups(self, failed) -> dict[str, int]:
        """``task name -> executing backup core`` under a failure set.

        Only tasks whose primary failed appear; a task with no alive
        copy (more than k failures hit its chain) maps to ``-1``.
        """
        failed = frozenset(failed)
        out: dict[str, int] = {}
        for p in self.placements:
            if p.primary in failed:
                core = p.executing_core(failed)
                out[p.name] = -1 if core is None else int(core)
        return out

    def envelope_schedule(self) -> PeriodicSchedule:
        """Worst-case activation envelope as a periodic schedule.

        Every core runs its nominal level for ``frame - window`` then
        its activation level for the full window — an upper bound on
        any reachable ≤ k-failure execution, since real frames activate
        at most a subset of the backups (and failed cores draw zero).
        Per core the voltage is non-decreasing, so the envelope is a
        step-up schedule and the Theorem-1 fast path applies.
        """
        frame, window = self.frame_s, self.backup_window_s
        timelines = []
        for core in range(self.n_cores):
            v_nom, v_act = self.speed(core), self.speed(core, activated=True)
            if window < MIN_INTERVAL or v_nom == v_act:
                timelines.append([(frame, v_nom)])
            else:
                timelines.append([(frame - window, v_nom), (window, v_act)])
        return from_core_timelines(timelines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "k": int(self.k),
            "policy": self.policy,
            "frame_s": float(self.frame_s),
            "levels": [int(v) for v in self.levels],
            "activation_levels": [int(v) for v in self.activation_levels],
            "backup_window_s": float(self.backup_window_s),
            "placements": [p.as_dict() for p in self.placements],
            "shed": list(self.shed),
            "condition_number": float(self.condition_number),
            "overload": float(self.overload),
            "certificate_accepted": (
                None if self.certificate is None
                else bool(self.certificate.accepted)
            ),
        }


# ----------------------------------------------------------------------
# placement internals
# ----------------------------------------------------------------------


def _failure_sets(n_cores: int, k: int):
    """Every non-empty failure set of at most k cores."""
    for size in range(1, k + 1):
        yield from itertools.combinations(range(n_cores), size)


def _worst_backup_cycles(
    placements: list[PlacedTask], n_cores: int, k: int
) -> np.ndarray:
    """Exact per-core worst-case activated backup cycles over ≤k failures.

    Enumerates every failure set (cheap at realistic core counts: the
    count is ``sum_{i<=k} C(n, i)``) and routes each failed task to the
    first alive core of its chain — the overloaded window only pays for
    activations that can actually coincide.
    """
    worst = np.zeros(n_cores)
    for failed in _failure_sets(n_cores, k):
        fset = frozenset(failed)
        demand = np.zeros(n_cores)
        for p in placements:
            if p.primary in fset:
                core = p.executing_core(fset)
                if core is not None:
                    demand[core] += p.task.wcec
        np.maximum(worst, demand, out=worst)
    return worst


def _no_overload_cycles(
    placements: list[PlacedTask], n_cores: int
) -> np.ndarray:
    """Per-core backup cycles with no overlap trusted at all."""
    total = np.zeros(n_cores)
    for p in placements:
        for core in p.backups:
            total[core] += p.task.wcec
    return total


def _base_level(engine: ThermalEngine) -> int:
    """Highest uniform ladder level whose constant assignment fits."""
    levels = engine.ladder.levels
    n = engine.n_cores
    for idx in range(len(levels) - 1, -1, -1):
        volts = np.full(n, float(levels[idx]))
        peak = float(engine.steady_state_cores(volts).max())
        if within_threshold(peak, engine.theta_max):
            return idx
    raise InfeasibleError(
        "no uniform ladder level keeps the steady state under "
        f"theta_max = {engine.theta_max:.2f} K"
    )


def _place(
    workload: TaskSet,
    n_cores: int,
    k: int,
    policy: str,
    headroom: np.ndarray,
    speeds: np.ndarray,
) -> list[PlacedTask]:
    """Primary + backup-chain placement (no capacity verdict yet).

    Primaries: worst-fit decreasing by execution time.  Backup chains:
    the margin policy ranks candidate cores by certified steady-state
    headroom (discounted by the backup cycles already parked there);
    the blind policy ranks by load alone.
    """
    primary_load = np.zeros(n_cores)
    backup_load = np.zeros(n_cores)
    placements: list[PlacedTask] = []
    order = sorted(workload.tasks, key=lambda t: (-t.wcec, t.name))
    for task in order:
        primary = int(np.argmin(primary_load))
        primary_load[primary] += task.wcet_at(float(speeds[primary]))
        candidates = [c for c in range(n_cores) if c != primary]
        if policy == "margin":
            candidates.sort(
                key=lambda c: (
                    -(headroom[c] - backup_load[c]),
                    backup_load[c],
                    c,
                )
            )
        else:
            candidates.sort(
                key=lambda c: (primary_load[c] + backup_load[c], c)
            )
        chain = tuple(candidates[:k])
        for core in chain:
            backup_load[core] += task.wcec / float(speeds[core])
        placements.append(PlacedTask(task=task, primary=primary, backups=chain))
    return placements


def plan_frames(
    platform: "Platform | ThermalEngine",
    workload: TaskSet,
    k: int = 1,
    policy: str = "margin",
) -> FramePlacement:
    """Place a frame task set k-fault-tolerantly on a platform.

    The frame is the tasks' common period (:attr:`TaskSet.frame_s`).

    Parameters
    ----------
    k:
        Core failures to tolerate; needs ``k + 1 <= n_cores`` (every
        task carries k backup copies on distinct cores).
    policy:
        ``"margin"`` — backups consume certified thermal margin and
        activation levels are capped by what the margin certifies;
        ``"blind"`` — classic load-balanced placement that activates at
        the top ladder level unconditionally (the EnSuRe-style
        baseline this module exists to beat at matched ``T_max``).

    Raises
    ------
    ConfigurationError
        When the tasks do not share one period (no frame).
    InfeasibleError
        When no subset of the workload can be admitted.
    """
    if policy not in ("margin", "blind"):
        raise ConfigurationError(
            f"policy must be 'margin' or 'blind', got {policy!r}"
        )
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    frame = workload.frame_s
    engine = ThermalEngine.ensure(platform)
    n = engine.n_cores
    if k >= n:
        raise InfeasibleError(
            f"k={k} fault tolerance needs at least {k + 1} cores, have {n}"
        )
    ladder = tuple(float(v) for v in engine.ladder.levels)
    base = _base_level(engine)
    nominal = np.full(n, base, dtype=int)
    speeds = np.array([ladder[i] for i in nominal])
    headroom = engine.theta_max - engine.steady_state_cores(speeds)
    cond = float(engine.condition_number())
    overload = overload_factor(cond) if policy == "margin" else 1.0

    remaining = workload
    shed: list[str] = []
    while remaining.tasks:
        placements = _place(remaining, n, k, policy, headroom, speeds)
        admitted = _admit(
            engine, remaining, placements, nominal, k, policy, overload, frame,
        )
        if admitted is not None:
            activation, window = admitted
            envelope = _envelope(ladder, nominal, activation, frame, window)
            cert = certify(engine, envelope)
            if policy == "blind" or (cert.accepted and cert.feasible):
                return FramePlacement(
                    workload=remaining,
                    k=k,
                    policy=policy,
                    levels=tuple(int(i) for i in nominal),
                    activation_levels=tuple(int(i) for i in activation),
                    backup_window_s=float(window),
                    placements=tuple(placements),
                    shed=tuple(shed),
                    certificate=cert,
                    condition_number=cond,
                    overload=float(overload),
                    ladder_levels=ladder,
                )
            # The margin policy refuses a fit its certificate won't
            # stand behind; fall through to shedding.
        victim = remaining.shed_order()[0]
        shed.append(victim.name)
        remaining = remaining.without([victim.name])
    raise InfeasibleError(
        f"no task subset admissible at k={k} ({policy}); "
        f"shed everything: {shed}"
    )


def _admit(
    engine: ThermalEngine,
    workload: TaskSet,
    placements: list[PlacedTask],
    nominal: np.ndarray,
    k: int,
    policy: str,
    overload: float,
    frame: float,
):
    """Size the window, fix activation levels, and check capacity.

    Returns ``(activation_levels, window_s)`` when the placement fits,
    ``None`` when it does not (the caller then sheds and retries).
    """
    ladder = tuple(float(v) for v in engine.ladder.levels)
    top = len(ladder) - 1
    n = engine.n_cores
    exact = _worst_backup_cycles(placements, n, k)
    noov = _no_overload_cycles(placements, n)
    cycles = exact + (1.0 - overload) * (noov - exact)
    activation = np.full(n, top, dtype=int)
    np.maximum(activation, nominal, out=activation)

    def window_of(act: np.ndarray) -> float:
        if not cycles.any():
            return 0.0
        secs = cycles / np.array([ladder[i] for i in act])
        return float(secs.max())

    if policy == "margin":
        # Walk activation levels down from the top until the worst-case
        # envelope fits under the margin the certificate stands behind.
        while True:
            window = window_of(activation)
            if window > frame * (1 - CAPACITY_RTOL):
                return None  # even the window alone overflows the frame
            sched = _envelope(ladder, nominal, activation, frame, window)
            peak = engine.general_peak(sched)
            if within_threshold(peak.value, engine.theta_max):
                break
            order = np.argsort(-np.asarray(peak.core_peaks))
            for core in order:
                if activation[core] > nominal[core]:
                    activation[core] -= 1
                    break
            else:
                # Envelope equals the nominal constant assignment, which
                # _base_level certified; numerical slack only.
                break
    window = window_of(activation)
    if window > frame * (1 - CAPACITY_RTOL):
        return None
    # Primaries must complete before the shared window opens.
    for core in range(n):
        v = ladder[nominal[core]]
        primary_s = sum(
            p.task.wcet_at(v) for p in placements if p.primary == core
        )
        if primary_s > (frame - window) * (1 + CAPACITY_RTOL) + ADMISSION_ATOL:
            return None
    return activation, window


def _envelope(ladder, nominal, activation, frame, window) -> PeriodicSchedule:
    timelines = []
    for core in range(len(nominal)):
        v_nom = float(ladder[nominal[core]])
        v_act = float(ladder[activation[core]])
        if window < MIN_INTERVAL or v_nom == v_act:
            timelines.append([(frame, v_nom)])
        else:
            timelines.append([(frame - window, v_nom), (window, v_act)])
    return from_core_timelines(timelines)
