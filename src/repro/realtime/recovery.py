"""Fault recovery for frame placements, validated in the closed loop.

:func:`simulate_recovery` takes an admitted
:class:`~repro.realtime.scheduler.FramePlacement` and a
:class:`~repro.safety.faults.FaultSpec` carrying core failures, and runs
the placement's frame executor through
:func:`repro.sim.engine.simulate_closed_loop` — the same cosimulation
core every closed-loop governor in the tree validates against.  The
executor oscillates each core between its nominal level (primary
window) and its activation level (backup window, only in frames where
the core actually hosts activated backups); the simulator power-gates
failed cores and reports the dense true-physics peak.

Fault model: failures are fail-stop and **frame-quantized** — a core
announced dead at fraction ``f`` stops at the next frame boundary (the
standard "faults are detected by the acceptance test at frame end"
abstraction).  Within a frame the failure set is therefore constant and
known at the frame start, which is what makes the k-fault guarantee
exact: every task whose primary is down executes its first alive backup
copy inside that frame's backup window, whose size was enumerated over
all ≤ k failure sets at admission.

After the run, the *degraded* placement left behind by permanent
failures — promoted tasks permanently hosted on their backup cores,
dead cores power-gated — is re-certified.  If its certificate is
rejected or infeasible, graceful degradation sheds the
lowest-criticality promoted tasks one at a time (journaled in
``RecoveryReport.shed``) until the remainder certifies; margin
exhaustion is thus converted into a recorded loss of the least
important work, never a silent thermal violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import Any

import numpy as np

from repro.engine import ThermalEngine
from repro.errors import ConfigurationError
from repro.platform import Platform
from repro.realtime.scheduler import FramePlacement
from repro.safety.certificate import (
    DEFAULT_TOLERANCE,
    SafetyCertificate,
    certify,
)
from repro.safety.faults import CoreFailure, FaultSpec
from repro.schedule.builders import from_core_timelines
from repro.schedule.periodic import MIN_INTERVAL
from repro.sim.engine import ClosedLoopTrace, simulate_closed_loop
from repro.tolerances import CAPACITY_ATOL, CAPACITY_RTOL, FRAME_SNAP

__all__ = ["RecoveryReport", "simulate_recovery", "snap_failures"]


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one fault-injected recovery run.

    Attributes
    ----------
    placement:
        The placement that was executed.
    faults:
        The frame-quantized fault spec the run actually used.
    trace:
        The closed-loop trace (true physics, failed cores power-gated).
    deadline_misses:
        Total job deadline misses across all frames (0 whenever at most
        ``placement.k`` cores failed).
    missed_tasks:
        Names of tasks that missed at least one deadline.
    activations:
        Journal of backup activations: ``(frame, task, core)`` triples.
    shed:
        Tasks shed by graceful degradation *during recovery* (on top of
        any admission-time sheds in ``placement.shed``), lowest
        criticality first.
    recertified:
        Certificate of the degraded steady placement after permanent
        failures (``None`` when every failure was transient or none
        occurred).  Issued against the same ``T_max`` the placement was
        admitted under.
    peak_theta:
        Dense peak (K above ambient) of the true trace.
    theta_max:
        The threshold the run was judged against.
    """

    placement: FramePlacement
    faults: FaultSpec
    trace: ClosedLoopTrace
    deadline_misses: int
    missed_tasks: tuple[str, ...]
    activations: tuple[tuple[int, str, int], ...]
    shed: tuple[str, ...]
    recertified: SafetyCertificate | None
    peak_theta: float
    theta_max: float

    @property
    def peak_ok(self) -> bool:
        """True trace stayed under the threshold (certificate tolerance)."""
        return self.peak_theta <= self.theta_max + DEFAULT_TOLERANCE

    @property
    def recertified_ok(self) -> bool:
        """Degraded placement certified (vacuously true without one)."""
        cert = self.recertified
        return cert is None or (cert.accepted and cert.feasible)

    @property
    def safe(self) -> bool:
        """Zero misses, threshold respected, degraded state certified."""
        return (
            self.deadline_misses == 0
            and self.peak_ok
            and self.recertified_ok
            and not self.shed
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "deadline_misses": int(self.deadline_misses),
            "missed_tasks": list(self.missed_tasks),
            "activations": [
                [int(f), name, int(c)] for f, name, c in self.activations
            ],
            "shed": list(self.shed),
            "peak_theta": float(self.peak_theta),
            "theta_max": float(self.theta_max),
            "peak_ok": bool(self.peak_ok),
            "recertified_ok": bool(self.recertified_ok),
            "safe": bool(self.safe),
        }


def snap_failures(faults: FaultSpec, n_frames: int) -> FaultSpec:
    """Quantize every core failure to the frame grid.

    ``at_fraction`` snaps *up* to the next frame boundary; transient
    outages snap up to whole frames (minimum one).  The returned spec is
    what both the physics (:func:`simulate_closed_loop` gates speed per
    step) and the deadline accounting consume, so the two can never
    disagree about when a core died.
    """
    if n_frames < 1:
        raise ConfigurationError(f"n_frames must be >= 1, got {n_frames}")
    snapped = []
    for f in faults.core_failures:
        start = min(ceil(f.at_fraction * n_frames - FRAME_SNAP), n_frames)
        duration = f.duration_fraction
        if f.kind == "transient":
            frames = max(1, ceil(duration * n_frames - FRAME_SNAP))
            duration = frames / n_frames
        snapped.append(
            CoreFailure(
                core=f.core,
                at_fraction=start / n_frames,
                kind=f.kind,
                duration_fraction=duration,
            )
        )
    return replace(faults, core_failures=tuple(snapped))


def _frame_failures(
    faults: FaultSpec, n_frames: int, n_cores: int
) -> list[frozenset[int]]:
    """Failure set per frame (failures already frame-quantized)."""
    sets = []
    for frame in range(n_frames):
        fraction = frame / n_frames
        sets.append(
            frozenset(
                c for c in faults.failed_cores_at(fraction) if c < n_cores
            )
        )
    return sets


def simulate_recovery(
    platform: "Platform | ThermalEngine",
    placement: FramePlacement,
    faults: FaultSpec | dict | None,
    *,
    n_frames: int = 8,
    steps_per_frame: int = 8,
) -> RecoveryReport:
    """Execute a placement under injected core failures and recover.

    The run covers ``n_frames`` frames at ``steps_per_frame`` sensor
    steps each; the backup window is quantized up to whole steps so the
    executor's level changes land exactly on sensor instants.
    """
    engine = ThermalEngine.ensure(platform)
    faults = FaultSpec.coerce(faults) or FaultSpec()
    faults = snap_failures(faults, n_frames)
    n = placement.n_cores
    if n != engine.n_cores:
        raise ConfigurationError(
            f"placement has {n} cores, platform has {engine.n_cores}"
        )
    frame = placement.frame_s
    spf = int(steps_per_frame)
    n_steps = n_frames * spf
    per_frame = _frame_failures(faults, n_frames, n)

    # Quantize the shared backup window up to whole sensor steps.
    window_steps = 0
    if placement.backup_window_s > 0:
        window_steps = min(
            spf, ceil(placement.backup_window_s / frame * spf - FRAME_SNAP)
        )

    # Per frame: which cores host activated backups, and the journal.
    activations: list[tuple[int, str, int]] = []
    missed: dict[str, int] = {}
    hot_cores: list[frozenset[int]] = []
    window_s = window_steps / spf * frame
    for f_idx, failed in enumerate(per_frame):
        active = placement.activated_backups(failed)
        demand = np.zeros(n)
        kept: list[tuple[str, int]] = []
        # Most-critical backups keep their window slots when an
        # over-budget (> k failures) frame overflows a core's window.
        ordered = sorted(
            active.items(),
            key=lambda item: (
                -placement.placed(item[0]).task.criticality, item[0],
            ),
        )
        for name, core in ordered:
            if core < 0:  # every copy dead: > k failures hit this chain
                missed[name] = missed.get(name, 0) + 1
                continue
            wcet = placement.placed(name).task.wcet_at(
                placement.speed(core, activated=True)
            )
            if demand[core] + wcet > window_s * (1 + CAPACITY_RTOL) + CAPACITY_ATOL:
                missed[name] = missed.get(name, 0) + 1
                continue
            demand[core] += wcet
            kept.append((name, core))
            activations.append((f_idx, name, core))
        hot_cores.append(frozenset(core for _, core in kept))

    def levels_for_step(step: int) -> np.ndarray:
        f_idx = min(step // spf, n_frames - 1)
        local = step % spf
        idx = np.array(placement.levels, dtype=int)
        if window_steps and local >= spf - window_steps:
            for core in hot_cores[f_idx]:
                idx[core] = placement.activation_levels[core]
        return idx

    def policy(step: int, _reading: np.ndarray) -> np.ndarray:
        return levels_for_step(step + 1) if step + 1 < n_steps else (
            levels_for_step(step)
        )

    trace = simulate_closed_loop(
        engine.model,
        engine.ladder,
        policy,
        n_steps=n_steps,
        sensor_period=frame / spf,
        initial_levels=levels_for_step(0),
        faults=faults,
    )

    # --- degraded steady placement after permanent failures -----------
    perm = frozenset(
        f.core for f in faults.permanent_failures if f.core < n
    )
    recert: SafetyCertificate | None = None
    shed: list[str] = []
    if perm:
        recert = _recertify_degraded(engine, placement, perm, shed)

    return RecoveryReport(
        placement=placement,
        faults=faults,
        trace=trace,
        deadline_misses=int(sum(missed.values())),
        missed_tasks=tuple(sorted(missed)),
        activations=tuple(activations),
        shed=tuple(shed),
        recertified=recert,
        peak_theta=float(trace.peak_theta),
        theta_max=float(engine.theta_max),
    )


def _recertify_degraded(
    engine: ThermalEngine,
    placement: FramePlacement,
    perm: frozenset[int],
    shed: list[str],
) -> SafetyCertificate:
    """Certify the post-failure steady placement, shedding if needed.

    Promoted tasks (primaries on dead cores) run every frame inside the
    backup window of their first alive chain core; dead cores are
    power-gated.  If the certificate is rejected or infeasible, the
    lowest-criticality promoted task is shed and the envelope rebuilt —
    the degradation order the docs promise.  ``shed`` is appended in
    place (the caller journals it).
    """
    frame = placement.frame_s
    n = placement.n_cores
    promoted = {
        name: core
        for name, core in placement.activated_backups(perm).items()
        if core >= 0
    }
    while True:
        demand = np.zeros(n)
        for name, core in promoted.items():
            demand[core] += placement.placed(name).task.wcet_at(
                placement.speed(core, activated=True)
            )
        window = float(demand.max()) if demand.any() else 0.0
        timelines = []
        for core in range(n):
            if core in perm:
                timelines.append([(frame, 0.0)])
                continue
            v_nom = placement.speed(core)
            v_act = placement.speed(core, activated=True)
            if window < MIN_INTERVAL or demand[core] <= 0 or v_nom == v_act:
                timelines.append([(frame, v_nom)])
            else:
                timelines.append(
                    [(frame - window, v_nom), (window, v_act)]
                )
        cert = certify(engine, from_core_timelines(timelines))
        fits = window <= frame * (1 + CAPACITY_RTOL) and all(
            placement.primary_seconds(core) <= frame - window + CAPACITY_ATOL
            for core in range(n)
            if core not in perm
        )
        if (cert.accepted and cert.feasible and fits) or not promoted:
            return cert
        victim = min(
            promoted,
            key=lambda name: (
                placement.placed(name).task.criticality, name,
            ),
        )
        shed.append(victim)
        del promoted[victim]
