"""Extension experiment: k-fault-tolerant real-time frames on a thermal budget.

The ROADMAP's "fault-tolerant real-time frames" fusion made executable:
frame-based task sets are placed with primaries plus ``k`` backup copies
per task, then hit with injected core failures in the closed loop
(:func:`repro.realtime.recovery.simulate_recovery`).  Two placement
policies compete at matched ``T_max``:

* **margin** — backups consume *certified* thermal margin: the
  activation envelope (every core oscillating between its nominal and
  activation level) is peak-checked and certified at admission, and
  activation frequencies are walked down until the remaining margin
  covers them;
* **blind** — the classical thermally-blind EnSuRe placement: backups
  balance load and activate at the top ladder frequency, no certificate
  consulted.

A scenario is **schedulable** when the full workload is admitted (no
graceful-degradation sheds) *and* the fault-injected run is safe: zero
deadline misses, true-trace peak within ``T_max``, and the degraded
placement re-certifying after permanent failures.  The headline is the
margin-minus-blind schedulability gap — blind placements that "fit" are
disqualified at runtime by thermal violations the margin policy priced
in up front.

Intensity is the number of injected core failures.  When it exceeds
``k`` the k-fault guarantee no longer applies and *both* policies may
miss deadlines — those rows show the guarantee's boundary.

Runner-native and bitwise reproducible: each (k, intensity, utilization,
workload-draw, policy) tuple is one ``realtime_cell`` work unit whose
payload carries the concrete workload and the fully-sampled
:class:`~repro.safety.faults.FaultSpec` (pre-drawn failure times and
kinds, post-seed), so journal rows replay bit-exactly on ``--resume``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.experiments.reporting import ascii_plot, ascii_table
from repro.platforms import PlatformSpec, preset_on_axes
from repro.realtime import TaskSet
from repro.runner import (
    RunnerConfig,
    RunReport,
    WorkUnit,
    run as run_units,
    spawn_seeds,
)
from repro.safety.faults import CoreFailure, FaultSpec

__all__ = [
    "RealtimeRow",
    "RealtimeResult",
    "realtime_experiment",
    "realtime_units",
    "draw_failures",
]

#: Placement policies compared in every cell.
POLICIES = ("margin", "blind")

#: Default fault-tolerance levels.
DEFAULT_K_VALUES: tuple[int, ...] = (1, 2)

#: Default fault intensities (number of injected core failures).
DEFAULT_INTENSITIES: tuple[int, ...] = (1, 2)

#: Default total utilizations (at reference speed 1.0) for the
#: workload draws.
DEFAULT_UTILIZATIONS: tuple[float, ...] = (0.6, 0.9, 1.2)


def draw_failures(
    n_failures: int, n_cores: int, seed: int
) -> tuple[CoreFailure, ...]:
    """Draw a concrete failure schedule from one child seed.

    Distinct victim cores; failure times uniform in the middle of the
    run; each failure is permanent or transient with equal probability
    (transients last 10-30% of the horizon).  The draw happens *here*,
    at unit-building time — the resulting concrete schedule rides in the
    payload, never re-drawn by the executor.
    """
    rng = np.random.default_rng(int(seed))
    cores = rng.permutation(n_cores)[: min(n_failures, n_cores)]
    failures = []
    for core in cores:
        kind = "permanent" if rng.random() < 0.5 else "transient"
        at = float(rng.uniform(0.2, 0.7))
        duration = float(rng.uniform(0.1, 0.3)) if kind == "transient" else 0.0
        failures.append(
            CoreFailure(
                core=int(core), at_fraction=at, kind=kind,
                duration_fraction=duration,
            )
        )
    return tuple(failures)


@dataclass(frozen=True)
class RealtimeRow:
    """Both policies at one (k, intensity, utilization) cell."""

    k: int
    intensity: int
    utilization: float
    n_sets: int
    margin_schedulable: float
    margin_safe: float
    blind_schedulable: float
    blind_safe: float

    @property
    def gap(self) -> float:
        """Margin-minus-blind schedulability rate."""
        return self.margin_schedulable - self.blind_schedulable


@dataclass(frozen=True)
class RealtimeResult:
    """Outcome of the realtime experiment."""

    rows: tuple[RealtimeRow, ...]
    platform: str
    t_max_c: float
    seed: int
    frame_s: float
    n_tasks: int
    report: RunReport | None = field(default=None, compare=False, repr=False)

    @property
    def mean_gap(self) -> float:
        """Mean schedulability gap over cells where the guarantee applies.

        Only rows with ``intensity <= k`` count: beyond ``k`` failures
        neither policy promises anything, so the gap there measures the
        guarantee's boundary, not the policies' merit.
        """
        gaps = [row.gap for row in self.rows if row.intensity <= row.k]
        return float(np.mean(gaps)) if gaps else 0.0

    def headline(self) -> dict[str, Any]:
        """The committed JSON claim (bitwise reproducible from ``seed``)."""
        return {
            "experiment": "realtime",
            "platform": self.platform,
            "t_max_c": self.t_max_c,
            "seed": self.seed,
            "frame_s": self.frame_s,
            "n_tasks": self.n_tasks,
            "mean_schedulability_gap": self.mean_gap,
            "rows": [
                {
                    "k": row.k,
                    "intensity": row.intensity,
                    "utilization": row.utilization,
                    "n_sets": row.n_sets,
                    "margin": {
                        "schedulable": row.margin_schedulable,
                        "safe": row.margin_safe,
                    },
                    "blind": {
                        "schedulable": row.blind_schedulable,
                        "safe": row.blind_safe,
                    },
                    "gap": row.gap,
                }
                for row in self.rows
            ],
        }

    def format(self) -> str:
        table = ascii_table(
            [
                "k", "failures", "utilization",
                "margin sched", "margin safe",
                "blind sched", "blind safe", "gap",
            ],
            [
                (
                    row.k, row.intensity, row.utilization,
                    row.margin_schedulable, row.margin_safe,
                    row.blind_schedulable, row.blind_safe, row.gap,
                )
                for row in self.rows
            ],
            title=(
                "k-fault-tolerant frame scheduling at matched "
                f"T_max={self.t_max_c:g} C — margin-aware vs "
                "thermally-blind backup placement"
            ),
        )
        # Plot the covered regime (intensity <= k) at the lowest k.
        k0 = min(row.k for row in self.rows)
        covered = [
            row for row in self.rows if row.k == k0 and row.intensity <= k0
        ]
        lines = [table]
        if covered:
            xs = [row.utilization for row in covered]
            lines += [
                "",
                ascii_plot(
                    xs,
                    {
                        "margin": [r.margin_schedulable for r in covered],
                        "blind": [r.blind_schedulable for r in covered],
                    },
                    title=(
                        f"schedulability vs utilization (k={k0}, "
                        f"{k0} injected failure{'s' if k0 != 1 else ''})"
                    ),
                    y_label="schedulable fraction",
                ),
            ]
        lines += [
            "",
            (
                "mean margin-minus-blind schedulability gap over covered "
                f"cells (intensity <= k): {self.mean_gap:+.3f}"
            ),
        ]
        return "\n".join(lines)


def realtime_units(
    platform_spec: PlatformSpec,
    k_values: tuple[int, ...],
    intensities: tuple[int, ...],
    utilizations: tuple[float, ...],
    n_sets: int,
    n_tasks: int,
    frame_s: float,
    seed: int,
    n_frames: int,
    steps_per_frame: int,
    max_task_utilization: float,
) -> list[WorkUnit]:
    """One ``realtime_cell`` unit per (k, intensity, util, set, policy).

    Workloads and failure schedules are drawn here from seeds spawned
    off the master seed, then embedded *concrete* in the payloads — the
    unit content, and hence the journal, pins every sampled value.
    """
    n_cores = platform_spec.build().n_cores
    platform_doc = platform_spec.as_dict()
    scenarios = [
        (k, intensity, util, idx)
        for k in k_values
        for intensity in intensities
        for util in utilizations
        for idx in range(n_sets)
    ]
    child_seeds = spawn_seeds(int(seed), 2 * len(scenarios))
    units: list[WorkUnit] = []
    for i, (k, intensity, util, idx) in enumerate(scenarios):
        workload_seed, fault_seed = child_seeds[2 * i], child_seeds[2 * i + 1]
        workload = TaskSet.random_frame(
            n_tasks, util, frame_s, rng=int(workload_seed),
            max_task_utilization=max_task_utilization,
        )
        faults = FaultSpec(
            core_failures=draw_failures(intensity, n_cores, int(fault_seed)),
            seed=int(fault_seed),
        )
        for policy in POLICIES:
            units.append(
                WorkUnit(
                    kind="realtime_cell",
                    payload={
                        "platform": platform_doc,
                        "policy": policy,
                        "k": int(k),
                        "workload": workload.as_dict(),
                        "faults": faults.as_dict(),
                        "n_frames": int(n_frames),
                        "steps_per_frame": int(steps_per_frame),
                    },
                    label=(
                        f"{policy}@k={k},f={intensity},u={util:g},s={idx}"
                    ),
                )
            )
    return units


def realtime_experiment(
    platform: str = "paper",
    n_cores: int = 3,
    n_levels: int = 4,
    t_max_c: float = 60.0,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
    intensities: tuple[int, ...] = DEFAULT_INTENSITIES,
    utilizations: tuple[float, ...] = DEFAULT_UTILIZATIONS,
    n_sets: int = 4,
    n_tasks: int = 6,
    frame_s: float = 0.02,
    seed: int = 2016,
    n_frames: int = 8,
    steps_per_frame: int = 8,
    max_task_utilization: float = 0.5,
    runner: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable | None = None,
) -> RealtimeResult:
    """Sweep k, fault intensity and utilization over both policies.

    Parameters
    ----------
    platform:
        Platform preset name (``n_cores``/``n_levels``/``t_max_c``
        overrides are layered on when the family parameterizes them).
    k_values / intensities:
        Fault-tolerance levels and injected-failure counts; intensities
        above ``k`` probe beyond the guarantee.
    utilizations:
        Total workload demand (fraction of one frame at speed 1.0) per
        draw.
    n_sets:
        Independent workload draws per cell; schedulability rates
        average over them.
    seed:
        Master seed; workload and fault seeds spawn from it, making the
        whole result a pure function of this integer.
    """
    spec = preset_on_axes(
        platform, n_cores=int(n_cores), n_levels=int(n_levels),
        t_max_c=float(t_max_c),
    )
    k_values = tuple(int(k) for k in k_values)
    intensities = tuple(int(i) for i in intensities)
    utilizations = tuple(float(u) for u in utilizations)
    units = realtime_units(
        spec, k_values, intensities, utilizations,
        int(n_sets), int(n_tasks), float(frame_s), int(seed),
        int(n_frames), int(steps_per_frame), float(max_task_utilization),
    )
    report = run_units(
        units,
        config=runner,
        run_dir=run_dir,
        resume=resume,
        progress=progress,
        manifest_extra={
            "experiment": "realtime",
            "seed": int(seed),
            "platform": spec.as_dict(),
            "k_values": list(k_values),
            "intensities": list(intensities),
            "utilizations": list(utilizations),
            "n_sets": int(n_sets),
        },
    )

    rows = []
    # Aggregate by the *requested* cell, parsed back from the unit
    # labels ("<policy>@k=..,f=..,u=..,s=..") — the drawn utilization
    # varies per set, the requested grid value is the row key.
    agg: dict[tuple[int, int, float], dict[str, list]] = {}
    for unit in units:
        _, result = report.outcome(unit, accept=("ok", "infeasible"))
        policy, rest = unit.label.split("@", 1)
        fields = dict(part.split("=") for part in rest.split(","))
        key = (int(fields["k"]), int(fields["f"]), float(fields["u"]))
        if result is None:
            flags = (False, False)
        else:
            flags = (
                bool(result.get("schedulable")),
                bool(result.get("recovery", {}).get("safe")),
            )
        agg.setdefault(key, {}).setdefault(policy, []).append(flags)

    for (k, intensity, util) in sorted(agg):
        bucket = agg[(k, intensity, util)]
        margin = bucket.get("margin", [])
        blind = bucket.get("blind", [])
        rows.append(
            RealtimeRow(
                k=k,
                intensity=intensity,
                utilization=util,
                n_sets=len(margin),
                margin_schedulable=_rate(margin, 0),
                margin_safe=_rate(margin, 1),
                blind_schedulable=_rate(blind, 0),
                blind_safe=_rate(blind, 1),
            )
        )
    return RealtimeResult(
        rows=tuple(rows),
        platform=spec.family,
        t_max_c=float(t_max_c),
        seed=int(seed),
        frame_s=float(frame_s),
        n_tasks=int(n_tasks),
        report=report,
    )


def _rate(flags: list, idx: int) -> float:
    """Fraction of True at tuple position ``idx`` (0.0 when empty)."""
    if not flags:
        return 0.0
    return float(sum(1 for f in flags if f[idx]) / len(flags))
