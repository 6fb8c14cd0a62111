"""Extension experiment: closed-loop control vs the offline certificate.

The ROADMAP question made executable: *does closed-loop control ever
beat the offline oscillating schedule once sensors are noisy?*  Three
contenders run on the same platform across a sweep of sensor-fault
intensities:

* the **integral controller** (``integral``, noise-averaging gains) —
  principled feedback, degrades gracefully: its ``hot_gain`` asymmetry
  converts sensor noise into lost throughput rather than overshoot;
* the **reactive governor** (``reactive``) at the same guard band —
  threshold hysteresis, whose throughput *rises* with noise (spurious
  cold readings re-raise it early) while its overshoot explodes;
* **certified AO** — the offline schedule, which reads no sensor: its
  throughput and certificate are constant across every intensity.

Intensity ``i`` scales both sensor-fault knobs at once
(``sigma = 0.5 K * i``, ``dropout = 0.15 * i``); per-intensity fault
seeds are spawned deterministically from the experiment seed through
``numpy.random.SeedSequence``, so the whole table — including the fault
realizations — is bitwise reproducible from one integer.

Runner-native: each (intensity, loop) pair is one ``solve_cell`` work
unit whose payload carries the full fault dict (seed included), so the
run journal records every seed and a resumed sweep replays identically.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.reporting import ascii_plot, ascii_table
from repro.platform import paper_platform
from repro.safety.faults import FaultSpec
from repro.runner import (
    RunnerConfig,
    RunReport,
    WorkUnit,
    run as run_units,
    solve_cell_unit,
    spawn_seeds,
)

__all__ = [
    "ControlRow",
    "ControlResult",
    "control_experiment",
    "control_units",
]

#: Default fault-intensity sweep (0 = clean loop).
DEFAULT_INTENSITIES: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)

#: Sensor-noise sigma (K) and dropout probability per unit of intensity.
SIGMA_PER_INTENSITY = 0.5
DROPOUT_PER_INTENSITY = 0.15


@dataclass(frozen=True)
class ControlRow:
    """Both closed loops at one fault intensity."""

    intensity: float
    sensor_noise_sigma: float
    sensor_dropout_prob: float
    seed: int
    controller_throughput: float
    controller_overshoot_k: float
    controller_feasible: bool
    reactive_throughput: float
    reactive_overshoot_k: float
    reactive_feasible: bool


@dataclass(frozen=True)
class ControlResult:
    """Outcome of the control experiment."""

    rows: tuple[ControlRow, ...]
    ao_throughput: float
    ao_peak_theta: float
    ao_feasible: bool
    theta_max: float
    seed: int
    report: RunReport | None = field(default=None, compare=False, repr=False)

    @property
    def crossover_intensity(self) -> float | None:
        """First intensity where the integral/reactive ordering flips.

        ``None`` when one loop dominates the whole sweep.
        """
        lead = None
        for row in self.rows:
            now = row.controller_throughput >= row.reactive_throughput
            if lead is None:
                lead = now
            elif now != lead:
                return row.intensity
        return None

    def headline(self) -> dict[str, Any]:
        """The committed JSON claim (bitwise reproducible from ``seed``)."""
        return {
            "experiment": "control",
            "seed": self.seed,
            "theta_max": self.theta_max,
            "ao": {
                "throughput": self.ao_throughput,
                "peak_theta": self.ao_peak_theta,
                "feasible": self.ao_feasible,
            },
            "crossover_intensity": self.crossover_intensity,
            "rows": [
                {
                    "intensity": row.intensity,
                    "sensor_noise_sigma": row.sensor_noise_sigma,
                    "sensor_dropout_prob": row.sensor_dropout_prob,
                    "seed": row.seed,
                    "integral": {
                        "throughput": row.controller_throughput,
                        "overshoot_k": row.controller_overshoot_k,
                        "feasible": row.controller_feasible,
                    },
                    "reactive": {
                        "throughput": row.reactive_throughput,
                        "overshoot_k": row.reactive_overshoot_k,
                        "feasible": row.reactive_feasible,
                    },
                }
                for row in self.rows
            ],
        }

    def format(self) -> str:
        table = ascii_table(
            [
                "intensity", "sigma (K)", "dropout",
                "integral thr", "integral over (K)",
                "reactive thr", "reactive over (K)", "AO thr",
            ],
            [
                (
                    row.intensity,
                    row.sensor_noise_sigma,
                    row.sensor_dropout_prob,
                    row.controller_throughput,
                    row.controller_overshoot_k,
                    row.reactive_throughput,
                    row.reactive_overshoot_k,
                    self.ao_throughput,
                )
                for row in self.rows
            ],
            title=(
                "Closed-loop control under sensor faults — integral vs "
                "reactive vs certified AO"
            ),
        )
        xs = [row.intensity for row in self.rows]
        plot = ascii_plot(
            xs,
            {
                "integral": [r.controller_throughput for r in self.rows],
                "reactive": [r.reactive_throughput for r in self.rows],
                "AO (certified)": [self.ao_throughput] * len(self.rows),
            },
            title="throughput vs fault intensity",
            y_label="time-averaged speed",
        )
        cross = self.crossover_intensity
        lines = [
            table,
            "",
            plot,
            "",
            (
                f"integral/reactive throughput ordering flips at "
                f"intensity {cross:g}"
                if cross is not None
                else "no integral/reactive throughput crossover in the sweep"
            ),
            (
                "AO reads no sensor: its certified throughput "
                f"({self.ao_throughput:.4f}) is constant across the sweep"
            ),
        ]
        return "\n".join(lines)


def control_units(
    n_cores: int,
    n_levels: int,
    t_max_c: float,
    intensities: tuple[float, ...],
    seeds: tuple[int, ...],
    sensor_period: float,
    guard_band: float,
    gain_scale: float,
    horizon: float,
    m_cap: int,
    tau: float = 5e-6,
) -> list[WorkUnit]:
    """One ``solve_cell`` unit per (intensity, loop), plus one AO unit.

    The fault dict — seed included — rides inside each unit's payload,
    so the journal rows double as the experiment's seed record.
    """
    cell = {
        "n_cores": int(n_cores),
        "n_levels": int(n_levels),
        "t_max_c": float(t_max_c),
        "tau": float(tau),
    }
    units = [
        solve_cell_unit(cell, "AO", {"m_cap": int(m_cap)}, f"AO@cores={n_cores}")
    ]
    for intensity, child_seed in zip(intensities, seeds):
        faults = None
        if intensity > 0:
            # The *fully-sampled* spec (every knob, post-seed draw) goes
            # into the payload, so the journal row alone replays a
            # failed unit bit-exactly on --resume — no field defaults
            # left to drift between versions.
            faults = FaultSpec(
                sensor_noise_sigma=SIGMA_PER_INTENSITY * intensity,
                sensor_dropout_prob=DROPOUT_PER_INTENSITY * intensity,
                seed=int(child_seed),
            ).as_dict()
        loop = {
            "sensor_period": float(sensor_period),
            "horizon": float(horizon),
            "faults": faults,
        }
        units.append(
            solve_cell_unit(
                cell,
                "integral",
                {
                    "gain_scale": float(gain_scale),
                    "reference_offset": float(guard_band),
                    **loop,
                },
                f"integral@i={intensity:g}",
            )
        )
        units.append(
            solve_cell_unit(
                cell,
                "reactive",
                {"guard_band": float(guard_band), **loop},
                f"reactive@i={intensity:g}",
            )
        )
    return units


def control_experiment(
    n_cores: int = 3,
    n_levels: int = 2,
    t_max_c: float = 55.0,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    seed: int = 2016,
    sensor_period: float = 1e-3,
    guard_band: float = 2.0,
    gain_scale: float = 0.1,
    horizon: float = 0.75,
    m_cap: int = 64,
    runner: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable | None = None,
) -> ControlResult:
    """Sweep sensor-fault intensity over both closed loops and AO.

    Parameters
    ----------
    intensities:
        Multipliers on the sensor-fault knobs; 0 is the clean loop.
    seed:
        Master seed; per-intensity fault seeds are spawned from it
        (:func:`~repro.runner.spawn_seeds`), making the whole result — fault
        realizations included — a pure function of this integer.
    guard_band:
        Kelvin below ``T_max`` both loops aim for: the reactive
        governor's throttle band and the controller's reference offset,
        kept equal so the comparison is guard-for-guard.
    gain_scale:
        Controller gain multiplier.  The default 0.1 runs the integral
        loop in its noise-averaging regime (genuine multi-step
        integration) instead of the deadbeat/bang-bang regime, which is
        what makes its fault response graceful.
    """
    intensities = tuple(float(i) for i in intensities)
    seeds = spawn_seeds(int(seed), len(intensities))
    units = control_units(
        n_cores, n_levels, t_max_c, intensities, seeds,
        sensor_period, guard_band, gain_scale, horizon, m_cap,
    )
    report = run_units(
        units,
        config=runner,
        run_dir=run_dir,
        resume=resume,
        progress=progress,
        manifest_extra={
            "experiment": "control",
            "seed": int(seed),
            "fault_seeds": list(seeds),
            "intensities": list(intensities),
            "guard_band": float(guard_band),
            "gain_scale": float(gain_scale),
        },
    )

    theta_max = float(
        paper_platform(n_cores, n_levels=n_levels, t_max_c=t_max_c).theta_max
    )
    ao = report.outcome(units[0])[1]
    rows = []
    for k, (intensity, child_seed) in enumerate(zip(intensities, seeds)):
        r_int = report.outcome(units[1 + 2 * k])[1]
        r_re = report.outcome(units[2 + 2 * k])[1]
        rows.append(
            ControlRow(
                intensity=intensity,
                sensor_noise_sigma=SIGMA_PER_INTENSITY * intensity,
                sensor_dropout_prob=DROPOUT_PER_INTENSITY * intensity,
                seed=int(child_seed),
                controller_throughput=float(r_int.throughput),
                controller_overshoot_k=float(
                    max(0.0, r_int.peak_theta - theta_max)
                ),
                controller_feasible=bool(r_int.feasible),
                reactive_throughput=float(r_re.throughput),
                reactive_overshoot_k=float(
                    max(0.0, r_re.peak_theta - theta_max)
                ),
                reactive_feasible=bool(r_re.feasible),
            )
        )
    return ControlResult(
        rows=tuple(rows),
        ao_throughput=float(ao.throughput),
        ao_peak_theta=float(ao.peak_theta),
        ao_feasible=bool(ao.feasible),
        theta_max=theta_max,
        seed=int(seed),
        report=report,
    )
