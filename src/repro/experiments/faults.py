"""Extension experiment: fault-injected hardening of the closed loop.

The robustness argument, made quantitative.  A reactive governor lives
or dies by its sensing/actuation loop: noisy or stale sensor readings
make it throttle late, a stuck DVFS actuator ignores it entirely, and
ambient drift silently eats its headroom.  AO's offline certificate
reads no sensor, so sensor faults cannot touch it — only *physical*
faults (stuck actuator, ambient drift) move its certified margin, and
:func:`repro.safety.faults.perturbed_peak` quantifies exactly how much.

Each scenario row reports both worlds on the same platform:

* the reactive governor run with the faults injected into its loop
  (throughput, overshoot beyond ``T_max``, feasibility), and
* AO's certified schedule re-evaluated open-loop under the same faults
  (perturbed peak and remaining margin).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.registry import get_solver
from repro.engine import ThermalEngine
from repro.experiments.reporting import ascii_table
from repro.platform import paper_platform
from repro.runner import spawn_seeds
from repro.safety.certificate import SafetyCertificate
from repro.safety.faults import (
    FaultSpec,
    perturbed_peak_batch,
    stacked_perturbed_peak,
)

__all__ = [
    "FaultScenarioRow",
    "StackedFaultRow",
    "FaultsResult",
    "faults_experiment",
]

#: Default fault-injection sweep: one knob at a time, then combined.
DEFAULT_SCENARIOS: tuple[tuple[str, dict], ...] = (
    ("clean", {}),
    ("noise 0.5 K", {"sensor_noise_sigma": 0.5}),
    ("dropout 30%", {"sensor_dropout_prob": 0.3}),
    ("noise + dropout", {"sensor_noise_sigma": 0.5, "sensor_dropout_prob": 0.3}),
    ("stuck core 0 @ max", {"stuck_core": 0, "stuck_level": -1}),
    ("ambient +2 K", {"ambient_drift_k": 2.0}),
)

#: Default 3D-stack structural-fault sweep: inter-layer TSV conductance
#: derating and per-layer ambient gradients, alone and combined.
DEFAULT_STACKED_SCENARIOS: tuple[tuple[str, dict], ...] = (
    ("stack clean", {}),
    ("TSV derated 30%", {"tsv_derating": 0.3}),
    ("TSV derated 60%", {"tsv_derating": 0.6}),
    ("layer gradient +1.5 K", {"layer_ambient_gradient_k": 1.5}),
    (
        "TSV 30% + gradient +1.5 K",
        {"tsv_derating": 0.3, "layer_ambient_gradient_k": 1.5},
    ),
)


@dataclass(frozen=True)
class FaultScenarioRow:
    """One fault scenario, both loops."""

    name: str
    faults: FaultSpec
    reactive_throughput: float
    reactive_overshoot_k: float
    reactive_feasible: bool
    ao_perturbed_peak: float
    ao_perturbed_margin: float


@dataclass(frozen=True)
class StackedFaultRow:
    """One structural fault scenario on the 2-layer stacked platform.

    TSV derating and layer ambient gradients are *physical* faults: they
    change the conductance matrix and boundary condition the certified
    schedule runs on, so — like stuck actuators and ambient drift — they
    move AO's margin, and :func:`repro.safety.faults.stacked_perturbed_peak`
    prices exactly how much.
    """

    name: str
    faults: FaultSpec
    perturbed_peak: float
    perturbed_margin: float


@dataclass(frozen=True)
class FaultsResult:
    """Outcome of the fault-injection experiment."""

    rows: tuple[FaultScenarioRow, ...]
    ao_throughput: float
    ao_certificate: SafetyCertificate
    theta_max: float
    seed: int = 0
    stacked_rows: tuple[StackedFaultRow, ...] = ()
    stacked_theta_max: float | None = None

    @property
    def certificate_sensor_immune(self) -> bool:
        """AO's margin unmoved by every sensor-only fault scenario."""
        clean_margin = self.ao_certificate.margin
        return all(
            abs(row.ao_perturbed_margin - clean_margin) <= 1e-9
            for row in self.rows
            if row.faults.any_sensor_fault
            and row.faults.stuck_core is None
            and row.faults.ambient_drift_k == 0.0
        )

    def format(self) -> str:
        table_rows = [
            (
                row.name,
                row.reactive_throughput,
                row.reactive_overshoot_k,
                "OK" if row.reactive_feasible else "VIOLATION",
                row.ao_perturbed_peak,
                f"{row.ao_perturbed_margin:+.2f}",
            )
            for row in self.rows
        ]
        out = ascii_table(
            [
                "scenario", "reactive thr", "overshoot (K)", "T_max",
                "AO faulted peak", "AO margin (K)",
            ],
            table_rows,
            title="Fault injection — reactive loop vs AO certificate",
        )
        lines = [
            out,
            self.ao_certificate.summary(),
            (
                "sensor faults leave the AO certificate untouched"
                if self.certificate_sensor_immune
                else "WARNING: a sensor-only scenario moved the AO margin"
            ),
        ]
        if self.stacked_rows:
            lines += [
                "",
                ascii_table(
                    ["scenario", "faulted peak", "margin (K)", "T_max"],
                    [
                        (
                            row.name,
                            row.perturbed_peak,
                            f"{row.perturbed_margin:+.2f}",
                            (
                                "OK"
                                if row.perturbed_margin >= 0
                                else "VIOLATION"
                            ),
                        )
                        for row in self.stacked_rows
                    ],
                    title=(
                        "2-layer stack structural faults — AO schedule "
                        "re-priced under TSV derating / layer gradients"
                    ),
                ),
            ]
        return "\n".join(lines)


def faults_experiment(
    n_cores: int = 3,
    n_levels: int = 2,
    t_max_c: float = 65.0,
    scenarios: tuple[tuple[str, dict], ...] = DEFAULT_SCENARIOS,
    sensor_period: float = 1e-3,
    guard_band: float = 0.0,
    m_cap: int = 64,
    seed: int = 0,
    stacked_scenarios: tuple[tuple[str, dict], ...] = DEFAULT_STACKED_SCENARIOS,
    stack_rows: int = 2,
    stack_cols: int = 2,
) -> FaultsResult:
    """Sweep fault scenarios over the reactive loop and the AO schedule.

    Parameters
    ----------
    scenarios:
        ``(label, fault_kwargs)`` pairs; each becomes one table row.
    guard_band:
        Reactive governor guard band (0 = maximally aggressive, so fault
        sensitivity shows up as overshoot rather than lost throughput).
    seed:
        Master seed; each scenario's :class:`FaultSpec` gets its own
        child seed spawned from it through ``numpy.random.SeedSequence``
        (a scenario whose kwargs pin ``seed`` explicitly keeps its pin).
        The whole result is a pure function of this integer — two runs
        at the same seed are bitwise identical.
    stacked_scenarios:
        Structural-fault rows priced on a 2-layer ``stack3d`` platform
        (TSV derating, per-layer ambient gradients); ``()`` skips the
        stacked section entirely.
    """
    engine = ThermalEngine.ensure(
        paper_platform(n_cores, n_levels=n_levels, t_max_c=t_max_c)
    )
    ao_spec = get_solver("AO")
    reactive_spec = get_solver("reactive")
    r_ao = ao_spec.solve(engine, m_cap=m_cap)
    assert r_ao.certificate is not None  # registry always attaches one

    # Price AO's schedule under every scenario in one grid call (sensor-
    # only scenarios share a row — the executed schedule is unchanged).
    child_seeds = spawn_seeds(int(seed), len(scenarios))
    specs = [
        FaultSpec(**{"seed": child, **kwargs})
        for child, (_, kwargs) in zip(child_seeds, scenarios)
    ]
    peaks = perturbed_peak_batch(engine, r_ao.schedule, specs)

    rows = []
    for (label, _), spec, peak in zip(scenarios, specs, peaks):
        r_re = reactive_spec.solve(
            engine,
            sensor_period=sensor_period,
            guard_band=guard_band,
            faults=spec,
        )
        rows.append(
            FaultScenarioRow(
                name=label,
                faults=spec,
                reactive_throughput=float(r_re.throughput),
                reactive_overshoot_k=float(r_re.details["overshoot_k"]),
                reactive_feasible=bool(r_re.feasible),
                ao_perturbed_peak=float(peak),
                ao_perturbed_margin=float(engine.theta_max - peak),
            )
        )
    stacked_rows: list[StackedFaultRow] = []
    stacked_theta_max = None
    if stacked_scenarios:
        from repro.platforms import PlatformSpec

        stacked_engine = ThermalEngine.ensure(
            PlatformSpec.named(
                "stack3d",
                n_layers=2,
                rows=int(stack_rows),
                cols=int(stack_cols),
                n_levels=n_levels,
                t_max_c=t_max_c,
            ).build()
        )
        stacked_theta_max = float(stacked_engine.theta_max)
        r_stack = ao_spec.solve(stacked_engine, m_cap=m_cap)
        stack_seeds = spawn_seeds(int(seed) + 1, len(stacked_scenarios))
        for child, (label, kwargs) in zip(stack_seeds, stacked_scenarios):
            spec = FaultSpec(**{"seed": child, **kwargs})
            peak = stacked_perturbed_peak(
                stacked_engine, r_stack.schedule, spec, n_layers=2
            )
            stacked_rows.append(
                StackedFaultRow(
                    name=label,
                    faults=spec,
                    perturbed_peak=float(peak),
                    perturbed_margin=float(stacked_theta_max - peak),
                )
            )
    return FaultsResult(
        rows=tuple(rows),
        ao_throughput=float(r_ao.throughput),
        ao_certificate=r_ao.certificate,
        theta_max=float(engine.theta_max),
        seed=int(seed),
        stacked_rows=tuple(stacked_rows),
        stacked_theta_max=stacked_theta_max,
    )
