"""Injectable fault models for closed-loop and open-loop hardening runs.

The reactive-DTM comparison (and the co-simulation engine) assume a
perfect world: noiseless sensors that never miss a read, DVFS actuators
that always obey, a constant ambient.  Real chips get none of that.
:class:`FaultSpec` describes a perturbation scenario — sensor noise and
dropout, a stuck DVFS mode, ambient drift — that
:func:`repro.algorithms.reactive.reactive_throttling` injects into its
sensing/actuation loop and :func:`repro.sim.engine.cosimulate` applies
to its power timeline, quantifying how much margin a certified schedule
retains when sensors, actuators or the ambient misbehave.

The punchline the ``faults`` experiment demonstrates: an *offline*
certificate (AO's) is immune to sensor faults — the schedule never reads
a sensor — while the reactive governor's safety degrades with every
perturbation knob.

Beyond the sensing/actuation knobs, a spec can carry *structural*
faults:

* :class:`CoreFailure` — fail-stop core failures (permanent or
  transient), the fault model the ``repro.realtime`` frame scheduler
  tolerates by activating backup copies;
* inter-layer TSV conductance derating and per-layer ambient gradients
  for 3D-stacked platforms (``stack3d`` / 2-layer ``tech-*``), applied
  open-loop through :func:`stacked_fault_model` /
  :func:`stacked_perturbed_peak`.

Layering: no imports from :mod:`repro.algorithms` (reactive imports us).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.engine import ThermalEngine
from repro.errors import ConfigurationError
from repro.schedule.periodic import PeriodicSchedule

__all__ = [
    "CoreFailure",
    "FaultSpec",
    "layer_of_node",
    "perturbed_peak",
    "perturbed_peak_batch",
    "stacked_fault_model",
    "stacked_perturbed_peak",
    "stuck_schedule",
]

#: Core-failure kinds :class:`CoreFailure` accepts.
FAILURE_KINDS = ("permanent", "transient")


@dataclass(frozen=True)
class CoreFailure:
    """One fail-stop core failure.

    Attributes
    ----------
    core:
        Index of the failing core.
    at_fraction:
        When in the run horizon the core stops, as a fraction in
        ``[0, 1]`` (consumers that reason per frame — the realtime
        recovery simulator — snap this to their frame grid first).
    kind:
        ``"permanent"`` (the core never returns) or ``"transient"``
        (the core returns after ``duration_fraction`` of the horizon).
    duration_fraction:
        Outage length for transient failures, as a horizon fraction.
        Ignored for permanent failures.
    """

    core: int
    at_fraction: float = 0.0
    kind: str = "permanent"
    duration_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ConfigurationError(f"core must be >= 0, got {self.core}")
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ConfigurationError(
                f"at_fraction must be in [0, 1], got {self.at_fraction}"
            )
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )
        if self.duration_fraction < 0:
            raise ConfigurationError(
                f"duration_fraction must be >= 0, got {self.duration_fraction}"
            )

    def active_at(self, fraction: float) -> bool:
        """Whether the core is down at ``fraction`` of the horizon."""
        if fraction < self.at_fraction:
            return False
        if self.kind == "permanent":
            return True
        return fraction < self.at_fraction + self.duration_fraction

    def as_dict(self) -> dict[str, Any]:
        return {
            "core": int(self.core),
            "at_fraction": float(self.at_fraction),
            "kind": self.kind,
            "duration_fraction": float(self.duration_fraction),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CoreFailure":
        known = {"core", "at_fraction", "kind", "duration_fraction"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown core-failure fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["core"] = int(kwargs["core"])
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: "CoreFailure | Mapping[str, Any]") -> "CoreFailure":
        if isinstance(value, CoreFailure):
            return value
        return cls.from_dict(value)


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection scenario.

    Attributes
    ----------
    sensor_noise_sigma:
        Std-dev (K) of zero-mean Gaussian noise added to every sensor
        reading.
    sensor_dropout_prob:
        Per-read, per-core probability that the sensor returns its
        *previous* reading instead of a fresh one (a stale sample).
    stuck_core:
        Index of a core whose DVFS actuator is stuck (``None`` = none).
    stuck_level:
        Ladder level index the stuck core is pinned at (``-1`` = the
        highest mode — the dangerous failure).
    ambient_drift_k:
        Ambient temperature rise (K) ramped in linearly over the run
        horizon — the schedule's effective threshold shrinks by this
        much by the end.
    core_failures:
        Fail-stop :class:`CoreFailure` events (permanent or transient).
        A failed core is power-gated (speed 0) regardless of what any
        policy commands; the ``repro.realtime`` scheduler's backup
        copies are what turns these from deadline misses into recovery.
    tsv_derating:
        Fractional loss of inter-layer (TSV/bond) conductance on
        stacked platforms, in ``[0, 1)`` — electromigration and bond
        voiding make upper layers cool worse.  Applied by
        :func:`stacked_fault_model`; meaningless on single-layer chips.
    layer_ambient_gradient_k:
        Per-layer ambient rise (K per layer index) on stacked
        platforms: layer ``l`` sees ambient ``+ l * gradient``.
        Applied by :func:`stacked_perturbed_peak`.
    seed:
        RNG seed; faults are deterministic given the spec.
    """

    sensor_noise_sigma: float = 0.0
    sensor_dropout_prob: float = 0.0
    stuck_core: int | None = None
    stuck_level: int = -1
    ambient_drift_k: float = 0.0
    core_failures: tuple[CoreFailure, ...] = ()
    tsv_derating: float = 0.0
    layer_ambient_gradient_k: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sensor_noise_sigma < 0:
            raise ConfigurationError(
                f"sensor_noise_sigma must be >= 0, got {self.sensor_noise_sigma}"
            )
        if not 0.0 <= self.sensor_dropout_prob <= 1.0:
            raise ConfigurationError(
                "sensor_dropout_prob must be in [0, 1], "
                f"got {self.sensor_dropout_prob}"
            )
        if not 0.0 <= self.tsv_derating < 1.0:
            raise ConfigurationError(
                f"tsv_derating must be in [0, 1), got {self.tsv_derating}"
            )
        object.__setattr__(
            self,
            "core_failures",
            tuple(CoreFailure.coerce(f) for f in self.core_failures),
        )

    @property
    def any_sensor_fault(self) -> bool:
        """Whether any sensing-path fault is active."""
        return self.sensor_noise_sigma > 0 or self.sensor_dropout_prob > 0

    @property
    def any_structural_fault(self) -> bool:
        """Whether any core-failure or 3D-stack degradation is active."""
        return (
            bool(self.core_failures)
            or self.tsv_derating > 0
            or self.layer_ambient_gradient_k != 0.0
        )

    @property
    def any_active(self) -> bool:
        """Whether the spec perturbs anything at all."""
        return (
            self.any_sensor_fault
            or self.stuck_core is not None
            or self.ambient_drift_k != 0.0
            or self.any_structural_fault
        )

    def failed_cores_at(self, fraction: float) -> frozenset[int]:
        """Cores down at ``fraction`` of the run horizon."""
        return frozenset(
            f.core for f in self.core_failures if f.active_at(fraction)
        )

    @property
    def permanent_failures(self) -> tuple[CoreFailure, ...]:
        """The failures that never heal (the re-certification set)."""
        return tuple(f for f in self.core_failures if f.kind == "permanent")

    def rng(self) -> np.random.Generator:
        """The deterministic generator driving this scenario."""
        return np.random.default_rng(self.seed)

    def perturb_reading(
        self,
        reading: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """What the governor *sees* given the true core temperatures.

        Dropout first (a stale sample carries no fresh noise), then
        Gaussian noise on the reads that did land.
        """
        seen = np.asarray(reading, dtype=float).copy()
        if self.sensor_dropout_prob > 0:
            stale = rng.random(seen.shape[0]) < self.sensor_dropout_prob
            seen[stale] = np.asarray(previous, dtype=float)[stale]
            fresh = ~stale
        else:
            fresh = np.ones(seen.shape[0], dtype=bool)
        if self.sensor_noise_sigma > 0:
            seen[fresh] += rng.normal(
                0.0, self.sensor_noise_sigma, int(fresh.sum())
            )
        return seen

    def drift_at(self, fraction: float) -> float:
        """Ambient rise (K) at ``fraction`` of the run horizon."""
        return self.ambient_drift_k * min(max(fraction, 0.0), 1.0)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dump of the *complete* field set.

        Every field is emitted, defaults included, so a journaled spec
        is fully sampled — replaying a unit from its journal row never
        depends on what the defaults were when the row was written.
        """
        return {
            "sensor_noise_sigma": self.sensor_noise_sigma,
            "sensor_dropout_prob": self.sensor_dropout_prob,
            "stuck_core": self.stuck_core,
            "stuck_level": self.stuck_level,
            "ambient_drift_k": self.ambient_drift_k,
            "core_failures": [f.as_dict() for f in self.core_failures],
            "tsv_derating": self.tsv_derating,
            "layer_ambient_gradient_k": self.layer_ambient_gradient_k,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """Rebuild a spec from :meth:`as_dict` output (extras rejected)."""
        known = {
            "sensor_noise_sigma", "sensor_dropout_prob", "stuck_core",
            "stuck_level", "ambient_drift_k", "core_failures",
            "tsv_derating", "layer_ambient_gradient_k", "seed",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault fields {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        stuck = kwargs.get("stuck_core")
        if stuck is not None:
            kwargs["stuck_core"] = int(stuck)
        failures = kwargs.get("core_failures")
        if failures:
            kwargs["core_failures"] = tuple(
                CoreFailure.coerce(f) for f in failures
            )
        elif failures is not None:
            kwargs["core_failures"] = ()
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: "FaultSpec | Mapping[str, Any] | None") -> "FaultSpec | None":
        """Accept a spec, a plain mapping, or ``None`` (CLI/JSON inputs)."""
        if value is None or isinstance(value, FaultSpec):
            return value
        return cls.from_dict(value)


def stuck_schedule(
    schedule: PeriodicSchedule, ladder, faults: FaultSpec
) -> PeriodicSchedule:
    """The schedule as executed with the stuck DVFS actuator applied.

    The stuck core runs ``ladder.levels[stuck_level]`` in every interval
    regardless of what the schedule asked for; other cores are untouched.
    """
    if faults.stuck_core is None:
        return schedule
    core = int(faults.stuck_core)
    if not 0 <= core < schedule.n_cores:
        raise ConfigurationError(
            f"stuck_core {core} out of range for {schedule.n_cores} cores"
        )
    stuck_v = float(ladder.levels[faults.stuck_level])
    volts = schedule.voltage_matrix.copy()
    volts[:, core] = stuck_v
    return PeriodicSchedule(schedule.lengths, volts)


def perturbed_peak(
    engine,
    schedule: PeriodicSchedule,
    faults: FaultSpec,
    grid_per_interval: int = 64,
) -> float:
    """Stable peak of ``schedule`` under the open-loop faults.

    Sensor faults do not apply — an offline schedule never reads a
    sensor (that immunity is the point).  A stuck DVFS mode rewrites the
    executed schedule; ambient drift raises the whole trace by its full
    amount (worst case over the horizon).  The one-row call of
    :func:`perturbed_peak_batch`.
    """
    return perturbed_peak_batch(engine, schedule, [faults], grid_per_interval)[0]


def perturbed_peak_batch(
    engine,
    schedule: PeriodicSchedule,
    fault_specs,
    grid_per_interval: int = 64,
) -> list[float]:
    """:func:`perturbed_peak` for a whole scenario sweep in one grid call.

    Sensor-only scenarios leave the executed schedule untouched
    (:func:`stuck_schedule` returns the input object), so the sweep
    collapses to one grid row per *distinct* executed schedule — the
    typical fault table prices two schedules, not six — and all rows go
    through one :func:`repro.thermal.grid.peak_temperature_grid` call
    (one batch call for the platform).  Returns one peak per spec, in order, each
    offset by its own ambient drift.
    """
    from repro.thermal.grid import peak_temperature_grid

    engine = ThermalEngine.ensure(engine)
    specs = list(fault_specs)
    rows: list[tuple[Any, PeriodicSchedule]] = []
    row_index: dict[int, int] = {}
    row_of: list[int] = []
    for spec in specs:
        executed = stuck_schedule(schedule, engine.ladder, spec)
        key = id(executed)
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append((engine.model, executed))
        row_of.append(row_index[key])
    if not rows:
        return []
    results = peak_temperature_grid(
        rows, grid_per_interval=grid_per_interval, stepup_fast_path=False
    )
    return [
        float(results[row_of[i]].value + specs[i].ambient_drift_k)
        for i in range(len(specs))
    ]


# ----------------------------------------------------------------------
# 3D-stack structural faults
# ----------------------------------------------------------------------


def layer_of_node(node: int, n_nodes: int, n_layers: int) -> int:
    """Layer index of a stacked-network node.

    Stacked networks (:func:`repro.thermal.stack3d.build_3d_network`)
    number nodes layer-major: node ``layer * per_layer + i`` with
    ``per_layer = n_nodes / n_layers`` and layer 0 sink-adjacent.
    """
    if n_layers < 1 or n_nodes % n_layers:
        raise ConfigurationError(
            f"{n_nodes} nodes do not split into {n_layers} equal layers"
        )
    return int(node) // (n_nodes // n_layers)


def stacked_fault_model(model, faults: FaultSpec, n_layers: int):
    """``model`` with the spec's TSV conductance derating applied.

    Each inter-layer coupling (the off-diagonal entries between aligned
    cores of adjacent layers) is scaled by ``1 - tsv_derating``, with
    the diagonal adjusted to keep the network grounded — the derated
    matrix stays symmetric positive definite for any derating < 1.
    Returns ``model`` unchanged when the knob is off or the platform is
    single-layer.
    """
    from repro.thermal.model import ThermalModel
    from repro.thermal.rc import RCNetwork

    if faults.tsv_derating <= 0 or n_layers < 2:
        return model
    network = model.network
    n = network.conductance.shape[0]
    if n % n_layers:
        raise ConfigurationError(
            f"{n}-node network does not split into {n_layers} equal layers"
        )
    per_layer = n // n_layers
    g = network.conductance.copy()
    keep = 1.0 - faults.tsv_derating
    for layer in range(n_layers - 1):
        for i in range(per_layer):
            a = layer * per_layer + i
            b = (layer + 1) * per_layer + i
            g_inter = -g[a, b]
            if g_inter <= 0:
                continue  # cores not vertically coupled
            lost = (1.0 - keep) * g_inter
            g[a, b] += lost
            g[b, a] += lost
            g[a, a] -= lost
            g[b, b] -= lost
    derated = RCNetwork(
        floorplan=network.floorplan,
        conductance=g,
        capacitance=network.capacitance,
        core_nodes=network.core_nodes,
    )
    return ThermalModel(derated, model.power, t_ambient_c=model.t_ambient_c)


def stacked_perturbed_peak(
    engine,
    schedule: PeriodicSchedule,
    faults: FaultSpec,
    n_layers: int,
    grid_per_interval: int = 64,
) -> float:
    """:func:`perturbed_peak` for stacked platforms (3D knobs applied).

    The executed schedule (stuck DVFS folded in) is re-evaluated on the
    TSV-derated model; each core's stable maximum is then offset by its
    layer's ambient gradient before taking the chip-wide worst case, and
    the uniform ambient drift tops it off.  With both 3D knobs at zero
    this reduces to :func:`perturbed_peak` (to round-off: this is the
    scalar kernel, that one the grid kernel).
    """
    from repro.thermal.peak import peak_temperature

    engine = ThermalEngine.ensure(engine)
    executed = stuck_schedule(schedule, engine.ladder, faults)
    model = stacked_fault_model(engine.model, faults, n_layers)
    if model is engine.model:
        peak = engine.general_peak(
            executed, grid_per_interval=grid_per_interval,
            stepup_fast_path=False,
        )
    else:
        peak = peak_temperature(
            model, executed, grid_per_interval=grid_per_interval
        )
    cores = np.asarray(model.network.core_nodes)
    offsets = np.array(
        [
            faults.layer_ambient_gradient_k
            * layer_of_node(int(node), model.n_nodes, n_layers)
            for node in cores
        ]
    )
    worst = float(np.max(np.asarray(peak.core_peaks) + offsets))
    return worst + faults.ambient_drift_k
