"""Common result type for all scheduling algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine import EngineStats
from repro.schedule.periodic import PeriodicSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.safety.certificate import SafetyCertificate

__all__ = ["SchedulerResult"]


@dataclass(frozen=True)
class SchedulerResult:
    """The outcome of a throughput-maximization run.

    Attributes
    ----------
    name:
        Algorithm identifier ("LNS", "EXS", "AO", "PCO", ...).
    schedule:
        The emitted periodic schedule.
    throughput:
        Chip-wide throughput per eq. (5), net of DVFS transition losses
        where the algorithm incurs them.
    peak_theta:
        Stable-status peak core temperature above ambient (K) as computed
        by the algorithm's own peak engine.
    feasible:
        Whether ``peak_theta`` respects the platform threshold, by the
        package's one rule :func:`repro.tolerances.within_threshold`
        (``peak_theta <= theta_max + FEASIBILITY_SLACK``).
    runtime_s:
        Wall-clock seconds of the whole entry-point call, plus the build
        time of memoized work it reused, filled in by
        :func:`repro.engine.engine_entrypoint`.
    details:
        Algorithm-specific extras (chosen m, mode plan, search statistics).
    stats:
        Thermal-engine counters attributed to this run
        (:class:`~repro.engine.EngineStats`) — steady-state solves, cache
        hit rates, batch sizes, per-phase wall time.  ``None`` for a
        result built outside :func:`repro.engine.engine_entrypoint`.
    certificate:
        Independent :class:`~repro.safety.certificate.SafetyCertificate`
        re-verifying the emitted schedule through a different numerical
        route.  Attached by the solver registry
        (:meth:`~repro.algorithms.registry.SolverSpec.solve`); ``None``
        when the solver entry point was called directly.
    """

    name: str
    schedule: PeriodicSchedule
    throughput: float
    peak_theta: float
    feasible: bool
    runtime_s: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)
    stats: EngineStats | None = None
    certificate: "SafetyCertificate | None" = None

    def peak_celsius(self, t_ambient_c: float = 35.0) -> float:
        """Peak temperature in Celsius."""
        return self.peak_theta + t_ambient_c

    def summary(self) -> str:
        """Human-readable summary (plus the engine stats line when present)."""
        line = (
            f"{self.name}: THR={self.throughput:.4f}, "
            f"peak={self.peak_theta:.2f} K above ambient, "
            f"feasible={self.feasible}, {self.runtime_s * 1e3:.1f} ms"
        )
        if self.stats is not None:
            line += f"\n  engine: {self.stats.summary_line()}"
        if self.certificate is not None:
            line += f"\n  {self.certificate.summary()}"
        return line

    def mean_voltage(self) -> float:
        """Time-averaged voltage across cores (equals eq.-5 THR when f=v)."""
        sched = self.schedule
        volts = sched.voltage_matrix
        lengths = sched.lengths
        return float((volts * lengths[:, None]).sum() / (sched.n_cores * sched.period))
