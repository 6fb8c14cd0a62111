"""Top-level convenience entry points of the frozen public surface.

Three verbs cover the common workflow without touching any submodule:

* :func:`load_platform` — build a platform from a
  :class:`~repro.platforms.PlatformSpec`, a preset name
  (``"paper"``, ``"tech-16-io"``, ...) or a spec document, with keyword
  overrides layered on top;
* :func:`repro.algorithms.registry.solve` — run a registered scheduler
  (re-exported at the package root);
* :func:`evaluate` — independently price an arbitrary schedule on a
  platform: stable-status peak, feasibility, throughput, as a typed
  :class:`EvaluationResult`.

These, together with ``repro.__all__``, form the supported API; the
snapshot test in ``tests/test_public_api.py`` pins both so the surface
cannot drift silently.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine import ThermalEngine
from repro.platform import Platform
from repro.platforms import PlatformSpec
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import throughput as schedule_throughput
from repro.thermal.grid import peak_temperature_grid, stepup_peak_temperature_grid
from repro.tolerances import within_threshold

__all__ = ["load_platform", "EvaluationResult", "evaluate"]


def load_platform(
    spec: PlatformSpec | str | Mapping[str, Any] | None = None,
    **overrides: Any,
) -> Platform:
    """Build a platform from a spec, preset name or spec document.

    The supported forms all resolve through the
    :class:`~repro.platforms.PlatformSpec` registry:

    * a preset or family name — ``load_platform("paper")``,
      ``load_platform("tech-16-io", n_cores=4)``;
    * a :class:`~repro.platforms.PlatformSpec` instance;
    * a spec document ``{"family": ..., "overrides": {...}}`` (the JSON
      wire form journals and manifests carry) or ``{"name": ...,
      <overrides>}``;
    * ``None`` — the default ``paper`` preset.

    Keyword ``overrides`` are layered on top of the spec and win; a
    flat overrides dict without a ``family``/``name`` key, or bare
    keywords such as ``load_platform(n_cores=3)``, override the ``paper``
    preset.  The built platform carries its spec as provenance
    (``platform.spec``), so content-addressed caches and sweep-derived
    copies stay in sync.
    """
    return PlatformSpec.coerce(spec).with_overrides(**overrides).build()


@dataclass(frozen=True)
class EvaluationResult:
    """Independent pricing of one schedule on one platform.

    Attributes
    ----------
    peak_theta:
        Stable-status peak core temperature, in K above ambient.
    theta_max:
        The platform's threshold in the same units.
    feasible:
        ``peak_theta <= theta_max`` (small tolerance).
    throughput:
        Chip-wide mean speed per core over the period (eq. 5).
    t_ambient_c:
        Ambient in Celsius — the offset :meth:`peak_celsius` adds back.
    """

    peak_theta: float
    theta_max: float
    feasible: bool
    throughput: float
    t_ambient_c: float

    def peak_celsius(self) -> float:
        """The peak as an absolute temperature in Celsius."""
        return self.peak_theta + self.t_ambient_c

    def summary(self) -> str:
        """One-line human-readable digest."""
        verdict = "feasible" if self.feasible else "INFEASIBLE"
        return (
            f"peak {self.peak_theta:.2f} K above ambient "
            f"({self.peak_celsius():.1f} C) vs limit {self.theta_max:.2f} K "
            f"— {verdict}; throughput {self.throughput:.4f}"
        )


def evaluate(
    platform: Platform | ThermalEngine,
    schedule: PeriodicSchedule,
    general: bool = True,
    grid_per_interval: int | None = None,
) -> EvaluationResult:
    """Price a schedule: stable peak, feasibility, throughput.

    This is the independent check a solver's claimed ``peak_theta`` can
    be audited against.  ``general=True`` (default) uses the MatEx-style
    search valid for arbitrary schedules (with the Theorem-1 fast path
    when the schedule happens to be step-up); ``general=False`` insists
    on the Theorem-1 step-up engine and raises for non-step-up
    schedules.  ``grid_per_interval`` tunes the general search's
    within-interval sampling density.

    Platforms (as opposed to pre-built engines) resolve through the
    process-wide :class:`~repro.service.session.SchedulerSession`, so
    repeated evaluations of the same physics share one engine.  The
    one-row call of :func:`evaluate_rows`.
    """
    if isinstance(platform, ThermalEngine):
        engine = platform
    else:
        from repro.service.session import default_session

        engine = default_session().engine_for(platform)
    return evaluate_rows([(engine, schedule)], general, grid_per_interval)[0]


def evaluate_rows(
    rows: Sequence[tuple[ThermalEngine, PeriodicSchedule]],
    general: bool = True,
    grid_per_interval: int | None = None,
) -> list[EvaluationResult]:
    """:func:`evaluate` for ``(engine, schedule)`` rows in one grid call.

    :func:`repro.thermal.grid.peak_temperature_grid` prices general
    rows, :func:`repro.thermal.grid.stepup_peak_temperature_grid` (with
    its step-up check) the others; results in input order.
    """
    items = [(engine.model, schedule) for engine, schedule in rows]
    if general:
        kwargs: dict[str, Any] = {}
        if grid_per_interval is not None:
            kwargs["grid_per_interval"] = int(grid_per_interval)
        peaks = peak_temperature_grid(items, **kwargs)
    else:
        peaks = stepup_peak_temperature_grid(items, check=True)
    return [
        EvaluationResult(
            peak_theta=float(peak.value),
            theta_max=float(engine.theta_max),
            feasible=bool(within_threshold(peak.value, engine.theta_max)),
            throughput=float(schedule_throughput(schedule)),
            t_ambient_c=float(engine.model.t_ambient_c),
        )
        for (engine, schedule), peak in zip(rows, peaks)
    ]
