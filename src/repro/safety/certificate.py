"""Independent safety certificates for scheduler results.

The paper's value proposition is a *guarantee*: AO/PCO schedules provably
never exceed ``T_max`` (Theorems 1-5).  Every solver in the registry,
however, prices its candidates through the same eigenbasis machinery it
optimizes with — a bug in the Theorem-1 fast path, an ill-conditioned
``G - E_beta``, or a solver simply lying about its peak would go
undetected.  :func:`certify` closes that loop: it re-derives the stable
peak of the emitted schedule via a *different* numerical route than the
solvers use (the MatEx-style analytic search with the step-up shortcut
disabled, optionally cross-checked against the LSODA ODE oracle), checks
the solver's structural claims (step-up shape, throughput accounting),
and returns a structured :class:`SafetyCertificate` that the registry
attaches to every :class:`~repro.algorithms.base.SchedulerResult`, the
runner journals, and ``repro certify`` gates builds on.

Layering: this module sits on the thermal/schedule/engine layers only —
it must not import :mod:`repro.algorithms` (the registry imports *us*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.engine import ThermalEngine
from repro.obs import METRICS
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.properties import is_step_up, throughput as schedule_throughput
from repro.thermal.grid import peak_temperature_grid, stepup_peak_temperature_grid
from repro.tolerances import FEASIBILITY_SLACK, THROUGHPUT_SLACK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform import Platform

__all__ = ["SafetyCertificate", "certify", "certify_grid", "claim_certificate"]

#: Default agreement tolerance between peak re-derivations (K).  The
#: registry's parity tests hold independent peaks to ~5e-4 K; 0.05 K
#: leaves two orders of magnitude of slack for grid-resolution noise
#: while still catching any genuinely wrong peak claim.
DEFAULT_TOLERANCE = 0.05


@dataclass(frozen=True)
class SafetyCertificate:
    """Outcome of an independent re-verification of one schedule.

    Attributes
    ----------
    peak_theta:
        Certified stable peak (K above ambient): the worst case over
        every re-derivation route that ran.
    theta_max:
        The threshold the schedule was certified against.
    margin:
        ``theta_max - peak_theta`` — positive means certified headroom.
    method_peaks:
        Peak per verification route (``"claimed"``, ``"matex"``,
        ``"stepup"``, ``"reference"``, ``"trace"``).
    disagreement:
        Spread (max - min) across ``method_peaks`` — the cross-check.
    tolerance:
        Agreement tolerance the certificate was issued under.
    condition_number:
        2-norm condition number of the effective conductance matrix
        ``G - E_beta`` — a large value flags a platform whose thermal
        solves are numerically fragile.
    step_up:
        Whether the schedule satisfies Definition 1 (voltage
        non-decreasing per core), i.e. whether the Theorem-1 fast path
        was even applicable to it.
    independent:
        True when at least one re-derivation ran a route different from
        the solver's own claim (False for trace-only certificates of
        closed-loop baselines, whose "schedule" is a summary artifact).
    accepted:
        The verdict: routes agree within tolerance, a feasibility claim
        is backed by certified margin, and the throughput accounting is
        consistent.  ``reasons`` lists every violated check otherwise.
    reasons:
        Human-readable labels of the violated checks (empty if accepted).
    reference_samples_used:
        Per-interval sampling density the LSODA reference route actually
        ran at (``None`` when the route did not run).  Adaptive
        subsampling (see :func:`certify_grid`) reduces it for schedules whose
        certified margin is far from the threshold.
    """

    peak_theta: float
    theta_max: float
    margin: float
    method_peaks: dict[str, float] = field(default_factory=dict)
    disagreement: float = 0.0
    tolerance: float = DEFAULT_TOLERANCE
    condition_number: float = float("nan")
    step_up: bool = False
    independent: bool = True
    accepted: bool = True
    reasons: tuple[str, ...] = ()
    reference_samples_used: int | None = None

    @property
    def feasible(self) -> bool:
        """Whether the *certified* peak respects the threshold (margin form)."""
        return self.margin >= -FEASIBILITY_SLACK

    def summary(self) -> str:
        """One-line human-readable digest."""
        verdict = "ACCEPTED" if self.accepted else "REJECTED"
        routes = ", ".join(
            f"{name}={value:.4f}" for name, value in self.method_peaks.items()
        )
        line = (
            f"certificate {verdict}: peak={self.peak_theta:.4f} K, "
            f"margin={self.margin:+.4f} K, "
            f"disagreement={self.disagreement:.2e} K "
            f"(tol {self.tolerance:g}; {routes}; "
            f"cond(G-E)={self.condition_number:.1f})"
        )
        if self.reasons:
            line += f" [{'; '.join(self.reasons)}]"
        return line

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dump (journal rows, trace documents)."""
        return {
            "peak_theta": self.peak_theta,
            "theta_max": self.theta_max,
            "margin": self.margin,
            "method_peaks": dict(self.method_peaks),
            "disagreement": self.disagreement,
            "tolerance": self.tolerance,
            "condition_number": self.condition_number,
            "step_up": self.step_up,
            "independent": self.independent,
            "accepted": self.accepted,
            "reasons": list(self.reasons),
            "reference_samples_used": self.reference_samples_used,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SafetyCertificate":
        """Rebuild a certificate from :meth:`as_dict` output."""
        return cls(
            peak_theta=float(data["peak_theta"]),
            theta_max=float(data["theta_max"]),
            margin=float(data["margin"]),
            method_peaks={
                str(k): float(v)
                for k, v in (data.get("method_peaks") or {}).items()
            },
            disagreement=float(data.get("disagreement", 0.0)),
            tolerance=float(data.get("tolerance", DEFAULT_TOLERANCE)),
            condition_number=float(data.get("condition_number", float("nan"))),
            step_up=bool(data.get("step_up", False)),
            independent=bool(data.get("independent", True)),
            accepted=bool(data.get("accepted", True)),
            reasons=tuple(str(r) for r in (data.get("reasons") or ())),
            reference_samples_used=(
                int(data["reference_samples_used"])
                if data.get("reference_samples_used") is not None
                else None
            ),
        )


def _count(cert: SafetyCertificate) -> SafetyCertificate:
    METRICS.counter("safety.certificates").inc()
    if not cert.accepted:
        METRICS.counter("safety.certificates_rejected").inc()
    return cert


def _reference_budget(
    gap: float, tolerance: float, reference_samples: int
) -> int:
    """Adaptive per-interval sampling density for the LSODA oracle.

    The reference route only needs to *resolve the comparison*, not the
    trajectory: when the analytic routes already put the peak far from
    both ``theta_max`` and each other, a coarse oracle trace suffices to
    confirm agreement within ``tolerance``.  ``gap`` is the certified
    margin tightness ``|theta_max - certified|`` from the analytic
    routes; wide gaps quarter the density, moderate gaps halve it, and
    tight calls (the ones the certificate actually hinges on) keep the
    full budget.
    """
    if gap >= 8.0 * tolerance:
        return max(16, reference_samples // 4)
    if gap >= 2.0 * tolerance:
        return max(24, reference_samples // 2)
    return reference_samples


def _assemble(
    engine: ThermalEngine,
    schedule: PeriodicSchedule,
    theta_max: float,
    peaks: dict[str, float],
    *,
    tolerance: float,
    step_up: bool,
    claimed_feasible: bool | None,
    claimed_throughput: float | None,
    reference_samples_used: int | None = None,
) -> SafetyCertificate:
    """Turn a route->peak map into a counted certificate."""
    certified = max(peaks.values())
    disagreement = float(certified - min(peaks.values()))
    margin = theta_max - certified

    reasons: list[str] = []
    if not np.isfinite(certified):
        reasons.append("non-finite peak")
    if disagreement > tolerance:
        reasons.append(
            f"peak routes disagree by {disagreement:.4f} K (> {tolerance:g})"
        )
    if claimed_feasible and margin < -tolerance:
        reasons.append(
            f"claimed feasible but certified margin is {margin:.4f} K"
        )
    if claimed_throughput is not None:
        raw = schedule_throughput(schedule)
        if claimed_throughput > raw + THROUGHPUT_SLACK:
            reasons.append(
                f"claimed throughput {claimed_throughput:.6f} exceeds the "
                f"schedule's raw throughput {raw:.6f}"
            )

    return _count(
        SafetyCertificate(
            peak_theta=float(certified),
            theta_max=theta_max,
            margin=float(margin),
            method_peaks=peaks,
            disagreement=disagreement,
            tolerance=float(tolerance),
            condition_number=engine.condition_number(),
            step_up=step_up,
            independent=True,
            accepted=not reasons,
            reasons=tuple(reasons),
            reference_samples_used=reference_samples_used,
        )
    )


def certify(
    engine: "Platform | ThermalEngine",
    schedule: PeriodicSchedule,
    theta_max: float | None = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    claimed_peak: float | None = None,
    claimed_feasible: bool | None = None,
    claimed_throughput: float | None = None,
    grid_per_interval: int = 64,
    reference: bool = False,
    reference_samples: int = 64,
    adaptive_reference: bool = True,
) -> SafetyCertificate:
    """Independently re-verify one schedule against ``theta_max``.

    The one-row call of :func:`certify_grid`, so a solve's certificate
    and a served ``certify`` of the same schedule are the same numbers.

    Parameters
    ----------
    engine:
        The platform (or its engine) whose thermal model prices the
        schedule.
    theta_max:
        Threshold to certify against; defaults to the platform's.
    claimed_peak / claimed_feasible / claimed_throughput:
        The solver's own claims.  The peak claim joins the cross-check
        set; a feasibility claim must be backed by certified margin; the
        throughput claim must not exceed the raw schedule throughput
        (transition overhead only ever subtracts).
    """
    claims = {
        "theta_max": theta_max,
        "claimed_peak": claimed_peak,
        "claimed_feasible": claimed_feasible,
        "claimed_throughput": claimed_throughput,
    }
    return certify_grid(
        [(engine, schedule, claims)],
        tolerance=tolerance,
        grid_per_interval=grid_per_interval,
        reference=reference,
        reference_samples=reference_samples,
        adaptive_reference=adaptive_reference,
    )[0]


def certify_grid(
    items: "Sequence[tuple[Any, PeriodicSchedule] | tuple[Any, PeriodicSchedule, Mapping[str, Any]]]",
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    grid_per_interval: int = 64,
    reference: bool = False,
    reference_samples: int = 64,
    adaptive_reference: bool = True,
) -> list[SafetyCertificate]:
    """Certify many ``(platform, schedule)`` pairs via the grid kernels.

    The primary route is the MatEx-style analytic extrema search with the
    Theorem-1 step-up shortcut *disabled*
    (:func:`repro.thermal.grid.peak_temperature_grid`) — the solvers lean
    on that shortcut, so running the general search exercises a
    genuinely different code path over the same stable status.  Step-up
    rows add the Theorem-1 value as a second cross-check
    (:func:`repro.thermal.grid.stepup_peak_temperature_grid`).  Each
    route is one grid call for the whole list (one batch call per
    platform).

    ``reference=True`` additionally runs the LSODA ODE oracle
    (:func:`repro.thermal.reference.reference_peak`) per row — it is
    deliberately a different machine.  Its per-interval density is
    subsampled adaptively by default: when the analytic routes put the
    certified margin far from ``theta_max`` (``>= 8x`` / ``>= 2x`` the
    tolerance) the oracle runs at a quarter / half of
    ``reference_samples``, while tight calls keep the full budget.  Pass
    ``adaptive_reference=False`` for the fixed-density audit behavior.

    Each item is ``(platform_or_engine, schedule)`` or
    ``(platform_or_engine, schedule, claims)`` where ``claims`` may carry
    ``theta_max``, ``claimed_peak``, ``claimed_feasible``, and
    ``claimed_throughput`` — the knobs of :func:`certify`.

    Returns one certificate per item, in order.
    """
    prepared: list[tuple[ThermalEngine, PeriodicSchedule, dict[str, Any]]] = []
    for item in items:
        engine, schedule = item[0], item[1]
        claims = dict(item[2]) if len(item) > 2 else {}
        prepared.append((ThermalEngine.ensure(engine), schedule, claims))
    if not prepared:
        return []

    rows = [(engine.model, schedule) for engine, schedule, _ in prepared]
    matex = peak_temperature_grid(
        rows, grid_per_interval=grid_per_interval, stepup_fast_path=False
    )
    step_flags = [is_step_up(schedule) for _, schedule, _ in prepared]
    stepup_peaks: dict[int, float] = {}
    stepup_rows = [i for i, flag in enumerate(step_flags) if flag]
    if stepup_rows:
        results = stepup_peak_temperature_grid(
            [rows[i] for i in stepup_rows], check=False
        )
        stepup_peaks = {
            i: float(res.value) for i, res in zip(stepup_rows, results)
        }

    certs: list[SafetyCertificate] = []
    for i, (engine, schedule, claims) in enumerate(prepared):
        theta_max = claims.get("theta_max")
        theta_max = float(
            engine.theta_max if theta_max is None else theta_max
        )
        peaks: dict[str, float] = {}
        if claims.get("claimed_peak") is not None:
            peaks["claimed"] = float(claims["claimed_peak"])
        peaks["matex"] = float(matex[i].value)
        if step_flags[i]:
            peaks["stepup"] = stepup_peaks[i]
        samples_used: int | None = None
        if reference:
            from repro.thermal.reference import reference_peak

            samples_used = reference_samples
            if adaptive_reference:
                gap = abs(theta_max - max(peaks.values()))
                samples_used = _reference_budget(
                    gap, tolerance, reference_samples
                )
            peaks["reference"] = float(
                reference_peak(
                    engine.model, schedule, samples_per_interval=samples_used
                )
            )
        certs.append(
            _assemble(
                engine, schedule, theta_max, peaks,
                tolerance=tolerance,
                step_up=step_flags[i],
                claimed_feasible=claims.get("claimed_feasible"),
                claimed_throughput=claims.get("claimed_throughput"),
                reference_samples_used=samples_used,
            )
        )
    return certs


def claim_certificate(
    engine: "Platform | ThermalEngine",
    claimed_peak: float,
    theta_max: float | None = None,
    *,
    claimed_feasible: bool | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SafetyCertificate:
    """Certificate for a result whose schedule is *not* the artifact.

    The reactive baseline's ``schedule`` field summarizes a closed-loop
    simulation — re-deriving its peak from that pseudo-schedule would
    verify the wrong object.  This records the trace-measured peak as a
    non-independent certificate: the margin bookkeeping and feasibility
    consistency check still apply, but no cross-route agreement can be
    claimed (``independent=False``).
    """
    engine = ThermalEngine.ensure(engine)
    if theta_max is None:
        theta_max = engine.theta_max
    theta_max = float(theta_max)
    margin = theta_max - float(claimed_peak)
    reasons: list[str] = []
    if not np.isfinite(claimed_peak):
        reasons.append("non-finite peak")
    if claimed_feasible and margin < -tolerance:
        reasons.append(
            f"claimed feasible but trace margin is {margin:.4f} K"
        )
    return _count(
        SafetyCertificate(
            peak_theta=float(claimed_peak),
            theta_max=theta_max,
            margin=float(margin),
            method_peaks={"trace": float(claimed_peak)},
            disagreement=0.0,
            tolerance=float(tolerance),
            condition_number=engine.condition_number(),
            step_up=False,
            independent=False,
            accepted=not reasons,
            reasons=tuple(reasons),
        )
    )
