"""Uniform solver registry: name -> ``solve(engine, **params) -> SchedulerResult``.

Every scheduler in the repo — the paper's four comparison approaches plus
the auxiliary ones — registers here under a :class:`SolverSpec`, giving
experiments and the CLI one dispatch surface instead of per-module
imports and if/elif ladders.  All entry points share the same shape:

``spec.solve(platform_or_engine, **params) -> SchedulerResult``

where the first argument may be a bare :class:`~repro.platform.Platform`
or a shared :class:`~repro.engine.ThermalEngine` (passing one engine
across several solvers shares the model's caches and attributes the
instrumentation counters per run).

Two schedulers that historically returned something else are adapted:
``continuous`` (the ideal relaxation, a :class:`ContinuousAssignment`)
and ``minpeak`` (the fixed-workload dual, a :class:`MinPeakResult`) are
wrapped so they too emit a :class:`SchedulerResult` here; their native
entry points remain available unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from repro.algorithms.ao import ao
from repro.algorithms.base import SchedulerResult
from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.control import (
    gain_scheduled_controller,
    integral_controller,
)
from repro.algorithms.dark import dark_silicon_ao
from repro.algorithms.exs import exs, exs_pruned
from repro.algorithms.lns import lns
from repro.algorithms.minpeak import minimize_peak
from repro.algorithms.pco import pco
from repro.algorithms.reactive import reactive_throttling
from repro.engine import ThermalEngine, engine_entrypoint
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    SolverError,
    ThermalModelError,
)
from repro.obs import METRICS, span
from repro.platform import Platform
from repro.safety.certificate import (
    DEFAULT_TOLERANCE,
    certify,
    claim_certificate,
)
# The module, not its names: repro.safety.fallback imports solver modules,
# so importing it first runs this module (through repro.algorithms'
# __init__) while the fallback module is still half-initialised.
from repro.safety import fallback
from repro.schedule.builders import constant_schedule
from repro.tolerances import ROUTE_AGREEMENT, within_threshold

__all__ = [
    "MARGIN_POLICIES",
    "MARGIN_POLICY_CONDITION",
    "SolverSpec",
    "SOLVERS",
    "get_solver",
    "guarded_solve",
    "solve",
]


@engine_entrypoint("continuous")
def _solve_continuous(
    engine: ThermalEngine, period: float = 0.02
) -> SchedulerResult:
    """The ideal continuous relaxation, wrapped as a ``SchedulerResult``.

    The emitted constant schedule uses the (generally off-ladder)
    continuous voltages — the upper bound AO chases, not something
    discrete hardware can run.
    """
    cont = continuous_assignment(engine.platform)
    peak = float(engine.steady_state_cores(cont.voltages).max())
    return SchedulerResult(
        name="continuous",
        schedule=constant_schedule(cont.voltages, period=period),
        throughput=cont.throughput,
        peak_theta=peak,
        feasible=bool(within_threshold(peak, engine.theta_max)),
        details={"clamped": cont.clamped, "core_theta": cont.core_theta},
    )


@engine_entrypoint("minpeak")
def _solve_minpeak(
    engine: ThermalEngine,
    target_speeds=None,
    period: float = 0.02,
    m_cap: int | None = None,
    m_step: int = 1,
) -> SchedulerResult:
    """The fixed-workload dual, wrapped as a ``SchedulerResult``.

    ``target_speeds`` defaults to the platform's ideal continuous
    voltages, so the bare call minimizes the peak of the workload AO
    would try to schedule.  ``feasible`` compares the minimized peak
    against the platform threshold — the dual itself does not enforce it.
    """
    if target_speeds is None:
        target_speeds = continuous_assignment(engine.platform).voltages
    kwargs = {} if m_cap is None else {"m_cap": m_cap}
    mp = minimize_peak(
        engine, target_speeds, period=period, m_step=m_step, **kwargs
    )
    targets = np.asarray(mp.target_speeds, dtype=float)
    return SchedulerResult(
        name="minpeak",
        schedule=mp.schedule,
        throughput=float(np.mean(targets)),
        peak_theta=float(mp.peak.value),
        feasible=bool(within_threshold(mp.peak.value, engine.theta_max)),
        details={
            "m": mp.m,
            "target_speeds": targets,
            "constant_bound_theta": mp.constant_bound_theta,
        },
    )


@dataclass(frozen=True)
class SolverSpec:
    """One registered scheduler.

    Attributes
    ----------
    name:
        Canonical registry key (also the lookup key, case-insensitive).
    func:
        The entry point, ``func(platform_or_engine, **params)``.
    description:
        One-line summary for ``repro list``.
    params:
        Names of the keyword parameters the solver accepts; :func:`solve`
        rejects anything else, and the comparison grid's work units
        (:func:`repro.runner.units.solve_cell_unit`) filter their common
        parameter pool through this set.
    quick:
        Parameter overrides for seconds-scale smoke runs (``--quick``).
    schedule_is_artifact:
        Whether ``result.schedule`` is the solver's actual output (so an
        independent peak evaluation of it must reproduce ``peak_theta``).
        False for ``reactive``, whose schedule is a pseudo-schedule
        summarizing a closed-loop simulation.
    """

    name: str
    func: Callable[..., SchedulerResult]
    description: str
    params: tuple[str, ...] = ()
    quick: Mapping[str, object] = field(default_factory=dict)
    schedule_is_artifact: bool = True

    def solve(
        self,
        platform: Platform | ThermalEngine,
        *,
        certify_tolerance: float | None = None,
        **params,
    ) -> SchedulerResult:
        """Run the solver after validating parameter names.

        Every result leaving the registry carries an independent
        :class:`~repro.safety.certificate.SafetyCertificate`: the
        schedule's peak is re-derived through the general MatEx search
        (a different route from the Theorem-1 fast path the solvers
        optimize with) and checked against the solver's own claims.
        Certification runs *after* the solver's counters were
        checkpointed, so ``result.stats`` attributes exactly the work
        the solver itself did.
        """
        self.check_params(params)
        engine = ThermalEngine.ensure(platform)
        result = self.func(engine, **params)
        return self.attach_certificate(engine, result, certify_tolerance)

    def check_params(self, params: Mapping[str, object]) -> None:
        """Raise :class:`~repro.errors.SolverError` on unknown names."""
        unknown = set(params) - set(self.params)
        if unknown:
            raise SolverError(
                f"solver {self.name!r} does not accept "
                f"{sorted(unknown)}; valid parameters: {sorted(self.params)}"
            )

    def attach_certificate(
        self,
        engine: ThermalEngine,
        result: SchedulerResult,
        tolerance: float | None = None,
    ) -> SchedulerResult:
        """Certify ``result`` and return a copy carrying the certificate.

        Solvers whose ``schedule`` field is the real artifact get the
        full independent re-derivation; closed-loop baselines
        (``schedule_is_artifact=False``) get a trace certificate — their
        pseudo-schedule summarizes a simulation, so re-deriving its peak
        would verify the wrong object.
        """
        tolerance = DEFAULT_TOLERANCE if tolerance is None else tolerance
        if self.schedule_is_artifact:
            cert = certify(
                engine,
                result.schedule,
                tolerance=tolerance,
                claimed_peak=result.peak_theta,
                claimed_feasible=result.feasible,
                claimed_throughput=result.throughput,
            )
        else:
            cert = claim_certificate(
                engine,
                result.peak_theta,
                claimed_feasible=result.feasible,
                tolerance=tolerance,
            )
        return replace(result, certificate=cert)


_AO_PARAMS = (
    "period", "m_cap", "m_step", "t_unit", "fill", "adaptive", "active_mask",
)

#: All registered schedulers, keyed by canonical name.
SOLVERS: dict[str, SolverSpec] = {
    spec.name: spec
    for spec in (
        SolverSpec(
            name="LNS",
            func=lns,
            description="lower-neighboring-speed rounding baseline",
            params=("period",),
        ),
        SolverSpec(
            name="EXS",
            func=exs,
            description="exhaustive constant-mode search (Algorithm 1)",
        ),
        SolverSpec(
            name="EXS-pruned",
            func=exs_pruned,
            description="monotonicity-pruned exact constant-mode search",
        ),
        SolverSpec(
            name="AO",
            func=ao,
            description="aligned oscillation (Algorithm 2)",
            params=_AO_PARAMS,
            quick={"m_cap": 16},
        ),
        SolverSpec(
            name="PCO",
            func=pco,
            description="phase-conscious oscillation (AO + spatial interleaving)",
            params=(
                "period", "m_cap", "m_step", "t_unit", "shift_grid", "adaptive",
            ),
            quick={"m_cap": 16, "shift_grid": 4},
        ),
        SolverSpec(
            name="dark",
            func=dark_silicon_ao,
            description="AO with greedy dark-silicon power gating",
            params=("max_dark", "explore_extra") + _AO_PARAMS,
            quick={"m_cap": 16},
        ),
        SolverSpec(
            name="reactive",
            func=reactive_throttling,
            description="reactive DTM threshold-throttling baseline",
            params=(
                "sensor_period", "guard_band", "horizon", "settle_fraction",
                "faults",
            ),
            schedule_is_artifact=False,
        ),
        SolverSpec(
            name="integral",
            func=integral_controller,
            description="per-core adjustable-gain integral DVFS controller",
            params=(
                "ki", "gain_scale", "gain_schedule", "hot_gain",
                "sensor_period", "reference_offset", "horizon",
                "settle_fraction", "faults",
            ),
            quick={"horizon": 0.02},
            schedule_is_artifact=False,
        ),
        SolverSpec(
            name="gain_sched",
            func=gain_scheduled_controller,
            description="integral controller with per-core gain scheduling",
            params=(
                "ki", "gain_scale", "hot_gain", "sensor_period",
                "reference_offset", "horizon", "settle_fraction", "faults",
            ),
            quick={"horizon": 0.02},
            schedule_is_artifact=False,
        ),
        SolverSpec(
            name="continuous",
            func=_solve_continuous,
            description="ideal continuous relaxation (upper bound)",
            params=("period",),
        ),
        SolverSpec(
            name="minpeak",
            func=_solve_minpeak,
            description="fixed-workload peak minimization (the dual)",
            params=("target_speeds", "period", "m_cap", "m_step"),
            quick={"m_cap": 16},
        ),
    )
}

_BY_LOWER = {name.lower(): name for name in SOLVERS}


def get_solver(name: str) -> SolverSpec:
    """Look a solver up by name (case-insensitive).

    Raises
    ------
    KeyError
        With the list of known solvers when the name is not registered.
    """
    canonical = _BY_LOWER.get(str(name).lower())
    if canonical is None:
        raise KeyError(
            f"unknown solver {name!r}; known solvers: {', '.join(SOLVERS)}"
        )
    return SOLVERS[canonical]


def solve(
    name: str, platform: Platform | ThermalEngine, **params
) -> SchedulerResult:
    """Dispatch ``name`` through the registry: lookup, validate, run."""
    return get_solver(name).solve(platform, **params)


#: Failures :func:`guarded_solve` degrades on (solver crashes and
#: numerical breakdowns).  :class:`~repro.errors.InfeasibleError` is
#: deliberately absent: "no feasible assignment exists" is a *correct
#: answer*, not a failure, and no fallback can contradict it.
_DEGRADABLE = (SolverError, ThermalModelError, np.linalg.LinAlgError)

#: Condition number of the thermal conductance system above which the
#: ``"shrink"`` margin policy distrusts the certified margin and
#: re-solves against a threshold tightened by the certificate's observed
#: reference-route disagreement.
MARGIN_POLICY_CONDITION = 1e3

#: Values :func:`guarded_solve` accepts for ``margin_policy``.
MARGIN_POLICIES = (None, "off", "shrink")


def guarded_solve(
    solver: str | SolverSpec,
    platform: Platform | ThermalEngine,
    *,
    certify_tolerance: float | None = None,
    margin_policy: str | None = None,
    **params,
) -> SchedulerResult:
    """Run a solver with certificate gating and graceful degradation.

    The happy path is exactly :meth:`SolverSpec.solve`.  When the solver
    crashes (:class:`~repro.errors.SolverError`, a linear-algebra
    failure) or its certificate is rejected, the result is rebuilt by
    walking :data:`repro.safety.fallback.FALLBACK_CHAIN` — neighbor
    rounding, then the exact constant search, then the lowest-mode
    never-fails floor — until a hop yields a feasible, certified
    schedule.  Each hop is traced as a ``safety/fallback`` span and
    counted on the ``safety.fallback`` metric; the emitted result keeps
    the *requested* solver's name (grid assembly keys rows by it) and
    records what happened in ``details["fallback"]``.

    ``margin_policy="shrink"`` adds a post-hoc robustness pass for
    ill-conditioned platforms: when the conductance system's condition
    number is at least :data:`MARGIN_POLICY_CONDITION` and the
    certificate's routes disagree by more than
    :data:`~repro.tolerances.ROUTE_AGREEMENT`, the solve is repeated
    against ``T_max`` shrunk by that observed disagreement, and the
    tightened result is kept if it stays feasible (re-certified against
    the *original* threshold, so the bought margin is visible).  The
    outcome — applied or not, and why — lands in
    ``details["margin_policy"]``.

    Raises
    ------
    InfeasibleError
        Propagated untouched — infeasibility is an answer, not a crash.
    SolverError
        Before any solve, when ``params`` names a parameter the solver
        does not accept — a misspelling is not a failure to degrade.
    """
    if margin_policy not in MARGIN_POLICIES:
        raise ConfigurationError(
            f"unknown margin_policy {margin_policy!r}; "
            f"expected one of {MARGIN_POLICIES}"
        )
    spec = solver if isinstance(solver, SolverSpec) else get_solver(solver)
    spec.check_params(params)
    engine = ThermalEngine.ensure(platform)
    tolerance = DEFAULT_TOLERANCE if certify_tolerance is None else certify_tolerance
    result = _guarded(spec, engine, tolerance, params)
    if margin_policy != "shrink":
        return result
    return _apply_margin_policy(spec, engine, result, tolerance, params)


def _apply_margin_policy(
    spec: SolverSpec,
    engine: ThermalEngine,
    result: SchedulerResult,
    tolerance: float,
    params: Mapping,
) -> SchedulerResult:
    """The ``"shrink"`` margin policy: distrust margins when ill-conditioned.

    Tightens ``T_max`` by the certificate's observed reference-route
    disagreement and re-solves; keeps the original result whenever the
    platform is well conditioned, the routes agree within
    :data:`~repro.tolerances.ROUTE_AGREEMENT`, or the tightened problem
    turns out infeasible.
    """
    cond = float(engine.condition_number())
    cert = result.certificate
    disagreement = float(cert.disagreement) if cert is not None else 0.0
    record: dict = {
        "policy": "shrink",
        "applied": False,
        "condition_number": cond,
        "condition_threshold": MARGIN_POLICY_CONDITION,
        "disagreement": disagreement,
        "shrink_theta": 0.0,
    }
    if cond < MARGIN_POLICY_CONDITION:
        record["reason"] = "well conditioned"
        return replace(result, details={**result.details, "margin_policy": record})
    if disagreement <= ROUTE_AGREEMENT:
        record["reason"] = "reference routes agree"
        return replace(result, details={**result.details, "margin_policy": record})
    shrunk_t_max = engine.platform.t_max_c - disagreement
    if shrunk_t_max <= engine.model.t_ambient_c:
        record["reason"] = "shrunk T_max would not exceed ambient"
        return replace(result, details={**result.details, "margin_policy": record})
    shrunk_engine = ThermalEngine.ensure(
        engine.platform.with_t_max(shrunk_t_max)
    )
    with span("safety/margin_policy", solver=spec.name, shrink=disagreement):
        METRICS.counter("safety.margin_policy").inc()
        try:
            tightened = _guarded(spec, shrunk_engine, tolerance, params)
        except InfeasibleError:
            record["reason"] = "tightened solve infeasible"
            return replace(
                result, details={**result.details, "margin_policy": record}
            )
    if not tightened.feasible:
        record["reason"] = "tightened solve infeasible"
        return replace(result, details={**result.details, "margin_policy": record})
    # Re-certify against the *original* threshold so the margin the
    # shrink bought is stated against the real T_max.
    final_cert = certify(
        engine,
        tightened.schedule,
        tolerance=tolerance,
        claimed_peak=tightened.peak_theta,
    )
    record["applied"] = True
    record["shrink_theta"] = disagreement
    record["tightened_t_max_c"] = float(shrunk_t_max)
    return replace(
        tightened,
        certificate=final_cert,
        feasible=bool(final_cert.feasible),
        details={**tightened.details, "margin_policy": record},
    )


def _guarded(
    spec: SolverSpec,
    engine: ThermalEngine,
    tolerance: float,
    params: Mapping,
) -> SchedulerResult:
    """The certificate-gated solve with fallback degradation."""
    failure: str
    try:
        result = spec.solve(engine, certify_tolerance=tolerance, **params)
    except InfeasibleError:
        raise
    except _DEGRADABLE as exc:
        failure = f"{type(exc).__name__}: {exc}"
    else:
        cert = result.certificate
        if cert is None or cert.accepted:
            return result
        failure = "certificate rejected: " + "; ".join(cert.reasons)

    hop_failures: dict[str, str] = {}
    last: SchedulerResult | None = None
    for hop in fallback.FALLBACK_CHAIN:
        METRICS.counter("safety.fallback").inc()
        with span("safety/fallback", solver=spec.name, hop=hop, failure=failure):
            try:
                degraded = fallback.run_fallback_hop(hop, engine)
            except _DEGRADABLE as exc:
                hop_failures[hop] = f"{type(exc).__name__}: {exc}"
                continue
        cert = certify(
            engine,
            degraded.schedule,
            tolerance=tolerance,
            claimed_peak=degraded.peak_theta,
            claimed_feasible=degraded.feasible,
            claimed_throughput=degraded.throughput,
        )
        last = replace(
            degraded,
            name=spec.name,
            certificate=cert,
            details={
                **degraded.details,
                "fallback": {
                    "requested": spec.name,
                    "hop": hop,
                    "failure": failure,
                    "hop_failures": dict(hop_failures),
                },
            },
        )
        if cert.accepted and last.feasible:
            return last
        hop_failures[hop] = (
            "infeasible" if cert.accepted else "; ".join(cert.reasons)
        )
    if last is not None:  # the floor built but is honestly infeasible
        return last
    raise SolverError(
        f"solver {spec.name!r} failed ({failure}) and every fallback hop "
        f"failed too: {hop_failures}"
    )
