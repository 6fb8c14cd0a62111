"""The shared thermal evaluation engine every solver drives.

Before this module, each scheduling algorithm took a bare
:class:`~repro.platform.Platform`, privately picked between the scalar
and batched peak kernels, and threaded them through ad-hoc
``peak_fn`` / ``peak_batch_fn`` keyword plumbing.  :class:`ThermalEngine`
centralizes that choice: it owns the bound
:class:`~repro.thermal.model.ThermalModel` (and with it the
steady-state LRU cache), exposes the scalar peak engines and the
batched ones (for stacked candidate rows) behind one
interface, and instruments everything — steady-state solves, cache hit
rates, expm applications, batch sizes, and per-phase wall time — so
every :class:`~repro.algorithms.base.SchedulerResult` can report how
much thermal work it cost (its ``stats`` field).

Solver bodies take a ``ThermalEngine`` directly; the
:func:`engine_entrypoint` decorator is the single coercion point that
still lets callers pass a bare ``Platform``
(:meth:`ThermalEngine.ensure` normalizes).  Passing one engine across
several solver runs (as a :class:`~repro.service.SchedulerSession`
does) shares the model's caches between them, and
:meth:`ThermalEngine.checkpoint` / :meth:`ThermalEngine.stats_since`
attribute the counters to each run separately.

Instrumentation is layered on :mod:`repro.obs`: :meth:`ThermalEngine.phase`
opens a tracing span per named solver phase (and adds its wall time to
the ``phase_seconds`` of :class:`EngineStats`), and
:func:`engine_entrypoint` wraps every solver run in a ``solve/<name>``
root span carrying the run's thermal-work attributes.  :data:`COUNTERS`
is the one list of those counters: the stats fields, their journal keys
and their span attributes (:meth:`EngineStats.span_attrs`) all follow it.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.obs import METRICS, span as obs_span
from repro.platform import Platform
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.batch import PeakRows, Rows, peak_rows, stepup_peak_rows
from repro.thermal.model import ThermalModel
from repro.thermal.peak import PeakResult, peak_temperature, stepup_peak_temperature

__all__ = [
    "EngineStats",
    "ThermalEngine",
    "as_platform",
    "engine_entrypoint",
]

#: Values :meth:`ThermalEngine.memo` keeps per engine (oldest dropped first).
MEMO_SIZE = 4

#: The integer counters of :class:`EngineStats` in journal order, each with
#: the root-span attribute it fills (``None``: journal only).
COUNTERS: tuple[tuple[str, str | None], ...] = (
    ("steady_state_solves", "ss_solves"),
    ("steady_state_cache_hits", "ss_cache_hits"),
    ("steady_state_batch_rows", "ss_batch_rows"),
    ("expm_applications", "expm_applications"),
    ("peak_evals", "peak_evals"),
    ("batch_calls", "batch_calls"),
    ("batch_candidates", "batch_candidates"),
    ("eigen_cache_hits", None),
    ("eigen_cache_misses", None),
)


def as_platform(platform_or_engine: "Platform | ThermalEngine") -> Platform:
    """The underlying :class:`Platform` of either a platform or an engine."""
    if isinstance(platform_or_engine, ThermalEngine):
        return platform_or_engine.platform
    return platform_or_engine


def engine_entrypoint(name: str | None = None):
    """Decorate a solver so its body receives a :class:`ThermalEngine`.

    The decorated function keeps the public ``Platform | ThermalEngine``
    first argument — this is the one place the coercion happens, so
    solver bodies no longer repeat ``ThermalEngine.ensure`` (or
    isinstance checks) themselves.

    With a ``name``, the decorator owns the run's accounting: one engine
    checkpoint and one timer around the whole call fill the returned
    :class:`~repro.algorithms.base.SchedulerResult`'s ``runtime_s`` and
    ``stats``, and the run is wrapped in a ``solve/<name>`` tracing span
    whose attributes are those same :class:`EngineStats` counters.
    ``runtime_s`` also counts the build time of every
    :meth:`ThermalEngine.memo` value the call reused, so a solve reads
    what it costs from scratch.
    """

    def decorate(func: Callable) -> Callable:
        if name is None:
            @functools.wraps(func)
            def coerce(platform: "Platform | ThermalEngine", *args, **kwargs):
                return func(ThermalEngine.ensure(platform), *args, **kwargs)

            return coerce

        span_name = f"solve/{name}"

        @functools.wraps(func)
        def wrapper(platform: "Platform | ThermalEngine", *args, **kwargs):
            engine = ThermalEngine.ensure(platform)
            mark = engine.checkpoint()
            reused_s = engine._reused_s
            t0 = time.perf_counter()
            with obs_span(span_name) as sp:
                try:
                    result = func(engine, *args, **kwargs)
                finally:
                    runtime_s = (
                        time.perf_counter() - t0 + engine._reused_s - reused_s
                    )
                    st = engine.stats_since(mark)
                    sp.set_attrs(solver=name, **st.span_attrs())
            return replace(result, runtime_s=runtime_s, stats=st)

        return wrapper

    return decorate


@dataclass(frozen=True)
class EngineStats:
    """Thermal-work counters accumulated over a span of engine use.

    Attributes
    ----------
    steady_state_solves:
        Cholesky back-substitutions for single steady states (cache misses).
    steady_state_cache_hits:
        Steady-state requests served from the model's LRU.
    steady_state_batch_rows:
        Voltage rows priced in bulk: rows through ``steady_state_batch``
        plus the constant-lattice rows EXS prices by superposition over
        ``ThermalModel.core_response``.  EXS counts each of its ``L^N``
        rows once, however it was priced, so an EXS run reads ``L^N``.
    expm_applications:
        Vector propagations and dense propagators through ``expm(A t)``
        (scalar and batched).
    peak_evals:
        Scalar peak evaluations (step-up or general engine).
    batch_calls / batch_candidates:
        Batched peak-row calls and the total candidate rows priced through
        them (every batch size is on the ``engine.batch_size`` histogram).
    eigen_cache_hits / eigen_cache_misses:
        Eigendecompositions served by the process-shared eigenbasis cache
        vs. computed from scratch (:mod:`repro.util.eigcache`).
    phase_seconds:
        Wall time per named solver phase (``choose_m``, ``tpt``, ...).
    """

    steady_state_solves: int = 0
    steady_state_cache_hits: int = 0
    steady_state_batch_rows: int = 0
    expm_applications: int = 0
    peak_evals: int = 0
    batch_calls: int = 0
    batch_candidates: int = 0
    eigen_cache_hits: int = 0
    eigen_cache_misses: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of steady-state requests served from the LRU."""
        total = self.steady_state_solves + self.steady_state_cache_hits
        return self.steady_state_cache_hits / total if total else 0.0

    @property
    def eigen_cache_hit_rate(self) -> float:
        """Fraction of eigendecompositions served by the shared cache."""
        total = self.eigen_cache_hits + self.eigen_cache_misses
        return self.eigen_cache_hits / total if total else 0.0

    @property
    def mean_batch(self) -> float:
        """Average candidates per batched call."""
        return self.batch_candidates / self.batch_calls if self.batch_calls else 0.0

    def summary_line(self) -> str:
        """One-line digest for :meth:`SchedulerResult.summary`."""
        return (
            f"ss_solves={self.steady_state_solves} "
            f"(hit rate {self.cache_hit_rate:.0%}), "
            f"expm={self.expm_applications}, "
            f"peak_evals={self.peak_evals}, "
            f"batches={self.batch_calls}x~{self.mean_batch:.0f}"
        )

    def format(self) -> str:
        """Multi-line report including the per-phase wall-time breakdown."""
        lines = [
            "engine stats:",
            f"  steady-state solves : {self.steady_state_solves} "
            f"(+{self.steady_state_cache_hits} cached, "
            f"hit rate {self.cache_hit_rate:.0%}, "
            f"batch rows {self.steady_state_batch_rows})",
            f"  expm applications   : {self.expm_applications}",
            f"  peak evaluations    : {self.peak_evals} scalar, "
            f"{self.batch_calls} batched "
            f"({self.batch_candidates} candidates)",
        ]
        if self.eigen_cache_hits or self.eigen_cache_misses:
            lines.append(
                f"  eigenbasis cache    : {self.eigen_cache_hits} hits, "
                f"{self.eigen_cache_misses} misses "
                f"(hit rate {self.eigen_cache_hit_rate:.0%})"
            )
        if self.phase_seconds:
            total = sum(self.phase_seconds.values())
            lines.append(f"  phases ({total * 1e3:.1f} ms total):")
            for name, secs in self.phase_seconds.items():
                lines.append(f"    {name:<18s} {secs * 1e3:8.1f} ms")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dump of every counter (the journal row's ``stats``)."""
        doc: dict[str, Any] = {f: getattr(self, f) for f, _ in COUNTERS}
        doc["cache_hit_rate"] = self.cache_hit_rate
        doc["phase_seconds"] = dict(self.phase_seconds)
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineStats":
        """Rebuild stats from :meth:`as_dict` output.

        Unknown keys are ignored: derived ones (``cache_hit_rate``) and
        the retired expm-cache and largest-batch counters of older
        journal rows, so ``--resume`` and ``repro stats`` keep reading
        them.
        """
        return cls(
            **{f: int(data.get(f, 0)) for f, _ in COUNTERS},
            phase_seconds={
                str(k): float(v)
                for k, v in (data.get("phase_seconds") or {}).items()
            },
        )

    def span_attrs(self) -> dict[str, Any]:
        """The counters as root-span attributes (named by :data:`COUNTERS`)."""
        attrs: dict[str, Any] = {
            attr: getattr(self, f) for f, attr in COUNTERS if attr
        }
        attrs["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return attrs

    def combine(self, other: "EngineStats") -> "EngineStats":
        """Counter-wise sum of two stat spans."""
        phases = dict(self.phase_seconds)
        for name, secs in other.phase_seconds.items():
            phases[name] = phases.get(name, 0.0) + secs
        return EngineStats(
            **{f: getattr(self, f) + getattr(other, f) for f, _ in COUNTERS},
            phase_seconds=phases,
        )

    @classmethod
    def sum(cls, items: "Iterable[EngineStats]") -> "EngineStats":
        """Aggregate many per-unit stat spans into one run-level total."""
        total = cls()
        for item in items:
            total = total.combine(item)
        return total


class ThermalEngine:
    """Instrumented facade over one platform's thermal machinery.

    Parameters
    ----------
    platform:
        The platform whose model, ladder, overhead and threshold the
        engine serves.  The engine adds no state of its own beyond
        counters and a small solver :meth:`memo` — two engines over the
        same platform share the model's caches (and attribute work to
        themselves via checkpoints) but not their memos.
    """

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._peak_evals = 0
        self._batch_calls = 0
        self._batch_candidates = 0
        self._phase_seconds: dict[str, float] = {}
        self._batch_histogram = METRICS.histogram("engine.batch_size")
        self._condition_number: float | None = None
        self._memo: dict[Hashable, tuple[Any, float]] = {}
        self._reused_s = 0.0  # build seconds of every memo hit so far
        self._baseline = self.checkpoint()

    @classmethod
    def ensure(cls, platform_or_engine: "Platform | ThermalEngine") -> "ThermalEngine":
        """Normalize a ``Platform | ThermalEngine`` argument to an engine."""
        if isinstance(platform_or_engine, ThermalEngine):
            return platform_or_engine
        return cls(platform_or_engine)

    # ------------------------------------------------------------------
    # platform delegation
    # ------------------------------------------------------------------

    @property
    def model(self) -> ThermalModel:
        """The bound thermal model."""
        return self.platform.model

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self.platform.n_cores

    @property
    def theta_max(self) -> float:
        """Peak threshold in normalized units (K above ambient)."""
        return self.platform.theta_max

    @property
    def ladder(self):
        """The platform's discrete voltage ladder."""
        return self.platform.ladder

    @property
    def overhead(self):
        """The platform's DVFS transition overhead."""
        return self.platform.overhead

    # ------------------------------------------------------------------
    # steady state
    # ------------------------------------------------------------------

    def steady_state(self, voltages) -> np.ndarray:
        """Node steady state for one voltage vector (LRU-cached)."""
        return self.model.steady_state(voltages)

    def steady_state_cores(self, voltages) -> np.ndarray:
        """Core steady state for one voltage vector (LRU-cached)."""
        return self.model.steady_state_cores(voltages)

    def steady_state_batch(self, voltage_matrix) -> np.ndarray:
        """Core steady states for a ``(batch, n_cores)`` voltage matrix."""
        return self.model.steady_state_batch(voltage_matrix)

    def feasible_constant(self, voltages) -> bool:
        """Whether a constant assignment keeps ``T_inf`` under the threshold."""
        return self.platform.feasible_constant(voltages)

    def condition_number(self) -> float:
        """2-norm condition number of ``G - E_beta`` (cached per engine).

        The effective conductance matrix is what every steady-state and
        stable-status solve factors; its conditioning bounds how much
        the closed-form temperatures can be trusted.  Safety
        certificates record it as a diagnostic
        (:mod:`repro.safety.certificate`).
        """
        if self._condition_number is None:
            self._condition_number = float(np.linalg.cond(self.model.g_eff))
        return self._condition_number

    # ------------------------------------------------------------------
    # peak evaluation — scalar
    # ------------------------------------------------------------------

    def stepup_peak(self, schedule: PeriodicSchedule) -> PeakResult:
        """Theorem-1 stable peak of a step-up schedule."""
        self._peak_evals += 1
        return stepup_peak_temperature(self.model, schedule, check=False)

    def general_peak(self, schedule: PeriodicSchedule, **kwargs) -> PeakResult:
        """MatEx-style stable peak of an arbitrary schedule."""
        self._peak_evals += 1
        return peak_temperature(self.model, schedule, **kwargs)

    # ------------------------------------------------------------------
    # peak evaluation — batched
    # ------------------------------------------------------------------

    def _count_batch(self, k: int) -> None:
        self._batch_calls += 1
        self._batch_candidates += k
        self._batch_histogram.observe(k)

    def stepup_peak_rows(self, rows: Rows) -> PeakRows:
        """Theorem-1 stable peaks of K step-up candidate rows in one pass."""
        self._count_batch(len(rows.z))
        return stepup_peak_rows(self.model, rows)

    def general_peak_rows(self, rows: Rows) -> PeakRows:
        """General stable peaks of K candidate rows in one pass."""
        self._count_batch(len(rows.z))
        return peak_rows(self.model, rows)

    # ------------------------------------------------------------------
    # solver memo
    # ------------------------------------------------------------------

    def memo(self, key: Hashable, build: Callable[[], Any]) -> tuple[Any, bool]:
        """``build()``'s value for ``key``, computed once per engine.

        Returns ``(value, reused)``.  The key must pin every input of
        ``build`` besides the platform, which is fixed per engine.  The
        memo keeps the last :data:`MEMO_SIZE` values; a ``build`` that
        raises stores nothing.  Callers share the stored value, so each
        copies what it may change.  Work done by ``build`` is counted
        once, in the counters of the call that missed; its wall time is
        added to the ``runtime_s`` of every solve that hits
        (:func:`engine_entrypoint`).
        """
        if key in self._memo:
            value, build_s = self._memo[key]
            self._reused_s += build_s
            return value, True
        t0 = time.perf_counter()
        value = build()
        self._memo[key] = (value, time.perf_counter() - t0)
        if len(self._memo) > MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        return value, False

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Trace one named solver phase (``"ao/choose_m"``, ...).

        Opens an :func:`repro.obs.span` of the same name (a no-op while
        tracing is disabled) and accumulates the wall time into the
        ``phase_seconds`` counter of :class:`EngineStats`, which
        :meth:`stats_since` reports per run.
        """
        with obs_span(name):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - t0
                self._phase_seconds[name] = (
                    self._phase_seconds.get(name, 0.0) + elapsed
                )

    def checkpoint(self) -> EngineStats:
        """Running counter totals (pass to :meth:`stats_since`)."""
        model = self.model
        # Reading the eigendecomposition's counters must not force the
        # O(n^3) decomposition; absent means zero applications so far.
        eigen = model.__dict__.get("eigen")
        return EngineStats(
            steady_state_solves=model.ss_solves,
            steady_state_cache_hits=model.ss_cache_hits,
            steady_state_batch_rows=model.ss_batch_rows,
            expm_applications=eigen.expm_applications if eigen else 0,
            peak_evals=self._peak_evals,
            batch_calls=self._batch_calls,
            batch_candidates=self._batch_candidates,
            eigen_cache_hits=model.eig_cache_hits,
            eigen_cache_misses=model.eig_cache_misses,
            phase_seconds=dict(self._phase_seconds),
        )

    def stats_since(self, checkpoint: EngineStats) -> EngineStats:
        """Counter deltas accumulated since ``checkpoint``.

        Only phases that ran since ``checkpoint`` are kept.
        """
        now = self.checkpoint()
        phases = {}
        for name, secs in now.phase_seconds.items():
            delta = secs - checkpoint.phase_seconds.get(name, 0.0)
            if delta > 0.0:
                phases[name] = delta
        return EngineStats(
            **{f: getattr(now, f) - getattr(checkpoint, f) for f, _ in COUNTERS},
            phase_seconds=phases,
        )

    def stats(self) -> EngineStats:
        """Counters accumulated since engine creation (or :meth:`reset_stats`)."""
        return self.stats_since(self._baseline)

    def reset_stats(self) -> None:
        """Re-zero :meth:`stats` (checkpoints taken earlier stay valid)."""
        self._phase_seconds = {}
        self._baseline = self.checkpoint()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ThermalEngine({self.n_cores} cores, "
            f"{len(self.platform.ladder)} levels, "
            f"T_max={self.platform.t_max_c} C)"
        )
