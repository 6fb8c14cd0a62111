"""Session-scoped service core: shared engines, cached guarded solves.

A :class:`SchedulerSession` is the long-lived object the serving layer
(and every in-process consumer) routes thermal work through.  It owns:

* one :class:`~repro.engine.ThermalEngine` per platform content hash,
  LRU-bounded (:data:`MAX_ENGINES`, 32), so repeated requests for the
  same physics share the model's steady-state and eigenbasis caches and
  the engine's solver memo instead of rebuilding them per call: a PCO
  solve reuses the AO core (ideal speeds, m scan, TPT loop) an earlier
  AO solve on the same platform built, as long as the engine is still
  in the LRU.  Eviction costs only that reuse, never an answer;
* an in-process, content-addressed
  :class:`~repro.service.cache.ScheduleCache` mapping
  ``(platform, solver, params, tolerance)`` to finished solve outcomes —
  a warm repeat request never touches the solver at all;
* per-request stats attribution: every solve checkpoints its engine
  first (:meth:`~repro.engine.ThermalEngine.checkpoint` /
  ``stats_since``), so coalesced requests sharing one engine never
  double-count each other's cache hits.

The session's **only** solve entry point is
:func:`~repro.algorithms.registry.guarded_solve` — every outcome leaving
it either carries an accepted
:class:`~repro.safety.certificate.SafetyCertificate` or an explicit
fallback record in ``result.details["fallback"]`` (or is an honest
``"infeasible"``).  Cached outcomes are the wire documents of the
original solve, certificate included.  A hit is answered from that
document as it is stored: its response is a copy with fresh containers,
and its live result is decoded only when a caller reads it.

:func:`default_session` is the process-wide singleton shared by
``repro.api.evaluate``, the CLI's solve and certify commands and the
runner's units (which borrow its engines; sweeps solve through
``guarded_solve`` directly, not through the schedule cache).  It is
rebuilt per process, so forked workers get their own engine LRU while
still inheriting the warm in-process eigenbasis cache.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.algorithms.registry import SolverSpec, get_solver, guarded_solve
from repro.api import evaluate_rows
from repro.engine import EngineStats, ThermalEngine
from repro.errors import InfeasibleError
from repro.obs import METRICS, span
from repro.platform import Platform
from repro.platforms import PlatformSpec
from repro.safety.certificate import certify_grid
from repro.schedule.serialization import _fresh, result_from_dict, result_to_dict
from repro.service.cache import (
    ScheduleCache,
    platform_hash,
    schedule_cache_key,
)

__all__ = [
    "SchedulerSession",
    "SolveOutcome",
    "default_session",
    "reset_default_session",
]

#: Bound on the per-platform engine LRU.  An engine pins its thermal
#: model, steady-state LRU and solver memo (the AO core PCO reuses).
#: Measured with tracemalloc after a five-solver pass: 10-73 KB per
#: engine, freed on eviction; 0.66 MB for all 22 ``solve-cold`` platform
#: classes; 4-8 KB for a served fresh-key miss.  So 32 engines hold about
#: 2.3 MB, beside the process's eigenbasis memo of up to 256
#: decompositions.  The worst case is a full steady-state LRU
#: (``SS_CACHE_SIZE`` entries): 1.3-2.4 MB per 2- to 9-core paper
#: platform, 42-78 MB for 32 engines.  A bound of 8 evicts most
#: ``solve-cold`` engines before their platform comes back (235 built for
#: 66 platforms), and each PCO on a rebuilt engine re-runs AO's TPT loop.
MAX_ENGINES = 32

#: Bound on canonical-spec -> platform-hash memoization (strings only).
_SPEC_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SolveOutcome:
    """One served solve: status, result, provenance.

    Attributes
    ----------
    status:
        ``"ok"`` or ``"infeasible"`` — an
        :class:`~repro.errors.InfeasibleError` is an answer the session
        caches like any other, not a failure.
    detail:
        The infeasibility message when ``status == "infeasible"``.
    cached:
        Whether this outcome was served from the schedule cache.
    platform_key / cache_key:
        The content hashes the request resolved to.
    stats:
        Thermal-work counters attributed to *this request only* (zero
        for cache hits — no thermal work ran).

    The outcome keeps the result's wire document, the one the schedule
    cache stores.  :attr:`result` is the live result of a fresh solve;
    a cache hit decodes it from the document on first read, a copy of
    its own, so schedule, certificate and details round-trip
    bit-for-bit (JSON float round-tripping is exact for float64).
    """

    status: str
    _doc: dict[str, Any] | None = field(default=None, repr=False)
    detail: str | None = None
    cached: bool = False
    platform_key: str = ""
    cache_key: str | None = None
    stats: EngineStats | None = None
    _result: Any = field(default=None, repr=False, compare=False)

    @property
    def result(self):
        """The :class:`~repro.algorithms.base.SchedulerResult` (``None``
        when infeasible)."""
        if self._result is None and self._doc is not None:
            object.__setattr__(self, "_result", result_from_dict(self._doc))
        return self._result

    @property
    def certificate(self):
        """The result's safety certificate (``None`` when infeasible)."""
        return self.result.certificate if self.result is not None else None

    def as_doc(self) -> dict[str, Any]:
        """JSON wire form (the server's response body for solve ops).

        Copied from the stored wire document with fresh containers, so
        a caller mutating one response never reaches the cache or any
        other response, and a hit decodes nothing.
        """
        doc = self._doc
        cert = doc.get("certificate") if doc is not None else None
        return {
            "status": self.status,
            "result": _fresh(doc) if doc is not None else None,
            "detail": self.detail,
            "cached": self.cached,
            "platform": self.platform_key,
            "cache_key": self.cache_key,
            "certificate": _fresh(cert) if cert is not None else None,
            "stats": self.stats.as_dict() if self.stats is not None else None,
        }


class _KeyedSolve(NamedTuple):
    """A validated solve request with its platform and cache keys."""

    platform: Any
    spec: SolverSpec
    params: dict[str, Any]
    resolved: tuple[str, Platform | None, Any]
    cache_key: str
    certify_tolerance: float | None
    margin_policy: str | None


class SchedulerSession:
    """Long-lived service core owning engines and the schedule cache."""

    def __init__(self) -> None:
        self.cache = ScheduleCache()
        self._engines: OrderedDict[str, ThermalEngine] = OrderedDict()
        self._spec_memo: OrderedDict[str, str] = OrderedDict()
        self.requests = 0
        self.solve_requests = 0
        self.evaluate_requests = 0
        self.certify_requests = 0
        self.cache_hits = 0
        self.engines_built = 0
        self.engines_evicted = 0

    # ------------------------------------------------------------------
    # platform & engine resolution
    # ------------------------------------------------------------------

    def _resolve(
        self, platform: "Platform | ThermalEngine | Mapping[str, Any] | str"
    ) -> tuple[str, Platform | None, Any]:
        """``(platform_key, platform_or_None, spec_or_None)`` for any form.

        Spec forms — a preset name, a
        :class:`~repro.platforms.PlatformSpec`, a spec document or a
        legacy flat dict — coerce silently through the spec registry; a
        spec whose canonical form was seen before resolves to its hash
        without rebuilding the platform, so a warm request's platform
        key costs one canonical-JSON encoding of the spec and one memo
        lookup.
        """
        if isinstance(platform, ThermalEngine):
            return platform_hash(platform.platform), platform.platform, None
        if isinstance(platform, Platform):
            return platform_hash(platform), platform, None
        spec = PlatformSpec.coerce(platform)
        cjson = spec.canonical()
        key = self._spec_memo.get(cjson)
        if key is not None:
            self._spec_memo.move_to_end(cjson)
            return key, None, spec
        built = spec.build()
        key = platform_hash(built)
        while len(self._spec_memo) >= _SPEC_MEMO_SIZE:
            self._spec_memo.popitem(last=False)
        self._spec_memo[cjson] = key
        return key, built, spec

    def platform_key(
        self, platform: "Platform | ThermalEngine | Mapping[str, Any] | str"
    ) -> str:
        """The content hash a platform (or any spec form) resolves to."""
        return self._resolve(platform)[0]

    def engine_for(
        self, platform: "Platform | ThermalEngine | Mapping[str, Any] | str"
    ) -> ThermalEngine:
        """The session's shared engine for this platform content (LRU).

        Accepts a built :class:`Platform`, an existing engine (adopted
        under its content hash so later spec-form requests share it), or
        any :meth:`PlatformSpec.coerce
        <repro.platforms.PlatformSpec.coerce>` form — a preset name, a
        spec, a spec document or a legacy flat dict.
        """
        return self._engine(platform, *self._resolve(platform))

    def _engine(
        self, platform, key: str, built: Platform | None, spec: Any
    ) -> ThermalEngine:
        """:meth:`engine_for` once ``platform`` has been :meth:`_resolve`-d.

        A spec resolved for the first time arrives with the platform it
        was hashed from, so a new engine reuses that build.
        """
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            return engine
        if isinstance(platform, ThermalEngine):
            engine = platform
        else:
            if built is None:
                built = spec.build()
            engine = ThermalEngine(built)
        while len(self._engines) >= MAX_ENGINES:
            self._engines.popitem(last=False)
            self.engines_evicted += 1
            METRICS.counter("service.engines_evicted").inc()
        self._engines[key] = engine
        self.engines_built += 1
        return engine

    @property
    def n_engines(self) -> int:
        return len(self._engines)

    # ------------------------------------------------------------------
    # solve — the only path is guarded_solve
    # ------------------------------------------------------------------

    def solve(
        self,
        platform: "Platform | ThermalEngine | Mapping[str, Any] | str",
        solver,
        params: Mapping[str, Any] | None = None,
        *,
        certify_tolerance: float | None = None,
        margin_policy: str | None = None,
    ) -> SolveOutcome:
        """One guarded, certified, cached solve request.

        Unknown parameter names raise
        :class:`~repro.errors.SolverError` before anything is counted
        or cached (the :meth:`SolverSpec.check_params
        <repro.algorithms.registry.SolverSpec.check_params>` that
        ``guarded_solve`` runs too).  ``margin_policy`` is part
        of the cache key: a shrink-policy result is never served for a
        plain request or vice versa.  A caller who wants a fresh solve
        of a cached key uses a fresh session.
        """
        return self._solve_keyed(
            self._keyed(
                platform, solver, params, certify_tolerance, margin_policy
            )
        )

    def _keyed(
        self,
        platform: "Platform | ThermalEngine | Mapping[str, Any] | str",
        solver,
        params: Mapping[str, Any] | None,
        certify_tolerance: float | None = None,
        margin_policy: str | None = None,
    ) -> _KeyedSolve:
        """Validate one solve request and derive its keys, once.

        The coalescer deduplicates concurrent requests on the returned
        cache key and serves each distinct one through
        :meth:`_solve_keyed`, so no served solve derives a key twice.
        """
        spec = solver if hasattr(solver, "params") else get_solver(str(solver))
        params = dict(params or {})
        spec.check_params(params)
        resolved = self._resolve(platform)
        cache_key = schedule_cache_key(
            resolved[0], spec.name, params, certify_tolerance, margin_policy
        )
        return _KeyedSolve(
            platform, spec, params, resolved, cache_key,
            certify_tolerance, margin_policy,
        )

    def _solve_keyed(self, request: _KeyedSolve) -> SolveOutcome:
        """The body of :meth:`solve` for a request :meth:`_keyed` built."""
        self.requests += 1
        self.solve_requests += 1
        METRICS.counter("service.requests").inc()

        key, built, platform_spec = request.resolved
        cache_key = request.cache_key
        value = self.cache.get(cache_key)
        if value is not None:
            self.cache_hits += 1
            METRICS.counter("service.cache_hits").inc()
            return SolveOutcome(
                value["status"], value["result"], value["detail"],
                cached=True, platform_key=key, cache_key=cache_key,
            )

        spec = request.spec
        engine = self._engine(request.platform, key, built, platform_spec)
        mark = engine.checkpoint()
        t0 = time.perf_counter()
        with span(
            "service/solve", solver=spec.name, platform=key[:8]
        ):
            try:
                result = guarded_solve(
                    spec, engine,
                    certify_tolerance=request.certify_tolerance,
                    margin_policy=request.margin_policy, **request.params,
                )
            except InfeasibleError as exc:
                status, result, detail = "infeasible", None, str(exc)
            else:
                status, detail = "ok", None
        stats = engine.stats_since(mark)
        METRICS.histogram("service.solve_seconds").observe(
            time.perf_counter() - t0
        )
        doc = result_to_dict(result) if result is not None else None
        self.cache.put(
            cache_key, {"status": status, "result": doc, "detail": detail}
        )
        return SolveOutcome(
            status, doc, detail,
            cached=False,
            platform_key=key,
            cache_key=cache_key,
            stats=stats,
            _result=result,
        )

    # ------------------------------------------------------------------
    # evaluate / certify — scalar and grid-batched forms
    # ------------------------------------------------------------------

    def evaluate(
        self,
        platform: "Platform | ThermalEngine | Mapping[str, Any]",
        schedule,
        general: bool = True,
        grid_per_interval: int | None = None,
    ):
        """Price one schedule on the session's shared engine."""
        self.requests += 1
        self.evaluate_requests += 1
        METRICS.counter("service.requests").inc()
        engine = self.engine_for(platform)
        with span("service/evaluate", platform=self.platform_key(engine)[:8]):
            return evaluate_rows(
                [(engine, schedule)], general, grid_per_interval
            )[0]

    def evaluate_many(
        self,
        items: Sequence[tuple[Any, Any]],
        general: bool = True,
        grid_per_interval: int | None = None,
    ) -> list:
        """Price R ``(platform, schedule)`` rows in one grid-kernel call.

        Each row equals :func:`repro.api.evaluate` of it alone when no
        other row shares its platform (the grid kernels group rows by
        model).
        """
        items = list(items)
        self.requests += len(items)
        self.evaluate_requests += len(items)
        METRICS.counter("service.requests").inc(len(items))
        if not items:
            return []
        rows = [(self.engine_for(p), s) for p, s in items]
        with span("service/evaluate_grid", rows=len(items)):
            return evaluate_rows(rows, general, grid_per_interval)

    def certify_schedule(
        self,
        platform: "Platform | ThermalEngine | Mapping[str, Any]",
        schedule,
        claims: Mapping[str, Any] | None = None,
        *,
        tolerance: float | None = None,
    ):
        """Independently certify one schedule on the shared engine."""
        return self.certify_many(
            [(platform, schedule, dict(claims or {}))], tolerance=tolerance
        )[0]

    def certify_many(
        self,
        items: Sequence[tuple],
        *,
        tolerance: float | None = None,
    ) -> list:
        """Certify many ``(platform, schedule[, claims])`` rows in one
        :func:`~repro.safety.certificate.certify_grid` call."""
        items = list(items)
        self.requests += len(items)
        self.certify_requests += len(items)
        METRICS.counter("service.requests").inc(len(items))
        if not items:
            return []
        prepared = []
        for item in items:
            engine = self.engine_for(item[0])
            claims = dict(item[2]) if len(item) > 2 else {}
            prepared.append((engine, item[1], claims))
        kwargs = {} if tolerance is None else {"tolerance": float(tolerance)}
        with span("service/certify_grid", rows=len(items)):
            return certify_grid(prepared, **kwargs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for the server's ``stats`` op and journaled metrics."""
        return {
            "requests": self.requests,
            "solve_requests": self.solve_requests,
            "evaluate_requests": self.evaluate_requests,
            "certify_requests": self.certify_requests,
            "cache_hits": self.cache_hits,
            "engines": self.n_engines,
            "engines_built": self.engines_built,
            "engines_evicted": self.engines_evicted,
            "cache": self.cache.stats(),
        }


#: Process-wide default session, rebuilt per pid so forked workers get
#: their own engine LRU (they still inherit the warm eigenbasis cache).
_DEFAULT: tuple[int, SchedulerSession] | None = None


def default_session() -> SchedulerSession:
    """The process-wide :class:`SchedulerSession` shared by api/CLI/runner."""
    global _DEFAULT
    pid = os.getpid()
    if _DEFAULT is None or _DEFAULT[0] != pid:
        _DEFAULT = (pid, SchedulerSession())
    return _DEFAULT[1]


def reset_default_session() -> None:
    """Drop the process-wide session (tests, cache-isolation boundaries)."""
    global _DEFAULT
    _DEFAULT = None
