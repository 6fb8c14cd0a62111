"""Content-addressed schedule cache: ``(platform, solver, params) -> result``.

The serving layer answers the same question over and over — *what
schedule should this platform run?* — and the answer is fully determined
by the platform's thermal/power content, the solver, and its parameters.
This module memoizes :func:`~repro.algorithms.registry.guarded_solve`
outcomes behind a content hash, in one in-process LRU of
:data:`MEMORY_SIZE` entries per :class:`~repro.service.session.SchedulerSession`;
a hit is a dict lookup.

Keys are built from :func:`platform_hash` — a sha256 over the thermal
system matrix, heat-capacity diagonal, core-node map, power-model
coefficients (scalar and per-core alike), the mode
ladder, transition overhead and threshold — combined with the solver
name, its canonicalized parameters and the certification tolerance via
the :func:`~repro.util.canonical.canonical_json` discipline.  Two
platforms share entries only when their physics is bitwise identical.

Hits, misses and writes are counted in :data:`repro.obs.METRICS` under
``service.cache_*`` and per-instance (:meth:`ScheduleCache.stats`), from
where ``repro stats`` and the server's ``stats`` op surface them.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from repro.obs import METRICS
from repro.platform import Platform
from repro.schedule.serialization import _jsonable
from repro.util.canonical import canonical_json

__all__ = ["ScheduleCache", "platform_hash", "schedule_cache_key"]

#: Bound on the in-process layer (least-recently-used entry evicted).
#: Outcome documents are small (a schedule plus a certificate), so this
#: is a working-set bound, not a leak guard.
MEMORY_SIZE = 1024

#: Power-model coefficients that define the platform's physics; scalars
#: and per-core arrays of :class:`~repro.power.model.PowerModel` both
#: hash through their float bytes.
_POWER_FIELDS = ("alpha_lin", "gamma", "beta", "v_min", "v_max")


def platform_hash(platform) -> str:
    """Content hash identifying one platform's full physics (32 hex chars).

    Covers everything a solve outcome depends on: the thermal system
    matrix ``A`` and capacitance diagonal, which cores sit where in the
    RC network, every power-model coefficient (a big.LITTLE platform's
    per-core arrays never collide with its homogeneous base's scalars),
    ambient, the voltage ladder, the DVFS transition overhead, and the
    temperature threshold.

    Besides a built :class:`~repro.platform.Platform`, any
    :meth:`PlatformSpec.coerce <repro.platforms.PlatformSpec.coerce>`
    form is accepted — a spec, a preset name, a spec document or a
    legacy flat dict — and is built first, so every description of the
    same physics lands on the same key.
    """
    if not isinstance(platform, Platform):
        from repro.platforms import PlatformSpec

        platform = PlatformSpec.coerce(platform).build()
    model = platform.model
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.a, dtype=float).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(model.c_diag, dtype=float).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(model.network.core_nodes, dtype=np.int64).tobytes())
    h.update(b"|")
    power = model.power
    h.update(type(power).__name__.encode("ascii"))
    for name in _POWER_FIELDS:
        h.update(b"|")
        h.update(
            np.ascontiguousarray(
                np.asarray(getattr(power, name), dtype=float)
            ).tobytes()
        )
    scalars = {
        "t_ambient_c": float(model.t_ambient_c),
        "levels": [float(v) for v in platform.ladder.levels],
        "tau": float(platform.overhead.tau),
        "t_max_c": float(platform.t_max_c),
    }
    h.update(b"|")
    h.update(canonical_json(scalars).encode("utf-8"))
    return h.hexdigest()[:32]


def schedule_cache_key(
    platform_key: str,
    solver: str,
    params: Mapping[str, Any] | None = None,
    certify_tolerance: float | None = None,
    margin_policy: str | None = None,
) -> str:
    """Content key of one solve request (32 hex chars).

    ``platform_key`` is a :func:`platform_hash`; parameters are
    canonicalized (tuples and arrays become lists, numpy scalars become
    Python scalars, dataclasses such as a
    :class:`~repro.safety.faults.FaultSpec` dicts of their fields) so
    spelling differences do not split the cache, and
    *any* parameter change — including the certification tolerance and
    the margin policy — yields a different key.  ``margin_policy=None``
    and ``"off"`` hash identically (they request the same solve).
    """
    doc = {
        "platform": str(platform_key),
        "solver": str(solver),
        "params": _jsonable(dict(params or {})),
        "certify_tolerance": certify_tolerance,
    }
    if margin_policy not in (None, "off"):
        doc["margin_policy"] = str(margin_policy)
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:32]


class ScheduleCache:
    """Bounded in-memory LRU of solve-outcome documents."""

    def __init__(self) -> None:
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.memory_hits = 0
        self.misses = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: str) -> dict[str, Any] | None:
        """Look one outcome document up."""
        doc = self._memory.get(key)
        if doc is None:
            self.misses += 1
            METRICS.counter("service.cache_misses").inc()
            return None
        self._memory.move_to_end(key)
        self.memory_hits += 1
        return doc

    def put(self, key: str, doc: dict[str, Any]) -> None:
        """Store one outcome document, evicting the least recently used."""
        self.writes += 1
        METRICS.counter("service.cache_writes").inc()
        if key in self._memory:
            self._memory.move_to_end(key)
            return
        while len(self._memory) >= MEMORY_SIZE:
            self._memory.popitem(last=False)
        self._memory[key] = doc

    def stats(self) -> dict[str, Any]:
        """Per-instance counters (the ``stats`` server op embeds them)."""
        total = self.memory_hits + self.misses
        return {
            "entries": len(self._memory),
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.memory_hits / total if total else 0.0,
        }
