"""Content-addressed schedule cache: ``(platform, solver, params) -> result``.

The serving layer answers the same question over and over — *what
schedule should this platform run?* — and the answer is fully determined
by the platform's thermal/power content, the solver, and its parameters.
This module memoizes :func:`~repro.algorithms.registry.guarded_solve`
outcomes behind a content hash, in two layers:

* an **in-process LRU** of :data:`MEMORY_SIZE` entries — hits are dict
  lookups, and worker processes forked from a warm parent inherit it;
* an **opt-in on-disk directory** — one JSON document per key, written
  atomically (temp file + ``os.replace``) so concurrent sessions and
  sharded-runner workers deduplicate solves across process boundaries.
  The values are *results*, so the layer is opt-in
  (``REPRO_SCHEDULE_CACHE_DIR``) and every document embeds its key and
  format version — a stale or foreign file degrades to a miss.

Keys are built from :func:`platform_hash` — a sha256 over the thermal
system matrix, heat-capacity diagonal, core-node map, power-model type
and coefficients (scalar and per-core heterogeneous alike), the mode
ladder, transition overhead and threshold — combined with the solver
name, its canonicalized parameters and the certification tolerance via
the :func:`~repro.util.canonical.canonical_json` discipline.  Two
platforms share entries only when their physics is bitwise identical.

Configuration (environment): ``REPRO_SCHEDULE_CACHE_DIR`` enables the
shared disk layer rooted at the given directory.

Hits, misses and writes are counted in :data:`repro.obs.METRICS` under
``service.cache_*`` and per-instance (:meth:`ScheduleCache.stats`), from
where ``repro stats`` and the server's ``stats`` op surface them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.obs import METRICS
from repro.platform import Platform
from repro.util.canonical import canonical_json

__all__ = [
    "CACHE_FORMAT",
    "ScheduleCache",
    "platform_hash",
    "schedule_cache_key",
    "schedule_cache_dir",
]

#: Version stamp baked into every key and disk document.  Bump it when
#: the solve path changes in a way that invalidates cached outcomes
#: (solver semantics, certificate checks, result wire format).
CACHE_FORMAT = 1

#: Bound on the in-process layer (least-recently-used entry evicted).
#: Outcome documents are small (a schedule plus a certificate), so this
#: is a working-set bound, not a leak guard.
MEMORY_SIZE = 1024

#: Power-model coefficients that define the platform's physics; scalar
#: for :class:`~repro.power.model.PowerModel`, per-core arrays for the
#: heterogeneous variant — both hash through the same float bytes.
_POWER_FIELDS = ("alpha_lin", "gamma", "beta", "v_min", "v_max")


def platform_hash(platform) -> str:
    """Content hash identifying one platform's full physics (32 hex chars).

    Covers everything a solve outcome depends on: the thermal system
    matrix ``A`` and capacitance diagonal, which cores sit where in the
    RC network, the power model (its type plus every coefficient, so a
    big.LITTLE platform never collides with its homogeneous base),
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


def _canonical_value(value: Any) -> Any:
    """Normalize one parameter value into a canonical JSON-able form."""
    if isinstance(value, np.ndarray):
        return [_canonical_value(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


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
    Python scalars) so spelling differences do not split the cache, and
    *any* parameter change — including the certification tolerance and
    the margin policy — yields a different key.  ``margin_policy=None``
    and ``"off"`` hash identically (they request the same solve).
    """
    doc = {
        "format": CACHE_FORMAT,
        "platform": str(platform_key),
        "solver": str(solver),
        "params": _canonical_value(dict(params or {})),
        "certify_tolerance": certify_tolerance,
    }
    if margin_policy not in (None, "off"):
        doc["margin_policy"] = str(margin_policy)
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:32]


def schedule_cache_dir() -> Path | None:
    """The shared disk directory, or ``None`` (the layer is opt-in)."""
    override = os.environ.get("REPRO_SCHEDULE_CACHE_DIR", "").strip()
    if override:
        return Path(override)
    return None


class ScheduleCache:
    """Two-layer (memory LRU + optional atomic disk) outcome cache.

    Parameters
    ----------
    directory:
        Disk-layer root.  A path pins it explicitly; ``None`` (default)
        reads ``REPRO_SCHEDULE_CACHE_DIR`` at construction time, and with
        that variable unset the cache is memory-only.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else schedule_cache_dir()
        )
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-process layer (tests; the disk layer is content-keyed)."""
        self._memory.clear()

    def _remember(self, key: str, doc: dict[str, Any]) -> None:
        if key in self._memory:
            self._memory.move_to_end(key)
            return
        while len(self._memory) >= MEMORY_SIZE:
            self._memory.popitem(last=False)
        self._memory[key] = doc

    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def _load_disk(self, key: str) -> dict[str, Any] | None:
        """Load one disk document, verifying key and format.

        Any failure — missing file, torn write from a dead process, a
        key or format mismatch — degrades to a miss, never an error.
        """
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            wrapper = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(wrapper, dict)
            or wrapper.get("format") != CACHE_FORMAT
            or wrapper.get("key") != key
            or not isinstance(wrapper.get("outcome"), dict)
        ):
            return None
        return wrapper["outcome"]

    def _store_disk(self, key: str, doc: dict[str, Any]) -> None:
        """Atomic write: temp file in the same directory, then ``os.replace``."""
        path = self._disk_path(key)
        if path is None:
            return
        wrapper = {"format": CACHE_FORMAT, "key": key, "outcome": doc}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=key, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(wrapper, fh, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # A read-only or full cache directory must never fail a solve.
            METRICS.counter("service.cache_disk_write_errors").inc()

    def get(self, key: str) -> dict[str, Any] | None:
        """Look one outcome document up (memory first, then disk)."""
        doc = self._memory.get(key)
        if doc is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            METRICS.counter("service.cache_memory_hits").inc()
            return doc
        doc = self._load_disk(key)
        if doc is not None:
            self.disk_hits += 1
            METRICS.counter("service.cache_disk_hits").inc()
            self._remember(key, doc)
            return doc
        self.misses += 1
        METRICS.counter("service.cache_misses").inc()
        return None

    def put(self, key: str, doc: dict[str, Any]) -> None:
        """Store one outcome document in both layers."""
        self.writes += 1
        METRICS.counter("service.cache_writes").inc()
        self._remember(key, doc)
        self._store_disk(key, doc)

    def stats(self) -> dict[str, Any]:
        """Per-instance counters (the ``stats`` server op embeds them)."""
        hits = self.memory_hits + self.disk_hits
        total = hits + self.misses
        return {
            "entries": len(self._memory),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": hits / total if total else 0.0,
            "directory": str(self.directory) if self.directory else None,
        }
