"""Process-wide, content-keyed memo of eigenbasis factors.

Every :class:`~repro.thermal.model.ThermalModel` pays one O(n^3)
symmetric eigendecomposition when its ``eigen`` property first resolves.
Sweeps and served requests construct the *same* platforms over and over
— one fresh model per work unit or engine — so this module memoizes the
factors ``(lam, W, W^{-1})`` in an in-process dict behind a content hash
of the system matrix.  Worker processes forked from a warm parent
inherit it.

Keys cover the full float64 bytes of ``A`` (and ``c_diag``), so two
platforms share an entry only when their thermal systems are bitwise
identical — which is exactly the case for the comparison grid, where
cells differ in ``n_levels`` / ``t_max_c`` but share the RC network.
The memo cannot serve a stale result by construction.

Hits and misses are counted in :data:`repro.obs.METRICS` (``eigcache.*``)
and per-model (:attr:`ThermalModel.eig_cache_hits`), from where they flow
into :class:`~repro.engine.EngineStats` and journal rows so ``repro
stats`` can aggregate one truthful hit rate per run via
``EngineStats.combine``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.obs import METRICS
from repro.util.linalg import EigenExpm

__all__ = [
    "eigen_cache_key",
    "shared_eigen",
    "clear_memory_cache",
]

#: In-process layer: key -> factor dict (read-only arrays).
_MEMORY: dict[str, dict[str, np.ndarray]] = {}

#: Bound on the in-process layer; platforms are small and sweeps touch a
#: handful of them, so this is a leak guard, not a working-set limit.
MEMORY_CACHE_SIZE = 256


def eigen_cache_key(a: np.ndarray, c_diag: np.ndarray) -> str:
    """Content hash identifying one system matrix and its C diagonal."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(c_diag, dtype=float).tobytes())
    return h.hexdigest()[:32]


def clear_memory_cache() -> None:
    """Drop every memoized decomposition (tests)."""
    _MEMORY.clear()


def _remember(key: str, factors: dict[str, np.ndarray]) -> None:
    for arr in factors.values():
        arr.setflags(write=False)
    if len(_MEMORY) >= MEMORY_CACHE_SIZE:
        _MEMORY.pop(next(iter(_MEMORY)))
    _MEMORY[key] = factors


def shared_eigen(a: np.ndarray, c_diag: np.ndarray) -> tuple[EigenExpm, str]:
    """Resolve the eigendecomposition of ``a`` through the memo.

    Returns ``(eigen, origin)`` with ``origin`` either ``"memory"`` or
    ``"miss"``.  The returned :class:`EigenExpm` is a fresh instance (own
    counters) wrapping possibly shared read-only factor arrays.
    """
    a = np.asarray(a, dtype=float)
    key = eigen_cache_key(a, c_diag)

    factors = _MEMORY.get(key)
    if factors is not None:
        METRICS.counter("eigcache.memory_hits").inc()
        return EigenExpm.from_factors(**factors), "memory"

    METRICS.counter("eigcache.misses").inc()
    eigen = EigenExpm(a, c_diag=c_diag)
    factors = {name: np.array(arr) for name, arr in eigen.factors().items()}
    _remember(key, factors)
    return eigen, "miss"
