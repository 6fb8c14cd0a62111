"""Canonical JSON: the one encoding behind every content hash.

Work-unit ids (:mod:`repro.runner.units`), schedule-cache keys
(:mod:`repro.service.cache`) and platform memo keys
(:meth:`repro.platforms.PlatformSpec.canonical`) all hash this string, so
equal documents give equal keys in any process.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["canonical_json"]


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
