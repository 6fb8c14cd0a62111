"""repro.service — the session-scoped scheduling service core.

The serving layer the ROADMAP's "scheduling as a service" item calls
for, extracted so every consumer shares one machinery:

* :class:`~repro.service.session.SchedulerSession` — one
  :class:`~repro.engine.ThermalEngine` per platform content hash
  (LRU-bounded), an in-process, content-addressed
  :class:`~repro.service.cache.ScheduleCache`, and per-request stats
  attribution; its only solve path is
  :func:`~repro.algorithms.registry.guarded_solve`.
* :class:`~repro.service.coalescer.RequestCoalescer` — concurrent
  solve/evaluate/certify requests regrouped into single grid-kernel
  calls (and deduplicated solves).
* :class:`~repro.service.server.ScheduleServer` — the ``repro serve``
  asyncio front-end: newline-delimited JSON over TCP or stdio, with
  optional journaling that makes serve sessions first-class citizens of
  ``repro stats``.

In-process consumers go through
:func:`~repro.service.session.default_session`: ``repro.api.evaluate``,
CLI solve/certify, and the runner's units for their engines.
"""

from repro import _lazy_exports
from repro.service.cache import (
    ScheduleCache,
    platform_hash,
    schedule_cache_key,
)
from repro.service.session import (
    SchedulerSession,
    SolveOutcome,
    default_session,
    reset_default_session,
)

#: The asyncio half, imported on first access (PEP 562) so in-process
#: consumers of the session never load the event loop.
_ASYNC_EXPORTS = {
    "RequestCoalescer": "repro.service.coalescer",
    "ScheduleServer": "repro.service.server",
    "send_requests": "repro.service.server",
}

__all__ = [
    "ScheduleCache",
    "ScheduleServer",
    "SchedulerSession",
    "SolveOutcome",
    "RequestCoalescer",
    "default_session",
    "platform_hash",
    "reset_default_session",
    "schedule_cache_key",
    "send_requests",
]

__getattr__ = _lazy_exports(globals(), _ASYNC_EXPORTS)
