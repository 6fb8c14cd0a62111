"""Request coalescing: concurrent service requests become grid calls.

The serving layer's asyncio front-end accepts requests one connection at
a time, but the thermal machinery is at its best amortized: the grid
kernels price a whole ``(platform x schedule)`` set with one batch call
per platform, and identical solve requests are pure duplicates of
one cached answer.  :class:`RequestCoalescer` sits between the two —
requests submitted while the loop is busy accumulate in a queue, and the
drain pass executes each batch with the work regrouped:

* **solve** requests deduplicate by schedule-cache key: N identical
  concurrent requests run :func:`~repro.algorithms.registry.guarded_solve`
  once and share the outcome (each response reports the group size in
  ``coalesced``); distinct keys run through the session sequentially,
  still sharing its engines and cache.  Each request's platform and
  cache keys are derived once, for the dedup, and the session's solve
  body reuses them; a cache hit is answered from the stored wire
  document without decoding it.
* **evaluate** requests with the same pricing knobs collapse into one
  :func:`~repro.thermal.grid.peak_temperature_grid` call via
  :meth:`~repro.service.session.SchedulerSession.evaluate_many` — the
  grid kernels take heterogeneous platforms, so one batch spans them.
* **certify** requests with the same tolerance collapse into one
  :func:`~repro.safety.certificate.certify_grid` call.

Results are **identical** to sequential execution — the grid kernels
carry a committed 1e-9 scalar-parity bound and solve deduplication
returns the response of the single execution to every member; the
correctness tests in ``tests/test_service.py`` pin both, including
rejected-certificate fallback paths.

Batch shapes are observed on the ``service.coalesced_batch`` histogram,
with ``service.coalesced_batches`` / ``service.coalesced_requests``
counting multi-request groups — the numbers ``repro stats`` surfaces
for journaled serve sessions.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.obs import METRICS, span
from repro.schedule.serialization import _fresh, schedule_from_dict
from repro.service.session import SchedulerSession

__all__ = ["RequestCoalescer"]

#: Largest group drained in one pass; the rest of the queue carries over.
MAX_BATCH = 256


def _error_doc(exc: BaseException) -> dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class RequestCoalescer:
    """Batch concurrent solve/evaluate/certify requests for one session."""

    def __init__(self, session: SchedulerSession) -> None:
        self.session = session
        self._queue: list[tuple[dict[str, Any], asyncio.Future]] = []
        self._drain_task: asyncio.Task | None = None
        self.batches = 0
        self.coalesced_batches = 0
        self.coalesced_requests = 0
        self.largest_batch = 0

    async def submit(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Enqueue one request document; resolves to its response document.

        Requests submitted in the same event-loop tick (concurrent
        connections, pipelined lines on one connection) land in the same
        drain batch — no artificial delay is added, batching is purely
        what concurrency provides.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queue.append((dict(request), future))
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = loop.create_task(self._drain())
        return await future

    async def _drain(self) -> None:
        while self._queue:
            # One tick lets every already-scheduled submit enqueue, so
            # a gather() of N requests drains as one batch.
            await asyncio.sleep(0)
            batch = self._queue[:MAX_BATCH]
            del self._queue[: len(batch)]
            self.batches += 1
            self._execute(batch)

    # ------------------------------------------------------------------
    # synchronous batch execution (the work is CPU-bound numpy)
    # ------------------------------------------------------------------

    def _observe_group(self, size: int) -> None:
        METRICS.histogram("service.coalesced_batch").observe(size)
        self.largest_batch = max(self.largest_batch, size)
        if size > 1:
            self.coalesced_batches += 1
            self.coalesced_requests += size
            METRICS.counter("service.coalesced_batches").inc()
            METRICS.counter("service.coalesced_requests").inc(size)

    def _execute(self, batch: list[tuple[dict[str, Any], asyncio.Future]]) -> None:
        groups: dict[str, list[tuple[dict[str, Any], asyncio.Future]]] = {}
        for request, future in batch:
            if future.cancelled():
                continue
            op = str(request.get("op", ""))
            if op in ("solve", "evaluate", "certify"):
                groups.setdefault(op, []).append((request, future))
            else:
                future.set_result(
                    _error_doc(ValueError(f"unknown op {op!r}"))
                )
        with span("service/coalesce", requests=len(batch)):
            if "solve" in groups:
                self._execute_solves(groups["solve"])
            if "evaluate" in groups:
                self._execute_evaluates(groups["evaluate"])
            if "certify" in groups:
                self._execute_certifies(groups["certify"])

    def _execute_solves(
        self, entries: list[tuple[dict[str, Any], asyncio.Future]]
    ) -> None:
        """Deduplicate by cache key, solve each distinct request once.

        Keys are derived here, once per request; each distinct request
        then runs the session's solve body with the keys it carries.
        """
        session = self.session
        groups: dict[str, tuple[Any, list[asyncio.Future]]] = {}
        for request, future in entries:
            try:
                keyed = session._keyed(
                    request.get("platform") or {},
                    str(request["solver"]),
                    request.get("params") or {},
                    request.get("tolerance"),
                )
            except Exception as exc:  # noqa: BLE001 - per-request error doc
                future.set_result(_error_doc(exc))
                continue
            groups.setdefault(keyed.cache_key, (keyed, []))[1].append(future)

        for keyed, futures in groups.values():
            self._observe_group(len(futures))
            try:
                doc = {
                    "ok": True,
                    "op": "solve",
                    **session._solve_keyed(keyed).as_doc(),
                    "coalesced": len(futures),
                }
            except Exception as exc:  # noqa: BLE001 - per-request error doc
                doc = _error_doc(exc)
            # Each member owns its containers; only further members pay
            # for a copy.
            for n, future in enumerate(futures):
                if not future.cancelled():
                    future.set_result(doc if n == 0 else _fresh(doc))

    def _execute_evaluates(
        self, entries: list[tuple[dict[str, Any], asyncio.Future]]
    ) -> None:
        """Group by pricing knobs; each group is one grid-kernel call."""
        session = self.session
        groups: dict[tuple, list[tuple[dict, asyncio.Future, Any]]] = {}
        for request, future in entries:
            try:
                schedule = schedule_from_dict(request["schedule"])
                knobs = (
                    bool(request.get("general", True)),
                    request.get("grid_per_interval"),
                )
            except Exception as exc:  # noqa: BLE001 - per-request error doc
                future.set_result(_error_doc(exc))
                continue
            groups.setdefault(knobs, []).append((request, future, schedule))

        for (general, grid_per_interval), group in groups.items():
            self._observe_group(len(group))
            try:
                evaluations = session.evaluate_many(
                    [
                        (request.get("platform") or {}, schedule)
                        for request, _, schedule in group
                    ],
                    general=general,
                    grid_per_interval=grid_per_interval,
                )
            except Exception as exc:  # noqa: BLE001 - whole group errors
                for _, future, _ in group:
                    if not future.cancelled():
                        future.set_result(_error_doc(exc))
                continue
            for (_, future, _), ev in zip(group, evaluations):
                if future.cancelled():
                    continue
                future.set_result(
                    {
                        "ok": True,
                        "op": "evaluate",
                        "evaluation": {
                            "peak_theta": ev.peak_theta,
                            "theta_max": ev.theta_max,
                            "feasible": ev.feasible,
                            "throughput": ev.throughput,
                            "t_ambient_c": ev.t_ambient_c,
                        },
                        "coalesced": len(group),
                    }
                )

    def _execute_certifies(
        self, entries: list[tuple[dict[str, Any], asyncio.Future]]
    ) -> None:
        """Group by tolerance; each group is one certify_grid call."""
        session = self.session
        groups: dict[Any, list[tuple[dict, asyncio.Future, Any]]] = {}
        for request, future in entries:
            try:
                schedule = schedule_from_dict(request["schedule"])
            except Exception as exc:  # noqa: BLE001 - per-request error doc
                future.set_result(_error_doc(exc))
                continue
            groups.setdefault(request.get("tolerance"), []).append(
                (request, future, schedule)
            )

        for tolerance, group in groups.items():
            self._observe_group(len(group))
            try:
                certs = session.certify_many(
                    [
                        (
                            request.get("platform") or {},
                            schedule,
                            dict(request.get("claims") or {}),
                        )
                        for request, _, schedule in group
                    ],
                    tolerance=tolerance,
                )
            except Exception as exc:  # noqa: BLE001 - whole group errors
                for _, future, _ in group:
                    if not future.cancelled():
                        future.set_result(_error_doc(exc))
                continue
            for (_, future, _), cert in zip(group, certs):
                if future.cancelled():
                    continue
                future.set_result(
                    {
                        "ok": True,
                        "op": "certify",
                        "certificate": cert.as_dict(),
                        "accepted": cert.accepted,
                        "coalesced": len(group),
                    }
                )

    def stats(self) -> dict[str, Any]:
        """Batch counters for the ``stats`` op and journaled metrics."""
        return {
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_requests": self.coalesced_requests,
            "largest_batch": self.largest_batch,
        }
