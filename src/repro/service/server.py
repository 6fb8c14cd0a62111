"""``repro serve`` — newline-delimited-JSON scheduling service.

One request per line, one JSON response per line, over TCP
(``127.0.0.1`` by default, ephemeral port with ``port=0``) or
stdin/stdout.  Every solve is served through the session's guarded path
— the response either embeds an accepted
:class:`~repro.safety.certificate.SafetyCertificate`, an explicit
fallback record (``result.details.fallback``), or an honest
``"infeasible"`` status — and concurrent requests coalesce into grid
calls via :class:`~repro.service.coalescer.RequestCoalescer`.

Request documents (the optional ``id`` is echoed back so clients can
pipeline)::

    {"op": "solve", "platform": {"n_cores": 3}, "solver": "AO",
     "params": {"m_cap": 16}, "tolerance": 0.05, "id": 1}
    {"op": "evaluate", "platform": {...}, "schedule": {...},
     "general": true, "grid_per_interval": 64}
    {"op": "certify", "platform": {...}, "schedule": {...},
     "claims": {"claimed_peak": 19.93}, "tolerance": 0.05}
    {"op": "ping"}
    {"op": "stats"}
    {"op": "shutdown"}

With a ``run_dir`` the server journals one row per served request into
the standard runner journal format (``kind="service_request"``) plus a
final ``kind="service_metrics"`` row on close, so ``repro stats
<run-dir>`` reports the serve session — request statuses, cache hit
rates, and the coalesced-batch shapes — exactly like a sweep.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Mapping

from repro.obs import METRICS
from repro.service.coalescer import RequestCoalescer
from repro.service.session import SchedulerSession

__all__ = ["ScheduleServer", "send_requests"]

#: Refuse absurd lines instead of buffering them (asyncio stream limit).
MAX_LINE_BYTES = 8 * 1024 * 1024


class ScheduleServer:
    """The asyncio front-end over one session + coalescer pair."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        run_dir: str | Path | None = None,
    ) -> None:
        self.session = SchedulerSession()
        self.coalescer = RequestCoalescer(self.session)
        self.host = host
        self.port = int(port)
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._journal = None
        self._seq = 0
        self.served = 0
        self.failed = 0
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------

    def _open_journal(self) -> None:
        if self.run_dir is None:
            return
        from datetime import datetime, timezone

        from repro.runner.journal import (
            JOURNAL_NAME,
            Journal,
            git_sha,
            write_manifest,
        )

        write_manifest(
            self.run_dir,
            {
                "experiment": "serve",
                "created_at": datetime.now(timezone.utc).isoformat(),
                "n_units": 0,
                "git_sha": git_sha(),
                "units_hash": "service",
            },
        )
        self._journal = Journal(self.run_dir / JOURNAL_NAME)

    def _journal_response(
        self, request: Mapping[str, Any], response: Mapping[str, Any],
        elapsed_s: float,
    ) -> None:
        if self._journal is None:
            return
        self._seq += 1
        op = str(request.get("op", "?"))
        if response.get("ok"):
            status = str(response.get("status", "ok"))
        else:
            status = "error"
        result = response.get("result")
        fallback = bool(
            result and (result.get("details") or {}).get("fallback")
        )
        self._journal.append(
            {
                "unit_id": f"req-{self._seq:06d}",
                "kind": "service_request",
                "label": f"{op}:{request.get('solver', '')}".rstrip(":"),
                "status": status,
                "elapsed_s": elapsed_s,
                "cached": bool(response.get("cached")),
                "coalesced": int(response.get("coalesced", 1)),
                "fallback": fallback,
                "stats": response.get("stats"),
                "certificate": response.get("certificate"),
            }
        )

    def _close_journal(self) -> None:
        if self._journal is None:
            return
        self._journal.append(
            {
                "unit_id": "service-metrics",
                "kind": "service_metrics",
                "status": "ok",
                "service": self.service_stats(),
            }
        )
        self._journal.close()
        self._journal = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    def service_stats(self) -> dict[str, Any]:
        """One document covering session, cache and coalescer counters."""
        return {
            "served": self.served,
            "failed": self.failed,
            "session": self.session.stats(),
            "coalescer": self.coalescer.stats(),
        }

    async def handle_request(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one request document, returning the response document."""
        op = str(request.get("op", ""))
        t0 = time.perf_counter()
        if op == "ping":
            response: dict[str, Any] = {"ok": True, "op": "ping"}
        elif op == "stats":
            response = {"ok": True, "op": "stats", "stats": self.service_stats()}
        elif op == "shutdown":
            response = {"ok": True, "op": "shutdown"}
            self._shutdown.set()
        elif op in ("solve", "evaluate", "certify"):
            response = await self.coalescer.submit(request)
        else:
            response = {
                "ok": False,
                "error": {
                    "type": "ValueError",
                    "message": f"unknown op {op!r}",
                },
            }
        elapsed = time.perf_counter() - t0
        self.served += 1
        if not response.get("ok"):
            self.failed += 1
            METRICS.counter("service.request_errors").inc()
        if op in ("solve", "evaluate", "certify"):
            self._journal_response(request, response, elapsed)
        if "id" in request:
            response = dict(response, id=request["id"])
        return response

    async def _handle_line(
        self, line: bytes, writer, lock: asyncio.Lock
    ) -> None:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError) as exc:
            response: dict[str, Any] = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            self.served += 1
            self.failed += 1
        else:
            response = await self.handle_request(request)
        payload = (json.dumps(response) + "\n").encode("utf-8")
        async with lock:
            writer.write(payload)
            await writer.drain()

    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: spawn a task per line so pipelined
        requests land in the same coalescer batch."""
        lock = asyncio.Lock()
        tasks: list[asyncio.Task] = []
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                if line.strip():
                    tasks.append(
                        asyncio.ensure_future(
                            self._handle_line(line, writer, lock)
                        )
                    )
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Shutdown retires connections parked on readline; end the
            # task cleanly so the stream server's done-callback (which
            # re-raises task.exception()) stays quiet.
            if conn_task is not None:
                conn_task.uncancel()
        finally:
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # lifecycles
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the TCP listener; returns the bound ``(host, port)``."""
        self._open_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op arrives (or the task is cancelled)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._shutdown.wait()
            # Let in-flight response writes finish before tearing down.
            await asyncio.sleep(0)
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Connection handlers blocked on readline survive the
            # listener close; retire them here so loop shutdown is clean.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            self._close_journal()

    async def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve newline-delimited JSON on stdin/stdout until EOF."""
        self._open_journal()
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        lock = asyncio.Lock()

        class _Writer:
            def write(self, payload: bytes) -> None:
                stdout.write(payload.decode("utf-8"))

            async def drain(self) -> None:
                stdout.flush()

        writer = _Writer()
        tasks: list[asyncio.Task] = []
        try:
            while not self._shutdown.is_set():
                line = await loop.run_in_executor(None, stdin.readline)
                if not line:
                    break
                if line.strip():
                    tasks.append(
                        asyncio.ensure_future(
                            self._handle_line(line.encode("utf-8"), writer, lock)
                        )
                    )
                    # Give handlers a tick so pipelined lines coalesce
                    # while the executor waits on the next read.
                    await asyncio.sleep(0)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            self._close_journal()


async def send_requests(
    host: str, port: int, requests: "list[Mapping[str, Any]]"
) -> list[dict[str, Any]]:
    """Pipeline requests over one connection; responses in request order.

    Writes every line before reading any response, so the server's
    per-line tasks land in the same coalescer batch — this is the client
    the serve smoke test drives, and the easiest way to *observe*
    coalescing from outside.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    try:
        tagged = [dict(doc, id=i) for i, doc in enumerate(requests)]
        for doc in tagged:
            writer.write((json.dumps(doc) + "\n").encode("utf-8"))
        await writer.drain()
        responses: dict[int, dict[str, Any]] = {}
        while len(responses) < len(tagged):
            line = await reader.readline()
            if not line:
                raise ConnectionError(
                    f"server closed after {len(responses)}/{len(tagged)} responses"
                )
            doc = json.loads(line)
            responses[int(doc["id"])] = doc
        return [responses[i] for i in range(len(tagged))]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
