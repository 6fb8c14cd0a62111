"""Fault-tolerant sharded execution of work units.

:func:`run` takes a list of :class:`~repro.runner.units.WorkUnit` and
drives them to completion either sequentially (the zero-dependency
fallback) or on a pool of worker *processes* — one process per in-flight
unit, so a unit that hangs can be terminated on deadline and a unit that
dies (segfault, OOM-kill) takes nothing else down.  Every failure mode
settles into a structured journal row rather than aborting the sweep:

* the unit **raises** → the exception type/message is recorded;
* the unit **exceeds its timeout** → the worker is terminated and a
  ``TimeoutError`` row is recorded;
* the worker **dies without answering** → a ``WorkerCrashed`` row with
  the exit code is recorded.

Each failure is retried up to ``retries`` times with exponential backoff
before its error row is final.  With a ``run_dir``, finished units are
appended to ``journal.jsonl`` as they settle, so ``resume=True`` (CLI:
``--resume``) skips everything already journaled and re-runs only the
missing units — after a crash, a Ctrl-C, or a kill -9.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import sys
import time
from collections import deque
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.engine import EngineStats
from repro.errors import RunnerError
from repro.obs import METRICS, record_span, span
from repro.runner.journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    Journal,
    git_sha,
    read_manifest,
    write_manifest,
)
from repro.runner.units import WorkUnit, execute_unit, units_hash

__all__ = ["RunnerConfig", "RunReport", "run", "print_progress"]

#: Journal statuses that mark a unit as settled.
TERMINAL_STATUSES = ("ok", "infeasible", "error")

#: Seconds before a failed unit's first retry; each later retry doubles it.
BACKOFF_S = 0.5

ProgressFn = Callable[[Mapping[str, Any]], None]


@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy for one run.

    Attributes
    ----------
    parallel:
        Fan units out over worker processes.  Sequentially (the default)
        units run in-process: no timeout enforcement, but journaling,
        retry and resume work identically.
    max_workers:
        Concurrent worker processes (default: ``os.cpu_count()``).
    timeout_s:
        Per-unit wall-clock deadline; an overdue worker is terminated
        and the attempt counts as failed.  ``None`` disables.  Only
        enforceable in parallel mode (workers are separate processes).
    retries:
        How many times a failed attempt is retried before its error row
        is final (``retries=1`` means up to two attempts).  The first
        retry waits :data:`BACKOFF_S`; each later one doubles the wait.
    """

    parallel: bool = False
    max_workers: int | None = None
    timeout_s: float | None = None
    retries: int = 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "parallel": self.parallel,
            "max_workers": self.max_workers,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
        }

    def resolve_workers(self) -> int:
        if self.max_workers is not None:
            return max(1, int(self.max_workers))
        return max(1, os.cpu_count() or 1)

    def resolve_context(self) -> mp.context.BaseContext:
        """``fork`` where the platform has it, else ``spawn``."""
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return mp.get_context(method)


@dataclass
class RunReport:
    """Outcome of one :func:`run`: counts, rows, and aggregated stats.

    ``records`` maps every unit id of the requested set to its journal
    row (including rows inherited from a resumed journal).  ``stats`` is
    the run-level :class:`~repro.engine.EngineStats` — the counter-wise
    sum of every per-unit stats dump.
    """

    run_dir: str | None
    total: int
    ok: int = 0
    infeasible: int = 0
    errors: int = 0
    skipped: int = 0
    wall_s: float = 0.0
    stats: EngineStats = field(default_factory=EngineStats)
    records: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Units whose final journal row is an error row."""
        return self.errors

    def outcome(
        self, unit: WorkUnit, accept: Collection[str] = ("ok",)
    ) -> tuple[str, Any]:
        """``(status, result)`` of a settled unit.

        A ``solve_cell`` result is decoded into its
        :class:`~repro.algorithms.base.SchedulerResult`; other kinds
        return the journaled result document.  A row without a result
        (``infeasible``, ``error``) returns ``None``.

        Raises
        ------
        RunnerError
            When the unit has no row or its status is not in ``accept``.
        """
        row = self.records.get(unit.unit_id)
        status = None if row is None else row.get("status")
        if status not in accept:
            raise RunnerError(
                f"unit {unit.label or unit.unit_id!r} did not complete: "
                f"{status}"
            )
        result = row.get("result")
        if result is not None and unit.kind == "solve_cell":
            from repro.schedule.serialization import result_from_dict

            result = result_from_dict(result)
        return status, result

    def summary(self) -> str:
        """One-paragraph digest for the CLI."""
        lines = [
            f"runner: {self.total} units — {self.ok} ok, "
            f"{self.infeasible} infeasible, {self.errors} failed "
            f"({self.skipped} resumed from journal) in {self.wall_s:.1f} s"
        ]
        if self.run_dir:
            lines.append(f"  run dir: {self.run_dir}")
        for row in self.records.values():
            if row.get("status") == "error":
                err = row.get("error") or {}
                lines.append(
                    f"  FAILED {row.get('label') or row.get('unit_id')}: "
                    f"{err.get('type')}: {err.get('message')} "
                    f"(after {row.get('attempts')} attempt(s))"
                )
        lines.append(f"  engine: {self.stats.summary_line()}")
        return "\n".join(lines)


def print_progress(event: Mapping[str, Any]) -> None:
    """Default progress reporter: one stderr line per settled unit."""
    status = event["status"]
    if status == "retry":
        print(
            f"[runner] retry {event['label']} "
            f"(attempt {event['attempts']} failed: {event['reason']})",
            file=sys.stderr,
        )
        return
    print(
        f"[runner] {event['completed']}/{event['total']} "
        f"{status:<10s} {event['label']} "
        f"({event['elapsed_s']:.2f}s, attempt {event['attempts']})",
        file=sys.stderr,
    )


# ----------------------------------------------------------------------
# worker process entry point
# ----------------------------------------------------------------------


def _worker_main(conn, unit_doc: dict[str, Any]) -> None:
    """Run one unit and ship its outcome (or exception) back over the pipe."""
    try:
        outcome = execute_unit(unit_doc)
        conn.send(("done", outcome))
    except BaseException as exc:  # noqa: BLE001 - everything becomes a row
        try:
            conn.send(("raised", {"type": type(exc).__name__, "message": str(exc)}))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# internal bookkeeping
# ----------------------------------------------------------------------


class _Pending:
    __slots__ = ("unit", "attempts", "not_before")

    def __init__(self, unit: WorkUnit, attempts: int = 0, not_before: float = 0.0):
        self.unit = unit
        self.attempts = attempts
        self.not_before = not_before


class _Inflight:
    __slots__ = ("unit", "attempts", "proc", "conn", "started", "deadline")

    def __init__(self, unit, attempts, proc, conn, started, deadline):
        self.unit = unit
        self.attempts = attempts
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline


class _RunState:
    """Mutable run-wide state shared by the execution strategies."""

    def __init__(self, journal, report, progress, total):
        self.journal = journal
        self.report = report
        self.progress = progress
        self.total = total
        self.completed = 0

    def settle(
        self,
        unit: WorkUnit,
        attempts: int,
        elapsed: float,
        outcome: Mapping[str, Any] | None,
        error: Mapping[str, Any] | None,
    ) -> None:
        """Record a unit's terminal row (journal + report + progress)."""
        if error is not None:
            status = "error"
        else:
            status = str(outcome.get("status", "ok"))
        row = {
            "unit_id": unit.unit_id,
            "kind": unit.kind,
            "label": unit.label,
            # The full unit spec: makes every journal row self-describing
            # (the fault seeds an experiment ran with are in its journal,
            # not just recoverable by rebuilding the unit list).
            "payload": dict(unit.payload),
            "status": status,
            "attempts": attempts,
            "elapsed_s": round(float(elapsed), 6),
            "result": (outcome or {}).get("result"),
            "stats": (outcome or {}).get("stats"),
            "certificate": (outcome or {}).get("certificate"),
            "spans": (outcome or {}).get("spans"),
            "error": dict(error) if error is not None else None,
        }
        detail = (outcome or {}).get("detail")
        if detail is not None:
            row["detail"] = detail
        if self.journal is not None:
            self.journal.append(row)
        self.report.records[unit.unit_id] = row
        self.completed += 1
        METRICS.counter(f"runner.units_{status}").inc()
        METRICS.histogram("runner.unit_seconds").observe(float(elapsed))
        record_span(
            "runner/unit",
            float(elapsed),
            attrs={
                "unit_id": unit.unit_id,
                "label": unit.label or unit.unit_id,
                "status": status,
                "attempts": attempts,
            },
        )
        if self.progress is not None:
            self.progress(
                {
                    "status": status,
                    "label": unit.label or unit.unit_id,
                    "unit_id": unit.unit_id,
                    "attempts": attempts,
                    "elapsed_s": float(elapsed),
                    "completed": self.completed,
                    "total": self.total,
                }
            )

    def note_retry(self, unit: WorkUnit, attempts: int, reason: str) -> None:
        if self.progress is not None:
            self.progress(
                {
                    "status": "retry",
                    "label": unit.label or unit.unit_id,
                    "unit_id": unit.unit_id,
                    "attempts": attempts,
                    "reason": reason,
                }
            )


def _backoff(attempts: int) -> float:
    return BACKOFF_S * (2.0 ** max(0, attempts - 1))


# ----------------------------------------------------------------------
# execution strategies
# ----------------------------------------------------------------------


def _run_sequential(todo: Sequence[WorkUnit], config: RunnerConfig,
                    state: _RunState) -> None:
    """In-process execution: no timeout enforcement, same journaling."""
    for unit in todo:
        attempts = 0
        while True:
            attempts += 1
            t0 = time.perf_counter()
            try:
                outcome = execute_unit(unit.as_doc())
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - becomes a row or a retry
                elapsed = time.perf_counter() - t0
                if attempts <= config.retries:
                    state.note_retry(unit, attempts, f"{type(exc).__name__}: {exc}")
                    time.sleep(_backoff(attempts))
                    continue
                state.settle(
                    unit, attempts, elapsed, None,
                    {"type": type(exc).__name__, "message": str(exc)},
                )
                break
            state.settle(unit, attempts, time.perf_counter() - t0, outcome, None)
            break


def _launch(ctx, unit: WorkUnit, attempts: int,
            timeout_s: float | None) -> _Inflight:
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, unit.as_doc()), daemon=True
    )
    proc.start()
    child_conn.close()
    now = time.monotonic()
    deadline = now + timeout_s if timeout_s is not None else None
    return _Inflight(unit, attempts, proc, parent_conn, now, deadline)


def _stop_worker(flight: _Inflight) -> None:
    """Terminate (then kill) an in-flight worker and reap it."""
    proc = flight.proc
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)
    flight.conn.close()


def _run_parallel(todo: Sequence[WorkUnit], config: RunnerConfig,
                  state: _RunState) -> None:
    """Process-pool execution with per-unit deadline and crash isolation."""
    ctx = config.resolve_context()
    n_workers = config.resolve_workers()
    ready: deque[_Pending] = deque(_Pending(u) for u in todo)
    delayed: list[_Pending] = []  # kept sorted by not_before
    inflight: dict[Any, _Inflight] = {}  # keyed by connection

    def fail_attempt(flight: _Inflight, reason_type: str, message: str) -> None:
        elapsed = time.monotonic() - flight.started
        if flight.attempts <= config.retries:
            state.note_retry(
                flight.unit, flight.attempts, f"{reason_type}: {message}"
            )
            pend = _Pending(
                flight.unit,
                attempts=flight.attempts,
                not_before=time.monotonic() + _backoff(flight.attempts),
            )
            delayed.append(pend)
            delayed.sort(key=lambda p: p.not_before)
        else:
            state.settle(
                flight.unit, flight.attempts, elapsed, None,
                {"type": reason_type, "message": message},
            )

    try:
        while ready or delayed or inflight:
            now = time.monotonic()
            while delayed and delayed[0].not_before <= now:
                ready.append(delayed.pop(0))
            while ready and len(inflight) < n_workers:
                pend = ready.popleft()
                flight = _launch(ctx, pend.unit, pend.attempts + 1,
                                 config.timeout_s)
                inflight[flight.conn] = flight

            if not inflight:
                if delayed:
                    time.sleep(
                        min(max(delayed[0].not_before - time.monotonic(), 0.0),
                            0.5)
                    )
                continue

            wait_timeout = 0.05
            if config.timeout_s is not None:
                nearest = min(
                    f.deadline for f in inflight.values() if f.deadline is not None
                )
                wait_timeout = min(wait_timeout, max(nearest - now, 0.0))
            ready_conns = mp.connection.wait(list(inflight), timeout=wait_timeout)

            for conn in ready_conns:
                flight = inflight.pop(conn)
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    # The worker died without answering (SIGKILL, segfault).
                    flight.proc.join(timeout=2.0)
                    code = flight.proc.exitcode
                    fail_attempt(
                        flight, "WorkerCrashed",
                        f"worker exited with code {code} before reporting",
                    )
                    flight.conn.close()
                    continue
                flight.proc.join(timeout=5.0)
                flight.conn.close()
                if tag == "done":
                    state.settle(
                        flight.unit, flight.attempts,
                        time.monotonic() - flight.started, payload, None,
                    )
                else:  # the unit raised inside the worker
                    fail_attempt(flight, payload["type"], payload["message"])

            if config.timeout_s is not None:
                now = time.monotonic()
                for conn, flight in list(inflight.items()):
                    if flight.deadline is not None and now > flight.deadline:
                        del inflight[conn]
                        _stop_worker(flight)
                        fail_attempt(
                            flight, "TimeoutError",
                            f"unit exceeded {config.timeout_s:g}s deadline",
                        )
    finally:
        for flight in inflight.values():
            _stop_worker(flight)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run(
    units: Sequence[WorkUnit],
    config: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: ProgressFn | None = None,
    manifest_extra: Mapping[str, Any] | None = None,
) -> RunReport:
    """Drive a unit set to completion; never aborts on per-unit failure.

    Parameters
    ----------
    units:
        The work units (duplicates by content hash are executed once).
    config:
        Execution policy; default is sequential with one retry.
    run_dir:
        Directory for the manifest and journal.  ``None`` runs fully
        in memory (no persistence, no resume).
    resume:
        Continue a previous run in ``run_dir``: validate its manifest
        against this unit set and skip every journaled unit.
    progress:
        Callback invoked per settled unit (and per retry); see
        :func:`print_progress` for the event shape.
    manifest_extra:
        Extra keys merged into the manifest (experiment name, grid spec).
    """
    config = config or RunnerConfig()
    t_start = time.perf_counter()

    # De-duplicate by content hash, preserving order.
    seen: set[str] = set()
    unique: list[WorkUnit] = []
    for unit in units:
        uid = unit.unit_id
        if uid not in seen:
            seen.add(uid)
            unique.append(unit)

    journal = None
    previous: dict[str, dict[str, Any]] = {}
    if run_dir is not None:
        run_dir = Path(run_dir)
        journal_path = run_dir / JOURNAL_NAME
        uhash = units_hash(unique)
        if resume:
            manifest = read_manifest(run_dir)
            if manifest.get("units_hash") != uhash:
                raise RunnerError(
                    f"cannot resume {run_dir}: manifest covers a different "
                    f"unit set (manifest {manifest.get('units_hash')!r} != "
                    f"requested {uhash!r})"
                )
            previous = Journal.load(journal_path)
        else:
            if (run_dir / MANIFEST_NAME).exists():
                raise RunnerError(
                    f"{run_dir} already holds a run; pass resume=True "
                    "(CLI: --resume) to continue it"
                )
            write_manifest(
                run_dir,
                {
                    "created_at": datetime.now(timezone.utc).isoformat(),
                    "git_sha": git_sha(),
                    "python": sys.version.split()[0],
                    "n_units": len(unique),
                    "units_hash": uhash,
                    "workers": (
                        config.resolve_workers() if config.parallel else 1
                    ),
                    "config": config.as_dict(),
                    "unit_ids": [u.unit_id for u in unique],
                    **dict(manifest_extra or {}),
                },
            )
        journal = Journal(journal_path)

    report = RunReport(
        run_dir=str(run_dir) if run_dir is not None else None,
        total=len(unique),
    )
    state = _RunState(journal, report, progress, total=len(unique))

    todo: list[WorkUnit] = []
    for unit in unique:
        row = previous.get(unit.unit_id)
        if row is not None and row.get("status") in TERMINAL_STATUSES:
            report.records[unit.unit_id] = row
            report.skipped += 1
        else:
            todo.append(unit)

    try:
        with span(
            "runner/run",
            units=len(unique),
            todo=len(todo),
            resumed=report.skipped,
            parallel=config.parallel,
        ):
            if config.parallel and todo:
                _run_parallel(todo, config, state)
            elif todo:
                _run_sequential(todo, config, state)
    finally:
        if journal is not None:
            journal.close()

    rows = [report.records[u.unit_id] for u in unique if u.unit_id in report.records]
    for row in rows:
        status = row.get("status")
        if status == "ok":
            report.ok += 1
        elif status == "infeasible":
            report.infeasible += 1
        elif status == "error":
            report.errors += 1
    report.stats = EngineStats.sum(
        EngineStats.from_dict(row["stats"]) for row in rows if row.get("stats")
    )
    report.wall_s = time.perf_counter() - t_start
    return report
