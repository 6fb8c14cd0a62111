"""JSON (de)serialization of schedules and scheduler results.

A governor computed offline must ship its schedule to the machine that
executes it; this module provides a stable, versioned JSON wire format for
:class:`~repro.schedule.periodic.PeriodicSchedule` and
:class:`~repro.algorithms.base.SchedulerResult`.

The format is intentionally dumb — explicit interval lists, no pickling —
so non-Python consumers (a kernel governor, a C runtime) can parse it.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.errors import ScheduleError
from repro.schedule.periodic import PeriodicSchedule, check_interval

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "schedule_to_json",
    "schedule_from_json",
    "result_to_dict",
    "result_from_dict",
]

FORMAT_VERSION = 1


def schedule_to_dict(schedule: PeriodicSchedule) -> dict[str, Any]:
    """Plain-dict form of a schedule (JSON-ready)."""
    return {
        "format": "repro.schedule",
        "version": FORMAT_VERSION,
        "n_cores": schedule.n_cores,
        "period_s": schedule.period,
        "intervals": [
            {"length_s": length, "voltages": volts}
            for length, volts in schedule.interval_rows()
        ],
    }


def schedule_from_dict(data: dict[str, Any]) -> PeriodicSchedule:
    """Rebuild a schedule from its plain-dict form.

    Raises
    ------
    ScheduleError
        On format/version mismatch or malformed interval data.
    """
    if data.get("format") != "repro.schedule":
        raise ScheduleError(f"not a repro schedule document: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported schedule format version {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    try:
        parsed = [
            (float(item["length_s"]), [float(v) for v in item["voltages"]])
            for item in data["intervals"]
        ]
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    widths = [len(row) for _, row in parsed]
    if len(set(widths)) > 1:
        # Ragged rows: name the first invalid interval in document order,
        # else the first one whose core count differs from interval 0's.
        for length, row in parsed:
            check_interval(length, tuple(row))
        q = next(q for q, w in enumerate(widths) if w != widths[0])
        raise ScheduleError(f"interval {q} has {widths[q]} cores, expected {widths[0]}")
    schedule = PeriodicSchedule(
        [length for length, _ in parsed], [row for _, row in parsed]
    )
    declared = data.get("n_cores")
    if declared is not None and declared != schedule.n_cores:
        raise ScheduleError(
            f"document declares {declared} cores but intervals have "
            f"{schedule.n_cores}"
        )
    return schedule


def schedule_to_json(schedule: PeriodicSchedule, indent: int | None = None) -> str:
    """Serialize a schedule to a JSON string."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def schedule_from_json(text: str) -> PeriodicSchedule:
    """Parse a schedule from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"invalid JSON: {exc}") from exc
    return schedule_from_dict(data)


def _jsonable(value):
    """JSON-native form of one value (dataclasses field by field).

    Arrays and tuples become lists and numpy scalars Python scalars, so
    the schedule cache keys solve parameters with it too: two spellings
    of one value share a key.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fresh(value):
    """Copy of a JSON-native dict or list whose every container is new.

    Decoded results own their details: two decodes of one stored
    document (cache hits of one key, a journal row read twice) must not
    share a nested list that one caller may append to.
    """
    if type(value) is dict:
        return {
            k: _fresh(v) if type(v) in (dict, list) else v
            for k, v in value.items()
        }
    return [_fresh(v) if type(v) in (dict, list) else v for v in value]


def result_to_dict(result: SchedulerResult) -> dict[str, Any]:
    """Plain-dict form of a scheduler result (schedule + metrics + details).

    Detail entries are converted to JSON-native types: arrays become
    lists, numpy scalars Python scalars, and dataclasses (such as a
    controller trace) dicts of their fields.
    """
    return {
        "format": "repro.result",
        "version": FORMAT_VERSION,
        "name": result.name,
        "throughput": result.throughput,
        "peak_theta": result.peak_theta,
        "feasible": result.feasible,
        "runtime_s": result.runtime_s,
        "schedule": schedule_to_dict(result.schedule),
        "details": _jsonable(result.details),
        "stats": result.stats.as_dict() if result.stats is not None else None,
        "certificate": (
            result.certificate.as_dict()
            if result.certificate is not None
            else None
        ),
    }


def result_from_dict(data: dict[str, Any]) -> SchedulerResult:
    """Rebuild a :class:`SchedulerResult` from its plain-dict form.

    The inverse of :func:`result_to_dict` up to the detail conversion
    (arrays come back as lists, dataclasses as dicts of their fields).
    This is what lets the experiment runner journal finished work units
    as JSON and reassemble them on ``--resume``.
    """
    if data.get("format") != "repro.result":
        raise ScheduleError(f"not a repro result document: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ScheduleError(
            f"unsupported result format version {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    from repro.engine import EngineStats
    from repro.safety.certificate import SafetyCertificate

    stats_doc = data.get("stats")
    cert_doc = data.get("certificate")
    try:
        return SchedulerResult(
            name=str(data["name"]),
            schedule=schedule_from_dict(data["schedule"]),
            throughput=float(data["throughput"]),
            peak_theta=float(data["peak_theta"]),
            feasible=bool(data["feasible"]),
            runtime_s=float(data.get("runtime_s", 0.0)),
            details=_fresh(dict(data.get("details") or {})),
            stats=EngineStats.from_dict(stats_doc) if stats_doc else None,
            certificate=(
                SafetyCertificate.from_dict(cert_doc) if cert_doc else None
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed result document: {exc}") from exc
