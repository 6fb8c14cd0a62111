"""Work units: the sharding granularity of the experiment runner.

A :class:`WorkUnit` is one independent piece of an experiment — for the
comparison grids, one ``(cell, algo)`` pair: *run this one solver on this
one platform configuration*.  Units carry only plain JSON data (the
platform spec and solver parameters), never live objects, so they are
cheap to ship to worker processes and their identity can be defined by
content: :attr:`WorkUnit.unit_id` is a stable hash of the payload, which
is what makes journals resumable across processes and machines.

:func:`execute_unit` is the single worker entry point — it dispatches on
``unit.kind`` through :data:`EXECUTORS`.  Besides the real
``"solve_cell"`` kind there is a ``"probe"`` kind whose only purpose is
fault injection in tests (raise, sleep, die); keeping it here means the
runner's failure handling is exercised through exactly the same code
path as production units.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.canonical import canonical_json

__all__ = [
    "WorkUnit",
    "EXECUTORS",
    "execute_unit",
    "solve_cell_outcome",
    "solve_cell_platform",
    "realtime_cell_outcome",
    "solve_cell_unit",
    "comparison_units",
    "spawn_seeds",
    "canonical_json",
    "units_hash",
]


@dataclass(frozen=True)
class WorkUnit:
    """One independent, retryable piece of an experiment.

    Attributes
    ----------
    kind:
        Executor name (``"solve_cell"``, ``"probe"``); see
        :data:`EXECUTORS`.
    payload:
        JSON-able spec of the work.  The unit's identity is the content
        hash of ``(kind, payload)``, so two units with the same payload
        are the same unit — a resumed run recognizes finished work by
        this id.
    label:
        Human-readable tag for progress lines and journal rows; not part
        of the identity.
    """

    kind: str
    payload: Mapping[str, Any]
    label: str = ""

    @property
    def unit_id(self) -> str:
        """Stable content hash identifying this unit (16 hex chars)."""
        doc = canonical_json({"kind": self.kind, "payload": dict(self.payload)})
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]

    def as_doc(self) -> dict[str, Any]:
        """Pickle/JSON-friendly form shipped to worker processes."""
        return {"kind": self.kind, "payload": dict(self.payload), "label": self.label}


def units_hash(units: Sequence[WorkUnit]) -> str:
    """Order-insensitive hash of a unit set (stored in the run manifest)."""
    ids = sorted(u.unit_id for u in units)
    return hashlib.sha256(",".join(ids).encode("ascii")).hexdigest()[:16]


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------


def _platform_spec_doc(payload: Mapping[str, Any]):
    """The platform description a solve_cell payload resolves through.

    New-style payloads carry ``payload["platform"]`` — a
    :class:`~repro.platforms.PlatformSpec` document or preset name.
    Legacy payloads carry flat ``n_cores``/``n_levels``/``t_max_c``/
    ``tau`` keys; those stay supported verbatim because unit ids hash
    the payload, and changing the shape would orphan every journaled
    comparison run.
    """
    if "platform" in payload:
        return payload["platform"]
    return {
        "n_cores": int(payload["n_cores"]),
        "n_levels": int(payload["n_levels"]),
        "t_max_c": float(payload["t_max_c"]),
        "tau": float(payload.get("tau", 5e-6)),
    }


def solve_cell_platform(payload: Mapping[str, Any]):
    """Build the :class:`~repro.platform.Platform` a solve_cell unit runs on."""
    from repro.platforms import PlatformSpec

    return PlatformSpec.coerce(_platform_spec_doc(payload)).build()


def solve_cell_outcome(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Run one registered solver on one platform configuration.

    Returns an ``{"status", "result", "stats", "certificate", "spans"}``
    document; an :class:`~repro.errors.InfeasibleError` is a normal
    outcome (``status="infeasible"``), not a failure.  Solvers run
    through :func:`~repro.algorithms.registry.guarded_solve`: a crash or
    a rejected safety certificate degrades through the fallback chain
    instead of losing the cell, and every successful row carries the
    certificate of the schedule it actually emitted.

    Spans are always captured in **isolation**: the unit's span tree goes
    only into the outcome document (and from there into the journal row),
    never to a live trace sink — so per-unit spans are written exactly
    once whether the unit ran in-process or in a worker, and a resumed
    run inherits them from the journal.  The root ``unit/solve_cell``
    span's counter attributes come from the *same* stats stored in the
    row (:meth:`~repro.engine.EngineStats.span_attrs`), which is what
    makes a trace file reconcile with the journal.

    The unit runs on the process's session engine for its platform
    (session-per-worker: identical cells in one worker share an engine
    and its caches instead of paying the platform build per unit), so a
    PCO unit can reuse the AO core an earlier AO unit memoized there;
    its stats row then lacks that core's thermal work.
    """
    from repro.algorithms.registry import get_solver, guarded_solve
    from repro.errors import InfeasibleError
    from repro.obs import capture_spans, span
    from repro.schedule.serialization import result_to_dict
    from repro.service.session import default_session

    engine = default_session().engine_for(_platform_spec_doc(payload))
    spec = get_solver(str(payload["algo"]))
    params = dict(payload.get("params") or {})
    mark = engine.checkpoint()
    outcome: dict[str, Any]
    with capture_spans(isolate=True) as captured:
        with span(
            "unit/solve_cell",
            algo=spec.name,
            n_cores=int(payload.get("n_cores", engine.platform.n_cores)),
            n_levels=int(
                payload.get("n_levels", len(engine.platform.ladder.levels))
            ),
            t_max_c=float(payload.get("t_max_c", engine.platform.t_max_c)),
        ) as root:
            try:
                result = guarded_solve(spec, engine, **params)
            except InfeasibleError as exc:
                stats = engine.stats_since(mark)
                outcome = {
                    "status": "infeasible",
                    "result": None,
                    "detail": str(exc),
                }
            else:
                stats = result.stats
                cert = result.certificate
                outcome = {
                    "status": "ok",
                    "result": result_to_dict(result),
                    "certificate": (
                        cert.as_dict() if cert is not None else None
                    ),
                }
                fallback = result.details.get("fallback")
                if fallback is not None:
                    root.set_attrs(fallback_hop=str(fallback.get("hop")))
            outcome["stats"] = stats.as_dict()
            root.set_attrs(status=outcome["status"], **stats.span_attrs())
    outcome["spans"] = [s.as_dict() for s in captured]
    return outcome


def _exec_solve_cell(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Worker entry point for ``solve_cell`` units (fresh platform)."""
    return solve_cell_outcome(payload)


def realtime_cell_outcome(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Plan and fault-inject one real-time frame-scheduling scenario.

    The payload is *fully sampled*: it carries the concrete workload
    (every task's cycles and criticality) and the complete
    :class:`~repro.safety.faults.FaultSpec` document (every knob, every
    pre-drawn core failure) — nothing is re-drawn at execution time, so
    a failed unit replays bit-exactly from its journal row on
    ``--resume``.

    Keys: ``platform`` (spec doc or preset name), ``policy``
    (``margin``/``blind``), ``k``, ``workload``
    (:meth:`~repro.realtime.tasks.TaskSet.as_dict` doc),
    ``faults`` (:meth:`~repro.safety.faults.FaultSpec.as_dict` doc or
    ``None``), ``n_frames``, ``steps_per_frame``.

    An :class:`~repro.errors.InfeasibleError` from admission is a normal
    outcome (``status="infeasible"``): the scenario's schedulability is
    *false*, not a runner failure.
    """
    from repro.errors import InfeasibleError
    from repro.obs import capture_spans, span
    from repro.realtime import TaskSet, plan_frames, simulate_recovery
    from repro.service.session import default_session

    engine = default_session().engine_for(_platform_spec_doc(payload))
    workload = TaskSet.from_dict(payload["workload"])
    policy = str(payload["policy"])
    k = int(payload["k"])
    mark = engine.checkpoint()
    outcome: dict[str, Any]
    with capture_spans(isolate=True) as captured:
        with span(
            "unit/realtime_cell", policy=policy, k=k,
            n_tasks=len(workload),
        ) as root:
            try:
                placement = plan_frames(engine, workload, k=k, policy=policy)
            except InfeasibleError as exc:
                outcome = {
                    "status": "infeasible",
                    "result": None,
                    "detail": str(exc),
                }
            else:
                report = simulate_recovery(
                    engine,
                    placement,
                    payload.get("faults"),
                    n_frames=int(payload.get("n_frames", 8)),
                    steps_per_frame=int(payload.get("steps_per_frame", 8)),
                )
                outcome = {
                    "status": "ok",
                    "result": {
                        "placement": placement.as_dict(),
                        "recovery": report.as_dict(),
                        "schedulable": bool(
                            not placement.shed and report.safe
                        ),
                    },
                }
            stats = engine.stats_since(mark)
            outcome["stats"] = stats.as_dict()
            root.set_attrs(status=outcome["status"], **stats.span_attrs())
    outcome["spans"] = [s.as_dict() for s in captured]
    return outcome


def _exec_realtime_cell(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Worker entry point for ``realtime_cell`` units."""
    return realtime_cell_outcome(payload)


def _exec_probe(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Fault-injection unit for runner tests.

    ``behavior`` selects the failure mode:

    * ``"ok"`` — succeed, echoing ``payload["value"]``;
    * ``"sleep"`` — sleep ``payload["seconds"]`` then succeed (drive the
      per-unit timeout);
    * ``"raise"`` — raise ``RuntimeError`` (a unit that crashes cleanly);
    * ``"kill"`` — SIGKILL the worker process (a unit that dies hard);
    * ``"flaky"`` — fail until ``payload["marker"]`` exists (created on
      the first attempt), then succeed — exercises bounded retry.
    """
    behavior = str(payload.get("behavior", "ok"))
    if behavior == "sleep":
        time.sleep(float(payload["seconds"]))
    elif behavior == "raise":
        raise RuntimeError(str(payload.get("message", "injected failure")))
    elif behavior == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif behavior == "flaky":
        marker = str(payload["marker"])
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("attempted\n")
            raise RuntimeError("flaky unit: first attempt fails")
    elif behavior != "ok":
        raise ValueError(f"unknown probe behavior {behavior!r}")
    return {
        "status": "ok",
        "result": {"value": payload.get("value")},
        "stats": None,
    }


#: Executor registry: ``unit.kind`` -> callable(payload) -> outcome doc.
EXECUTORS: dict[str, Any] = {
    "solve_cell": _exec_solve_cell,
    "realtime_cell": _exec_realtime_cell,
    "probe": _exec_probe,
}


def execute_unit(unit_doc: Mapping[str, Any]) -> dict[str, Any]:
    """Run one unit document (the worker-process entry point)."""
    kind = unit_doc["kind"]
    try:
        executor = EXECUTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown work-unit kind {kind!r}; known: {sorted(EXECUTORS)}"
        ) from None
    return executor(unit_doc["payload"])


# ----------------------------------------------------------------------
# unit builders
# ----------------------------------------------------------------------


def spawn_seeds(seed: int, count: int) -> tuple[int, ...]:
    """``count`` child seeds, spawned deterministically from ``seed``.

    ``SeedSequence.spawn`` gives statistically independent child streams;
    collapsing each child to one ``uint32`` keeps the seeds JSON-able so
    they travel inside work-unit payloads and journal rows.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return tuple(int(child.generate_state(1)[0]) for child in children)


def solve_cell_unit(
    platform: Mapping[str, Any],
    algo: str,
    params: Mapping[str, Any],
    label: str,
    **extra: Any,
) -> WorkUnit:
    """One ``solve_cell`` unit: registered solver ``algo`` on ``platform``.

    ``platform`` holds the payload's platform keys: either
    ``{"platform": <PlatformSpec document or preset name>}`` or the flat
    ``n_cores``/``n_levels``/``t_max_c``/``tau`` keys of the comparison
    grids (see :func:`solve_cell_platform`).  ``params`` is filtered
    through the solver's registry ``params`` whitelist, so a unit's
    content hash only covers parameters the solver consumes.  ``extra``
    keys (a cell seed, say) go into the payload as given.
    """
    from repro.algorithms.registry import get_solver

    spec = get_solver(algo)
    payload = {
        **platform,
        "algo": spec.name,
        "params": {k: v for k, v in params.items() if k in spec.params},
        **extra,
    }
    return WorkUnit(kind="solve_cell", payload=payload, label=label)


def comparison_units(
    core_counts: Sequence[int],
    level_counts: Sequence[int],
    t_max_values: Sequence[float],
    approaches: Sequence[str],
    common_params: Mapping[str, Any],
    tau: float = 5e-6,
) -> list[WorkUnit]:
    """Decompose a comparison grid into one unit per ``(cell, algo)`` pair.

    ``common_params`` is the shared solver parameter pool (period, m_cap,
    ...), filtered per solver by :func:`solve_cell_unit`.
    """
    from repro.algorithms.registry import get_solver

    names = []
    for name in approaches:
        try:
            names.append(get_solver(name).name)
        except KeyError as exc:
            raise ValueError(f"unknown approach {name!r}") from exc
    return [
        solve_cell_unit(
            {
                "n_cores": int(n),
                "n_levels": int(lv),
                "t_max_c": float(tm),
                "tau": float(tau),
            },
            name,
            common_params,
            f"{name}@cores={n},levels={lv},tmax={float(tm):g}",
        )
        for n in core_counts
        for lv in level_counts
        for tm in t_max_values
        for name in names
    ]
