"""Per-layer metrics: the fixed catalogue and its assembly from a trace.

Every traced run emits every metric below, 0 where a workload does not
reach a layer, so the three workloads can be compared row by row.
Names ending in ``.s`` / ``_s`` are self seconds summed over the traced
window (a span minus the child spans nested in it).
"""

from __future__ import annotations

#: Trace labels (see ``tracer.install``) reported as self seconds.
SELF_TIME = {
    "platforms.build.s": "platforms.build",
    "thermal.eigen.s": "thermal.eigen",
    "kernel.scalar.s": "kernel.scalar",
    "kernel.steady.s": "kernel.steady",
    "kernel.batch.s": "kernel.batch",
    "kernel.grid.s": "kernel.grid",
    "solver.AO.self_s": "solver.AO",
    "solver.PCO.self_s": "solver.PCO",
    "solver.EXS.self_s": "solver.EXS",
    "solver.LNS.self_s": "solver.LNS",
    "solver.integral.self_s": "solver.integral",
    "solver.ideal.self_s": "solver.ideal",
    "solver.choose_m_grid.self_s": "solver.choose_m_grid",
    "safety.guard.s": "safety.guard",
    "safety.certify.s": "safety.certify",
    "safety.fallback.s": "safety.fallback",
    "service.session.s": "service.session",
    "service.engine.s": "service.engine",
    "service.key.s": "service.key",
    "service.cache.get.s": "service.cache.get",
    "service.cache.put.s": "service.cache.put",
    "service.coalesce.s": "service.coalesce",
    "serial.encode.s": "serial.encode",
    "serial.decode.s": "serial.decode",
    "runner.run.s": "runner.run",
    "runner.unit.s": "runner.unit",
    "runner.grid_dispatch.s": "runner.grid_dispatch",
    "runner.journal.s": "runner.journal",
    "serve.loop.s": "serve.loop",
    "serve.wait.s": "serve.wait",
}

#: Trace labels reported as call counts.
CALLS = {
    "platforms.build.calls": "platforms.build",
    "thermal.eigen.calls": "thermal.eigen",
    "kernel.scalar.calls": "kernel.scalar",
    "kernel.steady.calls": "kernel.steady",
    "kernel.batch.calls": "kernel.batch",
    "kernel.grid.calls": "kernel.grid",
    "safety.certify.calls": "safety.certify",
    "safety.fallback.calls": "safety.fallback",
    "runner.journal.calls": "runner.journal",
}

#: Trace labels reported as rows priced (schedules through a kernel).
ROWS = {
    "kernel.steady.rows": "kernel.steady",
    "kernel.batch.rows": "kernel.batch",
    "kernel.grid.rows": "kernel.grid",
}

#: Solver phases from the program's own ``EngineStats.phase_seconds``.
PHASES = {
    f"solver.phase.{name.replace('/', '.')}_s": name
    for name in (
        "ao/continuous", "ao/choose_m", "ao/tpt", "ao/fill", "ao/verify",
        "ao/floor_guard", "pco/phase_search", "pco/fill", "pco/floor_guard",
    )
}

#: Everything else, filled by the workload (unit per metric).
OTHER = {
    "thermal.eigen.memory": "count",
    "thermal.eigen.disk": "count",
    "thermal.eigen.miss": "count",
    "thermal.eigen.hit_ratio": "ratio",
    "solver.calls": "count",
    "engine.ss_solves": "count",
    "engine.ss_hit_ratio": "ratio",
    "engine.expm_applications": "count",
    "engine.peak_evals": "count",
    "safety.fallback_share": "ratio",
    "service.cache.hit_ratio": "ratio",
    "service.engines_built": "count",
    "service.engines_evicted": "count",
    "service.coalesced_share": "ratio",
    "service.largest_batch": "count",
    "serial.bytes": "B",
    "runner.units": "count",
    "runner.retries": "count",
    "serve.requests": "count",
    "serve.server_s": "s",
    "serve.transport_s": "s",
    "serve.generator_lag_ms": "ms",
    "serve.p50_ms.mid": "ms",
    "serve.p99_ms.low": "ms",
    "serve.p99_ms.mid": "ms",
    "serve.p99_ms.high": "ms",
    "serve.max_rps": "1/s",
    "failed_share": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.coverage_ok": "bool",
}


def catalogue() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    out = [(name, "s") for name in SELF_TIME]
    out += [(name, "count") for name in CALLS]
    out += [(name, "count") for name in ROWS]
    out += [(name, "s") for name in PHASES]
    out += list(OTHER.items())
    return out


#: Metrics that must repeat exactly between two traced runs on one seed.
#: On ``serve-mixed`` the coalescer's batch boundaries depend on timing,
#: so calls of batched layers are exempt there (rows are not).
def repeatable(name: str, workload: str) -> bool:
    if name.startswith("trace.") or name.startswith("serve."):
        return False
    if not (
        name.endswith(".calls") or name.endswith(".rows")
        or name.startswith("engine.") and not name.endswith("_ratio")
        or name in (
            "thermal.eigen.memory", "thermal.eigen.disk", "thermal.eigen.miss",
            "solver.calls", "service.engines_built", "service.engines_evicted",
            "runner.units", "runner.retries",
        )
    ):
        return False
    if workload == "serve-mixed" and name in (
        "kernel.grid.calls", "safety.certify.calls", "runner.journal.calls",
    ):
        return False
    return True


def sum_engine_stats(stats_docs) -> dict:
    """Counter-wise sum of ``EngineStats.as_dict()`` documents."""
    total = {"ss_solves": 0, "ss_hits": 0, "expm": 0, "peak_evals": 0, "phases": {}}
    for doc in stats_docs:
        if not doc:
            continue
        total["ss_solves"] += int(doc.get("steady_state_solves", 0))
        total["ss_hits"] += int(doc.get("steady_state_cache_hits", 0))
        total["expm"] += int(doc.get("expm_applications", 0))
        total["peak_evals"] += int(doc.get("peak_evals", 0))
        for name, secs in (doc.get("phase_seconds") or {}).items():
            total["phases"][name] = total["phases"].get(name, 0.0) + float(secs)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def assemble(trace: dict, engine: dict, other: dict, base_cost: float,
             traced_cost: float) -> dict[str, float]:
    """Fill the whole catalogue from one traced run.

    ``trace`` is a ``Tracer.report``; ``engine`` a
    :func:`sum_engine_stats` total; ``other`` any ``OTHER`` values the
    workload measured; ``base_cost`` / ``traced_cost`` the same work's
    cost untraced and traced (wall or CPU seconds), for the overhead.
    """
    values: dict[str, float] = {}
    for name, label in SELF_TIME.items():
        values[name] = trace["self_s"].get(label, 0.0)
    for name, label in CALLS.items():
        values[name] = trace["calls"].get(label, 0)
    for name, label in ROWS.items():
        values[name] = trace["rows"].get(label, 0)
    for name, phase in PHASES.items():
        values[name] = engine["phases"].get(phase, 0.0)
    counts = trace["counts"]
    memory, disk, miss = (
        counts.get(f"thermal.eigen.{k}", 0) for k in ("memory", "disk", "miss")
    )
    values.update(
        {
            "thermal.eigen.memory": memory,
            "thermal.eigen.disk": disk,
            "thermal.eigen.miss": miss,
            "thermal.eigen.hit_ratio": _ratio(memory + disk, memory + disk + miss),
            "solver.calls": sum(
                n for label, n in trace["calls"].items() if label.startswith("solver.")
                and label not in ("solver.ideal", "solver.choose_m_grid")
            ),
            "engine.ss_solves": engine["ss_solves"],
            "engine.ss_hit_ratio": _ratio(
                engine["ss_hits"], engine["ss_hits"] + engine["ss_solves"]
            ),
            "engine.expm_applications": engine["expm"],
            "engine.peak_evals": engine["peak_evals"],
        }
    )
    wall = trace["wall_s"]
    unattributed = max(0.0, 1.0 - _ratio(trace["covered_s"], wall))
    values.update(
        {
            "trace.wall_s": wall,
            "trace.unattributed_share": unattributed,
            "trace.overhead_share": _ratio(traced_cost - base_cost, base_cost),
            "trace.coverage_ok": 1 if unattributed <= 0.10 else 0,
        }
    )
    for name in OTHER:
        values.setdefault(name, other.get(name, 0))
    return values
