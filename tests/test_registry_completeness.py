"""Registry completeness: every solver is tested, certified, cacheable.

Parametrized directly over :data:`repro.algorithms.registry.SOLVERS`, so
registering a new solver *automatically* fails this suite until the
solver is (a) added to the cross-solver feasible-parity sweep in
``tests/test_registry.py``, (b) shown to attach an accepted-or-fallback
certificate through :func:`guarded_solve`, and (c) shown to round-trip
through the :class:`~repro.service.cache.ScheduleCache` key and wire
format the serving layer memoizes outcomes with.

The same parametrization checks the entry-point contract: every solver
and every fallback hop gets its ``runtime_s`` and ``stats`` from
:func:`repro.engine.engine_entrypoint`, and the ``solve/<name>`` span
carries exactly those counters.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.safety.fallback as fallback
from repro.algorithms.registry import SOLVERS, guarded_solve
from repro.engine import ThermalEngine
from repro.errors import SolverError
from repro.obs import capture_spans
from repro.schedule.serialization import result_from_dict, result_to_dict
from repro.service.cache import ScheduleCache, platform_hash, schedule_cache_key

from tests.test_registry import ALL_NAMES, QUICK_PARAMS

ALL_SOLVERS = sorted(SOLVERS)


def cheap_params(name: str) -> dict:
    """The same fast per-solver parameters the parity sweep uses."""
    return dict(QUICK_PARAMS.get(name, {}))


@pytest.fixture(scope="module")
def guarded_results(platform3):
    """One guarded solve per registered solver, shared by the module."""
    return {
        name: guarded_solve(name, platform3, **cheap_params(name))
        for name in ALL_SOLVERS
    }


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_solver_appears_in_parity_sweep(name):
    """(a) The feasible-parity sweep covers every registered solver."""
    assert name in ALL_NAMES, (
        f"solver {name!r} is registered but missing from the parity sweep "
        "in tests/test_registry.py (add it to ALL_NAMES, with QUICK_PARAMS "
        "if it needs them)"
    )


def test_parity_sweep_names_all_registered():
    """The sweep list cannot drift ahead of the registry either."""
    assert set(ALL_NAMES) == set(SOLVERS)


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_guarded_solve_certifies_or_falls_back(name, guarded_results):
    """(b) Every solver leaves guarded_solve with an accepted certificate,
    either its own or one earned by a recorded fallback hop."""
    result = guarded_results[name]
    assert result.certificate is not None
    assert result.certificate.accepted
    fallback = result.details.get("fallback")
    if fallback is not None:
        assert fallback.get("hop")
        assert fallback.get("failure")


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_outcome_round_trips_through_schedule_cache(
    name, guarded_results, platform3
):
    """(c) The solve outcome survives the cache's key + wire format:
    store the serialized result, passed through JSON text, under its
    content key, read it back from the cache, and compare."""
    result = guarded_results[name]
    key = schedule_cache_key(
        platform_hash(platform3), name, cheap_params(name), 1e-3
    )

    cache = ScheduleCache()
    cache.put(key, json.loads(json.dumps({"result": result_to_dict(result)})))
    doc = cache.get(key)
    assert doc is not None and cache.memory_hits == 1

    restored = result_from_dict(doc["result"])
    assert restored.name == result.name
    assert restored.throughput == result.throughput
    assert restored.peak_theta == result.peak_theta
    assert restored.feasible == result.feasible


def test_cache_keys_are_distinct_per_solver(platform3):
    """Same platform, same tolerance: solver name alone must split keys."""
    phash = platform_hash(platform3)
    keys = {
        schedule_cache_key(phash, name, cheap_params(name), 1e-3)
        for name in ALL_SOLVERS
    }
    assert len(keys) == len(ALL_SOLVERS)


def test_cache_key_canonicalizes_param_spelling():
    """Tuples vs lists (and numpy scalars) must not split the cache."""
    import numpy as np

    a = schedule_cache_key("p", "integral", {"ki": (1.0, 2.0)}, 1e-3)
    b = schedule_cache_key("p", "integral", {"ki": [1.0, np.float64(2.0)]}, 1e-3)
    assert a == b


#: ``solve/<name>`` span attribute -> the ``EngineStats`` field it mirrors.
SPAN_COUNTERS = {
    "ss_solves": "steady_state_solves",
    "ss_cache_hits": "steady_state_cache_hits",
    "ss_batch_rows": "steady_state_batch_rows",
    "expm_applications": "expm_applications",
    "peak_evals": "peak_evals",
    "batch_calls": "batch_calls",
    "batch_candidates": "batch_candidates",
}

#: Every solver entry point plus every fallback hop.
ENTRY_POINTS = [("solver", name) for name in ALL_SOLVERS] + [
    ("hop", hop) for hop in fallback.FALLBACK_CHAIN
]
ENTRY_IDS = [f"{kind}-{name}" for kind, name in ENTRY_POINTS]


def _run_entry_point(kind: str, name: str, engine: ThermalEngine):
    if kind == "solver":
        return SOLVERS[name].func(engine, **cheap_params(name))
    return fallback.run_fallback_hop(name, engine)


@pytest.mark.parametrize("kind, name", ENTRY_POINTS, ids=ENTRY_IDS)
def test_entry_point_fills_runtime_and_stats(kind, name, platform3):
    """``result.stats`` is the engine work between call and return."""
    engine = ThermalEngine(platform3)
    mark = engine.checkpoint()
    result = _run_entry_point(kind, name, engine)
    assert result.stats == engine.stats_since(mark)
    assert result.runtime_s > 0


@pytest.mark.parametrize("kind, name", ENTRY_POINTS, ids=ENTRY_IDS)
def test_solve_span_counters_equal_result_stats(kind, name, platform3):
    """The root ``solve/<name>`` span and the result report one account."""
    engine = ThermalEngine(platform3)
    with capture_spans(isolate=True) as spans:
        result = _run_entry_point(kind, name, engine)
    root = next(s for s in spans if s.parent_id is None)
    assert root.name.startswith("solve/")
    assert {attr: root.attrs[attr] for attr in SPAN_COUNTERS} == {
        attr: getattr(result.stats, field) for attr, field in SPAN_COUNTERS.items()
    }


def test_fallback_to_best_constant_is_traced(platform3, monkeypatch):
    """A guarded solve that lands on ``best_constant`` shows its span."""

    def crash(*_args, **_kwargs):
        raise SolverError("injected crash")

    monkeypatch.setattr(fallback, "lns", crash)  # neighbor_rounding fails too
    spec = dataclasses.replace(SOLVERS["AO"], func=crash)
    with capture_spans(isolate=True) as spans:
        result = guarded_solve(spec, platform3)
    assert result.details["fallback"]["hop"] == "best_constant"
    hop_span = next(s for s in spans if s.name == "solve/best_constant")
    assert hop_span.attrs["ss_batch_rows"] == result.stats.steady_state_batch_rows
    assert hop_span.attrs["ss_solves"] == result.stats.steady_state_solves
