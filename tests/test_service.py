"""Tests for the scheduling service core (:mod:`repro.service`).

The service contract under test:

* the content-addressed schedule cache keys on the platform's *physics*
  plus the full solver request — keys are stable across process
  restarts, any parameter or tolerance change invalidates; a hit is
  answered from the stored wire document (byte-identical to decoding
  and re-encoding it), and each response and each decoded result is
  a copy of its own;
* cached and coalesced results are **identical** to direct
  :func:`~repro.algorithms.registry.guarded_solve` calls (the
  acceptance bound is 1e-9; the deterministic fields match exactly),
  including rejected-certificate / crash fallback paths;
* session-shared engines attribute per-request stats without double
  counting, and the engine LRU stays bounded;
* every result leaving the server carries an accepted
  :class:`~repro.safety.certificate.SafetyCertificate` or an explicit
  fallback record, and ``repro stats`` surfaces the serve session.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.registry import get_solver, guarded_solve
from repro.api import evaluate as api_evaluate, load_platform
from repro.engine import ThermalEngine
from repro.errors import ScheduleError, SolverError
from repro.platform import paper_platform
from repro.power import big_little_power_model
from repro.safety.faults import FaultSpec
from repro.schedule.periodic import PeriodicSchedule
from repro.schedule.serialization import (
    result_from_dict,
    result_to_dict,
    schedule_to_dict,
)
from repro.service import (
    RequestCoalescer,
    ScheduleCache,
    ScheduleServer,
    SchedulerSession,
    platform_hash,
    reset_default_session,
    schedule_cache_key,
    send_requests,
)
from repro.service import cache as service_cache, session as service_session

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SPEC2 = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}
SPEC3 = {"n_cores": 3, "n_levels": 2, "t_max_c": 65.0}


def _deterministic(doc: dict) -> dict:
    """The timing-free fields of a result document (bitwise comparable)."""
    return {
        "name": doc["name"],
        "throughput": doc["throughput"],
        "peak_theta": doc["peak_theta"],
        "feasible": doc["feasible"],
        "schedule": doc["schedule"],
        "certificate": doc["certificate"],
        "fallback": (doc.get("details") or {}).get("fallback"),
    }


def _direct_solve_doc(spec_dict: dict, solver: str, params: dict) -> dict:
    """Reference: guarded_solve on a fresh engine, as a wire document."""
    engine = ThermalEngine(load_platform("paper", **spec_dict))
    result = guarded_solve(get_solver(solver), engine, **params)
    return result_to_dict(result)


@pytest.fixture()
def session() -> SchedulerSession:
    """A fresh session (no process-wide state)."""
    return SchedulerSession()


@pytest.fixture(autouse=True)
def _isolated_default_session():
    """Tests here must not leak warm default-session state across tests."""
    reset_default_session()
    yield
    reset_default_session()


class TestPlatformHash:
    def test_same_content_same_hash(self):
        a = platform_hash(load_platform("paper", **SPEC2))
        b = platform_hash(load_platform({"name": "paper", **SPEC2}))
        assert a == b and len(a) == 32

    def test_physics_changes_hash(self):
        base = platform_hash(load_platform("paper", **SPEC2))
        assert platform_hash(load_platform("paper", **dict(SPEC2, t_max_c=55.0))) != base
        assert platform_hash(load_platform("paper", **dict(SPEC2, n_cores=3))) != base
        assert platform_hash(load_platform("paper", **dict(SPEC2, tau=1e-5))) != base

    def test_big_little_never_collides_with_homogeneous(self):
        base = paper_platform(2, n_levels=2, t_max_c=65.0)
        hetero = paper_platform(
            2, n_levels=2, t_max_c=65.0,
            power=big_little_power_model(big_cores=[0], n_cores=2),
        )
        assert platform_hash(base) != platform_hash(hetero)


class TestScheduleCacheKey:
    def test_any_param_change_invalidates(self):
        phash = platform_hash(load_platform("paper", **SPEC2))
        base = schedule_cache_key(phash, "AO", {"m_cap": 8}, 0.05)
        assert schedule_cache_key(phash, "AO", {"m_cap": 16}, 0.05) != base
        assert schedule_cache_key(phash, "AO", {"m_cap": 8}, 0.01) != base
        assert schedule_cache_key(phash, "AO", {"m_cap": 8}, None) != base
        assert schedule_cache_key(phash, "PCO", {"m_cap": 8}, 0.05) != base

    def test_param_spelling_is_canonicalized(self):
        phash = platform_hash(load_platform("paper", **SPEC2))
        a = schedule_cache_key(phash, "AO", {"shift_grid": (4, 8)}, None)
        b = schedule_cache_key(phash, "AO", {"shift_grid": [4, 8]}, None)
        assert a == b

    def test_margin_policy_in_key(self):
        """``"shrink"`` results must not collide with plain solves, while
        the no-op spellings (None / "off") request the same solve and
        share its key."""
        phash = platform_hash(load_platform("paper", **SPEC2))
        base = schedule_cache_key(phash, "AO", {"m_cap": 8}, 0.05)
        off = schedule_cache_key(
            phash, "AO", {"m_cap": 8}, 0.05, margin_policy="off"
        )
        none = schedule_cache_key(
            phash, "AO", {"m_cap": 8}, 0.05, margin_policy=None
        )
        shrink = schedule_cache_key(
            phash, "AO", {"m_cap": 8}, 0.05, margin_policy="shrink"
        )
        assert base == off == none
        assert shrink != base

    def test_key_stable_across_process_restart(self):
        """A new process derives the same keys — sha256 over canonical
        JSON, no per-process salt."""
        spec_json = json.dumps(SPEC2)
        code = (
            "import json, sys\n"
            "from repro.api import load_platform\n"
            "from repro.service import platform_hash, schedule_cache_key\n"
            f"spec = json.loads({spec_json!r})\n"
            "phash = platform_hash(load_platform('paper', **spec))\n"
            "print(phash)\n"
            "print(schedule_cache_key(phash, 'AO', {'m_cap': 8}, 0.05))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        phash_line, key_line = proc.stdout.split()
        phash = platform_hash(load_platform("paper", **SPEC2))
        assert phash_line == phash
        assert key_line == schedule_cache_key(phash, "AO", {"m_cap": 8}, 0.05)


class TestScheduleCache:
    DOC = {"status": "ok", "result": None, "detail": "d"}

    def test_memory_roundtrip_and_counters(self):
        cache = ScheduleCache()
        assert cache.get("k" * 32) is None
        cache.put("k" * 32, dict(self.DOC))
        assert cache.get("k" * 32) == self.DOC
        stats = cache.stats()
        assert stats["memory_hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1 and stats["hit_rate"] == 0.5

    def test_memory_lru_bound(self, monkeypatch):
        monkeypatch.setattr(service_cache, "MEMORY_SIZE", 2)
        cache = ScheduleCache()
        for i in range(4):
            cache.put(f"key{i}", dict(self.DOC, detail=str(i)))
        assert len(cache) == 2
        assert cache.get("key0") is None and cache.get("key3") is not None


class TestSession:
    def test_solve_matches_direct_guarded_solve(self, session):
        outcome = session.solve(SPEC2, "AO", {"m_cap": 8})
        direct = _direct_solve_doc(SPEC2, "AO", {"m_cap": 8})
        assert outcome.status == "ok" and not outcome.cached
        assert _deterministic(result_to_dict(outcome.result)) == _deterministic(direct)
        assert outcome.certificate is not None and outcome.certificate.accepted

    def test_repeat_request_is_served_from_cache_bitwise(self, session):
        first = session.solve(SPEC2, "AO", {"m_cap": 8})
        second = session.solve(SPEC2, "AO", {"m_cap": 8})
        assert second.cached and not first.cached
        assert second.cache_key == first.cache_key
        # The cached outcome rebuilds from the stored wire document —
        # JSON float64 round-trips are exact, so this is bitwise.
        assert result_to_dict(second.result) == result_to_dict(first.result)
        assert second.stats is None  # no thermal work ran
        assert session.cache_hits == 1
        # Closed-loop traces are dataclasses of arrays; the cache stores
        # them field by field, so a hit returns the same numbers.
        for solver in ("integral", "reactive"):
            first = session.solve(SPEC2, solver, {"horizon": 0.02})
            second = session.solve(SPEC2, solver, {"horizon": 0.02})
            assert second.cached and not first.cached
            assert result_to_dict(second.result) == result_to_dict(first.result)
            assert (
                second.result.details["trace"]["levels"]
                == first.result.details["trace"].levels.tolist()
            )

    @pytest.mark.parametrize(
        "solver, params", [("integral", {"horizon": 0.02}), ("AO", {"m_cap": 8})]
    )
    def test_cache_hits_do_not_share_details(self, session, solver, params):
        """Each hit decodes its own details: mutating one hit's nested
        lists leaves the next hit of the same key untouched."""
        session.solve(SPEC2, solver, params)
        first = session.solve(SPEC2, solver, params).result.details
        second = session.solve(SPEC2, solver, params).result.details
        for key, value in first.items():
            if isinstance(value, (dict, list)):
                assert value is not second[key], key
        if solver == "integral":
            levels = first["trace"]["levels"]
            n_levels = len(levels)
            levels.append("corrupt")
            first["gains"].append("corrupt")
            third = session.solve(SPEC2, solver, params).result.details
            assert len(third["trace"]["levels"]) == n_levels
            assert "corrupt" not in third["gains"]

    def test_fault_spec_param_is_keyed_and_cached(self, session):
        """A dataclass parameter canonicalizes field by field, so it
        neither crashes the cache key nor splits repeats of one solve."""
        params = {"faults": FaultSpec(sensor_noise_sigma=0.1), "horizon": 0.02}
        first = session.solve("paper", "reactive", params)
        second = session.solve("paper", "reactive", params)
        assert first.status == "ok" and not first.cached
        assert second.cached and second.cache_key == first.cache_key

    def test_param_change_misses_the_cache(self, session):
        session.solve(SPEC2, "AO", {"m_cap": 8})
        other = session.solve(SPEC2, "AO", {"m_cap": 16})
        assert not other.cached and session.cache_hits == 0

    def test_infeasible_is_an_answer_and_is_cached(self, session):
        spec = dict(SPEC3, t_max_c=37.0)
        first = session.solve(spec, "EXS", {})
        second = session.solve(spec, "EXS", {})
        assert first.status == "infeasible" and first.result is None
        assert second.status == "infeasible" and second.cached
        assert second.detail == first.detail

    def test_evaluate_many_stepup_rows(self, session):
        schedules = [
            session.solve(spec, "AO", {"m_cap": 8}).result.schedule
            for spec in (SPEC2, SPEC3)
        ]
        rows = list(zip((SPEC2, SPEC3), schedules))
        batched = session.evaluate_many(rows, general=False)
        for (spec, schedule), ev in zip(rows, batched):
            # One row per platform: the batch equals the one-row call.
            assert ev == session.evaluate(spec, schedule, general=False)
        down = PeriodicSchedule([0.01, 0.01], [[1.2, 1.2], [0.8, 0.8]])
        with pytest.raises(ScheduleError, match="step-up"):
            session.evaluate_many([(SPEC2, down)], general=False)

    @pytest.mark.parametrize("platform", ["paper", "tech-16-io"])
    @pytest.mark.parametrize("solver", ["AO", "PCO"])
    def test_solve_certificate_is_the_certify_op(self, session, platform, solver):
        """A solve's certificate and a certify request of its schedule
        take one route path, so every route's peak is the same float."""
        params = dict(get_solver(solver).quick)
        result = session.solve(platform, solver, params).result
        claims = {
            "claimed_peak": result.peak_theta,
            "claimed_feasible": result.feasible,
            "claimed_throughput": result.throughput,
        }
        cert = session.certify_schedule(platform, result.schedule, claims)
        assert cert.method_peaks == result.certificate.method_peaks
        assert cert == result.certificate

    def test_unknown_param_raises_before_the_guarded_path(self, session):
        with pytest.raises(SolverError, match="does not accept"):
            session.solve(SPEC2, "EXS", {"m_cap": 8})
        # A malformed request is not a solver failure: nothing was
        # counted, nothing was cached.
        assert session.solve_requests == 0 and len(session.cache) == 0

    def test_engine_lru_is_bounded(self, monkeypatch):
        monkeypatch.setattr(service_session, "MAX_ENGINES", 2)
        session = SchedulerSession()
        for n in (2, 3, 6):
            session.engine_for({"n_cores": n, "n_levels": 2, "t_max_c": 65.0})
        assert session.n_engines == 2
        assert session.engines_built == 3 and session.engines_evicted == 1

    def test_fresh_solve_builds_the_platform_once(self, session, monkeypatch):
        from repro.platforms import PlatformSpec

        builds = []
        build = PlatformSpec.build

        def counted(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(PlatformSpec, "build", counted)
        outcome = session.solve(SPEC2, "LNS")
        assert outcome.status == "ok" and not outcome.cached
        assert len(builds) == 1
        assert _deterministic(result_to_dict(outcome.result)) == _deterministic(
            _direct_solve_doc(SPEC2, "LNS", {})
        )

    def test_engines_are_shared_by_content(self, session):
        a = session.engine_for(SPEC2)
        b = session.engine_for(dict(SPEC2))
        c = session.engine_for(load_platform("paper", **SPEC2))
        assert a is b is c

    def test_shared_engine_stats_never_double_count(self, session):
        """Satellite: per-request ``stats_since`` checkpointing — the sum
        of per-request stats equals the engine's total work."""
        outcomes = [
            session.solve(SPEC2, "AO", {"m_cap": 8}),
            session.solve(SPEC2, "AO", {"m_cap": 16}),
            session.solve(SPEC2, "PCO", {"m_cap": 8}),
        ]
        engine = session.engine_for(SPEC2)
        total = engine.stats()
        for field in (
            "steady_state_solves",
            "steady_state_cache_hits",
            "peak_evals",
            "eigen_cache_hits",
            "eigen_cache_misses",
        ):
            per_request = sum(getattr(o.stats, field) for o in outcomes)
            assert per_request == getattr(total, field), field

    def test_cached_solve_does_zero_thermal_work(self, session):
        session.solve(SPEC2, "AO", {"m_cap": 8})
        engine = session.engine_for(SPEC2)
        mark = engine.checkpoint()
        session.solve(SPEC2, "AO", {"m_cap": 8})
        since = engine.stats_since(mark)
        assert since.peak_evals == 0 and since.steady_state_solves == 0

    def test_fallback_outcome_survives_the_cache(self, session):
        """A degraded solve caches its fallback record and certificate."""

        def raiser(*_a, **_k):
            raise SolverError("injected crash for the service test")

        crashing = dataclasses.replace(get_solver("AO"), func=raiser)
        first = session.solve(SPEC2, crashing, {"m_cap": 8})
        second = session.solve(SPEC2, crashing, {"m_cap": 8})
        direct = guarded_solve(
            dataclasses.replace(get_solver("AO"), func=raiser),
            ThermalEngine(load_platform("paper", **SPEC2)),
            m_cap=8,
        )
        assert second.cached
        for outcome in (first, second):
            fallback = outcome.result.details["fallback"]
            assert fallback["requested"] == "AO"
            assert fallback == direct.details["fallback"]
            assert outcome.certificate.accepted
        assert _deterministic(result_to_dict(second.result)) == _deterministic(
            result_to_dict(direct)
        )

    def test_evaluate_many_matches_scalar_evaluate(self, session):
        schedules = [
            session.solve(spec, "AO", {"m_cap": 8}).result.schedule
            for spec in (SPEC2, SPEC3)
        ]
        batched = session.evaluate_many(
            list(zip((SPEC2, SPEC3), schedules))
        )
        for spec, schedule, ev in zip((SPEC2, SPEC3), schedules, batched):
            scalar = api_evaluate(ThermalEngine(load_platform("paper", **spec)), schedule)
            assert ev.peak_theta == pytest.approx(scalar.peak_theta, abs=1e-9)
            assert ev.feasible == scalar.feasible
            assert ev.throughput == scalar.throughput

    def test_certify_many_mixed_platforms(self, session):
        results = [
            session.solve(spec, "AO", {"m_cap": 8}).result
            for spec in (SPEC2, SPEC3)
        ]
        certs = session.certify_many(
            [
                (spec, r.schedule, {"claimed_peak": r.peak_theta})
                for spec, r in zip((SPEC2, SPEC3), results)
            ]
        )
        assert all(c.accepted for c in certs)


#: More platforms than an engine LRU of one holds: paper 2/3/6 cores x
#: 2/3 levels x 55/65 C, plus the heterogeneous preset.
STREAM_PLATFORMS = [
    {"name": "paper", "n_cores": n, "n_levels": lv, "t_max_c": t}
    for n in (2, 3, 6)
    for lv in (2, 3)
    for t in (55.0, 65.0)
] + [{"name": "big_little"}]

STREAM_SOLVERS = (
    ("AO", {"m_cap": 8}),
    ("PCO", {"m_cap": 8, "shift_grid": 4}),
    ("EXS", {}),
    ("LNS", {}),
)


def _interleaved_stream(solvers=STREAM_SOLVERS):
    """Every solver over every platform, solver by solver, so a
    platform's next request comes only after all other platforms'."""
    return [
        (platform, name, params)
        for name, params in solvers
        for platform in STREAM_PLATFORMS
    ]


def _untimed(doc: dict) -> dict:
    """A solve response without its stats and wall-clock keys."""
    doc = dict(doc, stats=None)
    if doc["result"] is not None:
        doc["result"] = dict(doc["result"], runtime_s=None, stats=None)
    return doc


class TestEngineReuse:
    """The engine LRU decides what a solve reuses, never what it answers."""

    def test_eviction_never_changes_an_answer(self, monkeypatch):
        stream = _interleaved_stream()

        def solve_all():
            session = SchedulerSession()
            docs = [_untimed(session.solve(*req).as_doc()) for req in stream]
            return docs, session

        default_docs, default = solve_all()
        monkeypatch.setattr(service_session, "MAX_ENGINES", 1)
        evicting_docs, evicting = solve_all()
        assert default.engines_evicted == 0
        assert evicting.engines_evicted == len(stream) - 1
        assert evicting_docs == default_docs

    def test_interleaved_ao_pco_reuses_each_core(self, monkeypatch):
        # `repro.algorithms.ao` resolves to the function, not the module.
        ao_module = sys.modules["repro.algorithms.ao"]
        builds = []
        build = ao_module._build_core

        def counted(engine, period, m_cap, *args):
            builds.append((id(engine), m_cap))
            return build(engine, period, m_cap, *args)

        monkeypatch.setattr(ao_module, "_build_core", counted)
        session = SchedulerSession()
        stream = _interleaved_stream(STREAM_SOLVERS[:2])
        outcomes = [session.solve(*req) for req in stream]
        assert all(o.status == "ok" for o in outcomes)
        assert session.engines_built == len(STREAM_PLATFORMS)
        assert len(builds) == len(set(builds)) == len(STREAM_PLATFORMS)


class TestHeterogeneousCertificates:
    """Satellite: the cross-route certificate check covers big.LITTLE."""

    def _hetero_engine(self, n_cores=2):
        return ThermalEngine(
            paper_platform(
                n_cores, n_levels=2, t_max_c=65.0,
                power=big_little_power_model(
                    big_cores=list(range(max(1, n_cores // 2))),
                    n_cores=n_cores,
                ),
            )
        )

    def test_guarded_solve_certifies_big_little(self):
        engine = self._hetero_engine()
        result = guarded_solve(get_solver("AO"), engine, m_cap=8)
        cert = result.certificate
        assert cert is not None and cert.accepted and cert.independent
        assert len(cert.method_peaks) >= 2

    def test_session_serves_big_little(self, session):
        platform = paper_platform(
            2, n_levels=2, t_max_c=65.0,
            power=big_little_power_model(big_cores=[0], n_cores=2),
        )
        outcome = session.solve(platform, "AO", {"m_cap": 8})
        assert outcome.status == "ok" and outcome.certificate.accepted
        again = session.solve(platform, "AO", {"m_cap": 8})
        assert again.cached

    def test_cli_certify_big_little_grid(self, capsys):
        from repro.cli import main

        code = main([
            "certify", "AO", "--quick",
            "-o", "core_counts=2",
            "-o", "t_max_values=65",
            "-o", "platforms=paper,big_little",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[big_little]" in out
        assert "rejected" in out and " 0 rejected" in out

    def test_cli_certify_rejects_unknown_flavor(self, capsys):
        from repro.cli import main

        assert main(["certify", "AO", "-o", "platforms=vulcan"]) == 2
        assert "unknown platform flavor" in capsys.readouterr().err


class TestCoalescer:
    def _solve_request(self, spec=SPEC2, solver="AO", m_cap=8):
        return {
            "op": "solve",
            "platform": dict(spec),
            "solver": solver,
            "params": {"m_cap": m_cap},
        }

    def test_concurrent_identical_requests_coalesce_bitwise(self, session):
        coalescer = RequestCoalescer(session)

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(self._solve_request()) for _ in range(5))
            )

        responses = asyncio.run(run())
        direct = _direct_solve_doc(SPEC2, "AO", {"m_cap": 8})
        assert all(r["ok"] for r in responses)
        assert [r["coalesced"] for r in responses] == [5] * 5
        assert coalescer.coalesced_batches == 1
        assert coalescer.coalesced_requests == 5
        # One solve ran; every response carries the identical document.
        assert session.solve_requests == 1
        docs = [_deterministic(r["result"]) for r in responses]
        assert all(doc == _deterministic(direct) for doc in docs)

    def test_coalesced_responses_do_not_share_containers(self, session):
        """Mutating one coalesced response leaves its twin unchanged."""
        coalescer = RequestCoalescer(session)

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(self._solve_request()) for _ in range(2))
            )

        a, b = asyncio.run(run())
        assert a["coalesced"] == b["coalesced"] == 2
        expected = json.dumps(b)
        a["result"]["schedule"]["intervals"].append("corrupt")
        a["result"]["details"]["corrupt"] = True
        a["certificate"]["reasons"].append("corrupt")
        a["certificate"]["method_peaks"]["corrupt"] = 0.0
        assert json.dumps(b) == expected

    def test_concurrent_equals_sequential_for_distinct_requests(self, session):
        requests = [
            self._solve_request(SPEC2, "AO", 8),
            self._solve_request(SPEC2, "AO", 16),
            self._solve_request(SPEC3, "LNS", 8),
        ]
        requests[2]["params"] = {}

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(r) for r in requests)
            )

        coalescer = RequestCoalescer(session)
        responses = asyncio.run(run())
        for request, response in zip(requests, responses):
            direct = _direct_solve_doc(
                request["platform"], request["solver"], request["params"]
            )
            assert response["ok"], response
            assert _deterministic(response["result"]) == _deterministic(direct)

    def test_rejected_certificate_fallback_parity(self, session, monkeypatch):
        """Satellite: the coalesced path and the direct path degrade to
        the *same* certified fallback when a solver lies."""
        import repro.algorithms.registry as registry

        honest = get_solver("AO")

        def liar(engine, **params):
            r = honest.func(engine, **params)
            return dataclasses.replace(r, peak_theta=r.peak_theta - 5.0)

        lying = dataclasses.replace(honest, func=liar)
        monkeypatch.setitem(registry.SOLVERS, "AO", lying)
        coalescer = RequestCoalescer(session)

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(self._solve_request(m_cap=16)) for _ in range(3))
            )

        responses = asyncio.run(run())
        direct = guarded_solve(
            lying, ThermalEngine(load_platform("paper", **SPEC2)), m_cap=16
        )
        assert direct.details["fallback"]["failure"].startswith(
            "certificate rejected"
        )
        for response in responses:
            assert response["ok"] and response["coalesced"] == 3
            doc = response["result"]
            assert doc["details"]["fallback"] == direct.details["fallback"]
            assert _deterministic(doc) == _deterministic(result_to_dict(direct))
            assert response["certificate"]["accepted"]

    def test_evaluate_requests_share_one_grid_call(self, session):
        result = session.solve(SPEC2, "AO", {"m_cap": 8}).result
        schedule_doc = schedule_to_dict(result.schedule)
        coalescer = RequestCoalescer(session)
        request = {
            "op": "evaluate",
            "platform": dict(SPEC2),
            "schedule": schedule_doc,
        }

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(dict(request)) for _ in range(4))
            )

        responses = asyncio.run(run())
        scalar = api_evaluate(
            ThermalEngine(load_platform("paper", **SPEC2)), result.schedule
        )
        assert all(r["ok"] and r["coalesced"] == 4 for r in responses)
        for r in responses:
            assert r["evaluation"]["peak_theta"] == pytest.approx(
                scalar.peak_theta, abs=1e-9
            )
            assert r["evaluation"]["feasible"] == scalar.feasible

    def test_unknown_op_and_bad_request_get_error_docs(self, session):
        coalescer = RequestCoalescer(session)

        async def run():
            return await asyncio.gather(
                coalescer.submit({"op": "transmogrify"}),
                coalescer.submit({"op": "solve", "solver": "nope"}),
                coalescer.submit(self._solve_request()),
            )

        bad_op, bad_solver, good = asyncio.run(run())
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]["message"]
        assert not bad_solver["ok"]
        assert good["ok"]


def _served(coalescer: RequestCoalescer, request: dict) -> dict:
    """One request through the coalescer, alone in its batch."""

    async def run():
        return await coalescer.submit(dict(request))

    return asyncio.run(run())


class TestHitPath:
    """A cache hit is answered from the stored wire document."""

    KEYS = [
        (SPEC2, "AO", {"m_cap": 8}),
        (SPEC2, "PCO", {"m_cap": 8}),
        (SPEC2, "EXS", {}),
        (SPEC2, "LNS", {}),
        (SPEC2, "integral", {"horizon": 0.02}),
        (SPEC2, "reactive", {"horizon": 0.02}),
        (dict(SPEC3, t_max_c=37.0), "EXS", {}),
    ]

    @staticmethod
    def _request(platform, solver, params) -> dict:
        return {
            "op": "solve",
            "platform": dict(platform),
            "solver": solver,
            "params": dict(params),
        }

    @staticmethod
    def _decoded_response(session, response: dict) -> dict:
        """The hit response as decoding and re-encoding the stored
        document builds it (the reference the stored copy must equal)."""
        stored = session.cache.get(response["cache_key"])
        result = result_from_dict(stored["result"]) if stored["result"] else None
        cert = result.certificate if result is not None else None
        return {
            "ok": True,
            "op": "solve",
            "status": stored["status"],
            "result": result_to_dict(result) if result is not None else None,
            "detail": stored["detail"],
            "cached": True,
            "platform": response["platform"],
            "cache_key": response["cache_key"],
            "certificate": cert.as_dict() if cert is not None else None,
            "stats": None,
            "coalesced": 1,
        }

    @pytest.mark.parametrize(
        "platform, solver, params",
        KEYS,
        ids=[k[1] for k in KEYS[:-1]] + ["infeasible"],
    )
    def test_hit_response_is_byte_identical(
        self, session, platform, solver, params
    ):
        coalescer = RequestCoalescer(session)
        request = self._request(platform, solver, params)
        miss = _served(coalescer, request)
        hit = _served(coalescer, request)
        assert miss["ok"] and not miss["cached"] and hit["cached"]
        assert json.dumps(hit) == json.dumps(self._decoded_response(session, hit))
        if solver == "LNS":
            # A miss answers from the document it stores, too.
            assert json.dumps(dict(miss, cached=True, stats=None)) == json.dumps(hit)

    def test_mutating_a_response_leaves_the_next_hit_unchanged(self, session):
        params = {"horizon": 0.02}
        first = session.solve(SPEC2, "integral", params)
        reference = first.as_doc()
        expected = json.dumps([reference["result"], reference["certificate"]])
        for outcome in (first, session.solve(SPEC2, "integral", params)):
            doc = outcome.as_doc()
            doc["result"]["schedule"]["intervals"].append("corrupt")
            doc["result"]["details"]["trace"]["levels"].append("corrupt")
            doc["result"]["certificate"]["method_peaks"]["corrupt"] = 0.0
            doc["certificate"]["method_peaks"]["corrupt"] = 0.0
            doc["certificate"]["reasons"].append("corrupt")
        again = session.solve(SPEC2, "integral", params).as_doc()
        assert again["cached"]
        assert json.dumps([again["result"], again["certificate"]]) == expected

    def test_served_hit_decodes_nothing(self, session, monkeypatch):
        coalescer = RequestCoalescer(session)
        request = self._request(SPEC2, "AO", {"m_cap": 8})
        _served(coalescer, request)
        decodes = []

        def counted(doc):
            decodes.append(doc)
            return result_from_dict(doc)

        monkeypatch.setattr(service_session, "result_from_dict", counted)
        assert _served(coalescer, request)["cached"]
        assert decodes == []
        # A caller reading the live result decodes it, once per outcome.
        outcome = session.solve(SPEC2, "AO", {"m_cap": 8})
        assert outcome.result is outcome.result and len(decodes) == 1
        assert outcome.certificate.accepted

    def test_served_solve_derives_its_keys_once(self, session, monkeypatch):
        from repro.platforms import PlatformSpec

        keys, canonicals = [], []
        cache_key = service_session.schedule_cache_key
        canonical = PlatformSpec.canonical

        def counted_key(*args, **kwargs):
            keys.append(args)
            return cache_key(*args, **kwargs)

        def counted_canonical(spec):
            canonicals.append(spec)
            return canonical(spec)

        monkeypatch.setattr(service_session, "schedule_cache_key", counted_key)
        monkeypatch.setattr(PlatformSpec, "canonical", counted_canonical)
        coalescer = RequestCoalescer(session)
        request = self._request(SPEC2, "LNS", {})
        for cached in (False, True):
            keys.clear()
            canonicals.clear()
            assert _served(coalescer, request)["cached"] is cached
            assert len(keys) == 1 and len(canonicals) == 1


class TestServer:
    def _requests(self, schedule_doc, claims):
        solves = [
            {
                "op": "solve",
                "platform": dict(SPEC2),
                "solver": "AO",
                "params": {"m_cap": 8},
            }
            for _ in range(4)
        ]
        return solves + [
            {"op": "solve", "platform": dict(SPEC2), "solver": "LNS"},
            {
                "op": "evaluate",
                "platform": dict(SPEC2),
                "schedule": schedule_doc,
            },
            {
                "op": "certify",
                "platform": dict(SPEC2),
                "schedule": schedule_doc,
                "claims": claims,
            },
            {"op": "ping"},
        ]

    def test_end_to_end_mixed_ops_with_journal(self, tmp_path, session):
        seed = session.solve(SPEC2, "AO", {"m_cap": 8})
        schedule_doc = schedule_to_dict(seed.result.schedule)
        claims = {"claimed_peak": seed.result.peak_theta}
        run_dir = tmp_path / "serve"

        async def scenario():
            server = ScheduleServer(run_dir=run_dir)
            host, port = await server.start()
            serve_task = asyncio.ensure_future(server.serve_until_shutdown())
            work = await send_requests(
                host, port, self._requests(schedule_doc, claims)
            )
            stats = (await send_requests(host, port, [{"op": "stats"}]))[0]
            await send_requests(host, port, [{"op": "shutdown"}])
            await serve_task
            return work, stats

        work, stats = asyncio.run(scenario())
        assert all(r["ok"] for r in work)

        solves = [r for r in work if r.get("op") == "solve"]
        assert len(solves) == 5
        # Every served solve carries an accepted certificate or an
        # explicit fallback record — never a bare uncertified result.
        for r in solves:
            cert = r.get("certificate")
            fallback = (r["result"].get("details") or {}).get("fallback")
            assert (cert and cert["accepted"]) or fallback is not None
        identical = [r for r in solves if r["coalesced"] == 4]
        assert len(identical) == 4
        assert len({json.dumps(r["result"], sort_keys=True) for r in identical}) == 1

        certifies = [r for r in work if r.get("op") == "certify"]
        assert certifies and all(r["accepted"] for r in certifies)

        coalescer_stats = stats["stats"]["coalescer"]
        assert coalescer_stats["coalesced_batches"] >= 1
        assert coalescer_stats["largest_batch"] >= 4
        assert stats["stats"]["served"] >= len(work)

        # The journal makes the serve session a first-class citizen of
        # ``repro stats``.
        from repro.obs import run_dir_summary

        summary = run_dir_summary(run_dir)
        assert summary.service is not None
        assert summary.status_counts.get("ok", 0) == 7  # work ops only
        text = summary.format()
        assert "service:" in text and "coalescing:" in text
        assert "largest batch" in text

    def test_malformed_lines_get_error_responses(self):
        async def scenario():
            server = ScheduleServer()
            host, port = await server.start()
            serve_task = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            await send_requests(host, port, [{"op": "shutdown"}])
            await serve_task
            return json.loads(line), server

        response, server = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"]["type"] == "JSONDecodeError"
        assert server.failed >= 1


class TestDefaultSessionWiring:
    def test_api_evaluate_uses_the_shared_engine(self):
        from repro.service.session import default_session

        session = default_session()
        schedule = session.solve(SPEC2, "AO", {"m_cap": 8}).result.schedule
        built = session.engines_built
        api_evaluate(load_platform("paper", **SPEC2), schedule)
        # The evaluation ran on the session's engine, not a fresh one.
        assert session.engines_built == built
        # Physics the session has not seen becomes one session engine.
        api_evaluate(load_platform("paper", **dict(SPEC2, t_max_c=60.0)), schedule)
        assert session.engines_built == built + 1

    def test_cli_solve_repeat_is_served_from_cache(self, capsys):
        from repro.cli import main

        argv = ["solve", "AO", "-o", "n_cores=2", "-o", "m_cap=8"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "engine stats:" in first
        assert "[served from schedule cache" not in first
        # The same process repeats the request: the default session's
        # schedule cache answers it.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[served from schedule cache" in second
        first_summary = first.splitlines()[0]
        assert second.splitlines()[0] == first_summary
