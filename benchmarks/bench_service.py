"""Service-core benchmarks: cache hit path, key derivation, coalesced grids.

What the serving layer's throughput claims rest on:

* a warm-cache solve derives its keys (the spec's canonical JSON, one
  memo lookup, one sha256 of the request document), looks the key up,
  and answers with a fresh-container copy of the stored wire document —
  nothing is decoded.  The ``repro serve`` smoke gate
  (``scripts/bench_serve_smoke.py``) demands ≥ 1000 req/s end-to-end,
  so the in-process hit path must be far below one millisecond;
* the content key itself (platform hash memoized, request document
  hashed) prices every request, hit or miss;
* ``evaluate_many`` turns R independent evaluations into one grid-kernel
  call — the coalescer's win over R one-row calls;
* a cold stream that interleaves AO and PCO over 13 platforms keeps
  every engine alive in the session's LRU, so each PCO reuses the AO
  core (m scan and TPT loop) its platform's AO solve built.
"""

import pytest

from repro.api import evaluate as api_evaluate
from repro.engine import ThermalEngine
from repro.platform import paper_platform
from repro.service import SchedulerSession, schedule_cache_key


@pytest.fixture(scope="module")
def warm_session():
    """A session with one solved (and therefore cached) AO request."""
    session = SchedulerSession()
    outcome = session.solve(
        {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}, "AO", {"m_cap": 8}
    )
    assert outcome.status == "ok"
    return session


def test_warm_cache_solve(benchmark, warm_session):
    """The serve hot path: an identical repeat request (memory hit)."""
    spec = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}

    def hit():
        return warm_session.solve(spec, "AO", {"m_cap": 8})

    outcome = benchmark(hit)
    assert outcome.cached and outcome.result.feasible


def test_warm_cache_response(benchmark, warm_session):
    """A served hit: the repeat request plus its wire response."""
    spec = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}

    def respond():
        return warm_session.solve(spec, "AO", {"m_cap": 8}).as_doc()

    doc = benchmark(respond)
    assert doc["cached"] and doc["certificate"]["accepted"]


def test_schedule_cache_key(benchmark, warm_session):
    """Key derivation alone: platform hash (memoized) + request sha256."""
    spec = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}

    def derive():
        return schedule_cache_key(
            warm_session.platform_key(spec), "AO", {"m_cap": 8}, 0.05
        )

    key = benchmark(derive)
    assert len(key) == 32


@pytest.fixture(scope="module")
def evaluation_rows():
    """Eight (platform spec, schedule) rows over two platforms."""
    session = SchedulerSession()
    rows = []
    for n in (2, 3):
        spec = {"n_cores": n, "n_levels": 2, "t_max_c": 65.0}
        schedule = session.solve(spec, "AO", {"m_cap": 8}).result.schedule
        rows.extend((spec, schedule) for _ in range(4))
    return rows


def test_evaluate_many_grid(benchmark, evaluation_rows):
    """Coalesced evaluation: one grid-kernel call for all rows."""
    session = SchedulerSession()

    def run():
        return session.evaluate_many(evaluation_rows)

    out = benchmark.pedantic(run, rounds=20, iterations=1)
    assert len(out) == len(evaluation_rows) and all(e.feasible for e in out)


def test_evaluate_one_row_loop(benchmark, evaluation_rows):
    """Baseline: the same rows priced one `api.evaluate` (one grid row)
    at a time."""
    engines = {
        n: ThermalEngine(paper_platform(n, n_levels=2, t_max_c=65.0))
        for n in (2, 3)
    }

    def run():
        return [
            api_evaluate(engines[spec["n_cores"]], schedule)
            for spec, schedule in evaluation_rows
        ]

    out = benchmark.pedantic(run, rounds=20, iterations=1)
    assert len(out) == len(evaluation_rows)


#: Paper 2/3/6 cores x 2/3 levels x 55/65 C plus big.LITTLE: 13 platforms.
_STREAM_PLATFORMS = [
    {"name": "paper", "n_cores": n, "n_levels": lv, "t_max_c": t}
    for n in (2, 3, 6)
    for lv in (2, 3)
    for t in (55.0, 65.0)
] + [{"name": "big_little"}]


def test_interleaved_ao_pco_stream(benchmark):
    """Cold AO over every platform, then PCO over every platform, on a
    fresh session per round: 13 engines and 13 AO cores are built, and
    each PCO reuses its platform's core."""
    stream = [
        (platform, solver, params)
        for solver, params in (
            ("AO", {"m_cap": 8}),
            ("PCO", {"m_cap": 8, "shift_grid": 4}),
        )
        for platform in _STREAM_PLATFORMS
    ]

    def run():
        session = SchedulerSession()
        return session, [session.solve(*req) for req in stream]

    session, outcomes = benchmark.pedantic(run, rounds=5, iterations=1)
    assert all(o.status == "ok" and not o.cached for o in outcomes)
    assert session.engines_built == len(_STREAM_PLATFORMS)
