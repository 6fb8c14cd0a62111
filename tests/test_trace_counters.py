"""Every root span of a traced sweep carries the same thermal-work counters.

``solve/<name>`` spans, ``unit/solve_cell`` roots and
``unit/realtime_cell`` roots all report the seven integer counters of
:class:`~repro.engine.EngineStats`, each equal to the stats of the
result or journal row the span belongs to.  The attribute -> stats-key
map below is kept independently of ``repro.engine`` on purpose, so a
renamed attribute fails here.
"""

import json

from repro.cli import main
from repro.runner import Journal
from repro.runner.journal import JOURNAL_NAME

#: Span attribute -> ``EngineStats.as_dict()`` key.
COUNTERS = {
    "ss_solves": "steady_state_solves",
    "ss_cache_hits": "steady_state_cache_hits",
    "ss_batch_rows": "steady_state_batch_rows",
    "expm_applications": "expm_applications",
    "peak_evals": "peak_evals",
    "batch_calls": "batch_calls",
    "batch_candidates": "batch_candidates",
}


def traced_sweep(tmp_path, experiment):
    """Spans of a traced ``repro run <experiment> --quick`` and its journal."""
    trace = tmp_path / f"{experiment}.jsonl"
    run_dir = tmp_path / experiment
    assert main([
        "run", experiment, "--quick",
        "--trace", str(trace), "--run-dir", str(run_dir),
    ]) == 0
    docs = [json.loads(line) for line in trace.read_text().splitlines()]
    return [d for d in docs if "name" in d], Journal.load(run_dir / JOURNAL_NAME)


def counters(attrs):
    assert set(COUNTERS) <= set(attrs), sorted(set(COUNTERS) - set(attrs))
    return {attr: attrs[attr] for attr in COUNTERS}


def expected(stats_doc):
    return {attr: stats_doc[key] for attr, key in COUNTERS.items()}


def test_comparison_roots_carry_the_counters(tmp_path):
    spans, rows = traced_sweep(tmp_path, "comparison")
    units = [s for s in spans if s["name"] == "unit/solve_cell"]
    solves = [s for s in spans if s["name"].startswith("solve/")]
    assert units and len(units) == len(rows)
    # No quick cell falls back: one solve span per unit.
    assert sorted(s["unit_id"] for s in solves) == sorted(rows)
    for root in units:
        assert counters(root["attrs"]) == expected(rows[root["unit_id"]]["stats"])
    for sp in solves:
        result_stats = rows[sp["unit_id"]]["result"]["stats"]
        assert counters(sp["attrs"]) == expected(result_stats)


def test_realtime_roots_carry_the_counters(tmp_path):
    spans, rows = traced_sweep(tmp_path, "realtime")
    units = [s for s in spans if s["name"] == "unit/realtime_cell"]
    assert units and len(units) == len(rows)
    for root in units:
        assert counters(root["attrs"]) == expected(rows[root["unit_id"]]["stats"])
