"""The committed text results reproduce, byte for byte.

Each deterministic experiment of ``scripts/regenerate_results.sh`` is
run at the same settings, and ``format() + "\\n"`` — what ``repro run``
prints to stdout — must equal the whole of ``results/<exp>.txt`` (the
CLI prints its runner summary and ``[<exp> finished in X s]`` line to
stderr).  ``fig6``, ``fig7`` and ``headline`` run through ``build_grid``
and the runner's sequential path, so these tests also guard the
comparison sweep.  ``table5``'s body is wall-clock runtimes: its layout
and row order are compared, and its runtimes only checked to be finite
and positive.  ``control``, ``realtime`` and ``scaling`` are checked
through the ``committed_result`` fixture in their own test modules.
"""

import math
from pathlib import Path

import pytest

from repro.experiments.registry import run_experiment

RESULTS = Path(__file__).resolve().parents[1] / "results"

#: Experiment id -> the overrides the regeneration script passes.
COMMITTED_TEXT = {
    "table2": {},
    "table3": {},
    "fig2": {},
    "fig3": {"step": 0.2},
    "fig4": {},
    "fig5": {},
    "fig6": {},
    "fig7": {},
    "headline": {},
    "tsp": {},
    "reactive": {},
}


@pytest.mark.parametrize("name", sorted(COMMITTED_TEXT))
def test_committed_text_reproduces(name):
    text = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    assert run_experiment(name, **COMMITTED_TEXT[name]).format() + "\n" == text


def test_table5_layout_reproduces():
    committed = (RESULTS / "table5.txt").read_text(encoding="utf-8").splitlines()
    result = run_experiment("table5")
    lines = result.format().splitlines()
    assert lines[:3] == committed[:3]  # title, header, rule
    assert len(lines) == len(committed)

    def cells(rows):
        return [tuple(int(v) for v in row.split()[:2]) for row in rows]

    assert cells(lines[3:]) == cells(committed[3:])
    runtimes = [
        cell.runtime(algo)
        for cell in result.grid.cells
        for algo in ("AO", "PCO", "EXS")
    ]
    assert all(math.isfinite(t) and t > 0.0 for t in runtimes)
