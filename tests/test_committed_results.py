"""The committed text results reproduce, byte for byte.

Each deterministic experiment of ``scripts/regenerate_results.sh`` is
run at the same settings, and ``format() + "\\n"`` must equal
``results/<exp>.txt`` without the CLI's trailing
``[<exp> finished in X s]`` line, the only wall-clock text in those
files.  ``fig6``, ``fig7`` and ``headline`` run through ``build_grid``
and its grid-dispatched executor, so these tests also guard the
comparison sweep.  ``table5`` is left out: its body is wall-clock
runtimes.  ``control``, ``realtime`` and ``scaling`` are checked through
the ``committed_result`` fixture in their own test modules.
"""

import re
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
    finished = re.compile(rf"\n\[{name} finished in [0-9.]+ s\]\n\Z")
    body, n = finished.subn("", text)
    assert n == 1, f"results/{name}.txt lacks its finished line"
    assert run_experiment(name, **COMMITTED_TEXT[name]).format() + "\n" == body
