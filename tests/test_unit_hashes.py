"""Pins the unit-set hash of every runner-backed experiment.

``WorkUnit.unit_id`` hashes the unit payload, and a run manifest stores
the hash of its whole unit set; ``--resume`` refuses a run directory
whose manifest hash differs from the units the experiment builds now.
A refactor that changes one payload byte therefore orphans every
journaled run.  These pins were read from run manifests written before
the sweep wiring moved into ``repro.runner``.

The units are built but never solved: the runner's sequential strategy
is replaced by one that settles every unit as an error row, so each
experiment writes its manifest and then fails or summarizes an empty
grid without running a solver.
"""

from __future__ import annotations

import contextlib
import json

import pytest

import repro.runner.runner as runner_mod
from repro.experiments.registry import run_experiment

#: (experiment, quick preset?) -> {manifest path under the run dir: hash}
PINNED = {
    ("control", False): {"manifest.json": "ffde823da6d42eed"},
    ("control", True): {"manifest.json": "5420839e22253edf"},
    ("realtime", False): {"manifest.json": "9d7fae05441a0b87"},
    ("realtime", True): {"manifest.json": "c5405268933f3194"},
    ("scaling", False): {"manifest.json": "16229a248650009e"},
    ("scaling", True): {"manifest.json": "f782cfa2c7cdd37a"},
    ("comparison", True): {"manifest.json": "edd21a3fc6b2ff2a"},
    ("fig6", True): {"manifest.json": "3aeece64030827e3"},
    ("fig7", True): {"manifest.json": "3e51e2b1495a5442"},
    ("table5", True): {"manifest.json": "cb5c6a614b9fc48c"},
    ("headline", True): {
        "fig6-grid/manifest.json": "d2e18de8afa50742",
        "fig7-grid/manifest.json": "9ac18b247ab04c69",
    },
}


def _settle_unsolved(todo, config, state):
    for unit in todo:
        state.settle(
            unit, 1, 0.0, None,
            {"type": "NotRun", "message": "unit-set hash check"},
        )


@pytest.mark.parametrize(
    "name,quick", sorted(PINNED), ids=lambda v: str(v)
)
def test_unit_set_hash_is_pinned(name, quick, tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_run_sequential", _settle_unsolved)
    # Experiments that need every unit to succeed stop on the first
    # error row; the manifest is written before any unit runs.
    with contextlib.suppress(RuntimeError):
        run_experiment(name, quick=quick, run_dir=tmp_path)
    hashes = {
        rel: json.loads((tmp_path / rel).read_text())["units_hash"]
        for rel in PINNED[(name, quick)]
    }
    assert hashes == PINNED[(name, quick)]
