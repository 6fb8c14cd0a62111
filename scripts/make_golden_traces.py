#!/usr/bin/env python
"""Regenerate the golden closed-loop traces under tests/data/.

The committed traces pin the closed-loop dynamics — sensor-driven
simulation, fault injection, governor/controller policies — to 1e-9, so
a sim/engine refactor that silently changes trajectories fails
``tests/test_golden_traces.py`` instead of shipping.

Regenerating is a deliberate act: run this script only when a dynamics
change is *intended*, review the diff, and say so in the changelog.

Usage::

    PYTHONPATH=src python scripts/make_golden_traces.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.algorithms.registry import get_solver
from repro.platform import paper_platform
from repro.power import big_little_power_model

OUT = Path(__file__).resolve().parents[1] / "tests" / "data"


def big_little_platform():
    return paper_platform(
        6,
        n_levels=2,
        t_max_c=55.0,
        power=big_little_power_model(big_cores=[0, 1, 2], n_cores=6),
    )


#: The canonical cases: (case id, platform builder, solver, params).
CASES = (
    (
        "reactive_paper3_faulted",
        lambda: paper_platform(3, n_levels=2, t_max_c=65.0),
        "reactive",
        {
            "guard_band": 1.0,
            "horizon": 0.05,
            "faults": {
                "sensor_noise_sigma": 0.5,
                "sensor_dropout_prob": 0.2,
                "seed": 7,
            },
        },
    ),
    (
        "integral_paper3_faulted",
        lambda: paper_platform(3, n_levels=2, t_max_c=65.0),
        "integral",
        {
            "horizon": 0.05,
            "faults": {
                "sensor_noise_sigma": 0.5,
                "sensor_dropout_prob": 0.2,
                "seed": 7,
            },
        },
    ),
    (
        "integral_big_little_clean",
        big_little_platform,
        "integral",
        {"horizon": 0.03, "gain_schedule": True},
    ),
    (
        "reactive_big_little_clean",
        big_little_platform,
        "reactive",
        {"horizon": 0.03, "guard_band": 2.0},
    ),
)


def trace_document(case_id: str, solver: str, params: dict) -> dict:
    builder = {c[0]: c[1] for c in CASES}[case_id]
    result = get_solver(solver).solve(builder(), **params)
    trace = result.details["trace"]
    return {
        "case": case_id,
        "solver": solver,
        "params": params,
        "throughput": result.throughput,
        "peak_theta": result.peak_theta,
        "feasible": result.feasible,
        "times": trace.times.tolist(),
        "temperatures": trace.temperatures.tolist(),
        "levels": trace.levels.tolist(),
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    docs = [
        trace_document(case_id, solver, params)
        for case_id, _builder, solver, params in CASES
    ]
    path = OUT / "golden_traces.json"
    path.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(docs)} cases)")


if __name__ == "__main__":
    main()
