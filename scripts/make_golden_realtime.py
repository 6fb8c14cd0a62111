#!/usr/bin/env python
"""Regenerate the golden real-time scheduling scenarios under tests/data/.

The committed documents pin the full realtime pipeline — workload draw,
margin-aware placement, backup-window sizing, fault-injected closed-loop
execution, recovery accounting — to 1e-9, so a scheduler or recovery
refactor that silently changes placements or trajectories fails
``tests/test_realtime.py::test_golden_realtime_replays`` instead of
shipping.

Regenerating is a deliberate act: run this script only when a behaviour
change is *intended*, review the diff, and say so in the changelog.

Usage::

    PYTHONPATH=src python scripts/make_golden_realtime.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.realtime import TaskSet, plan_frames, simulate_recovery

OUT = Path(__file__).resolve().parents[1] / "tests" / "data"


def paper3_platform():
    from repro.platform import paper_platform

    return paper_platform(3, n_levels=4, t_max_c=60.0)


def big_little_platform():
    from repro.platform import paper_platform
    from repro.power import big_little_power_model

    return paper_platform(
        6,
        n_levels=2,
        t_max_c=65.0,
        power=big_little_power_model(big_cores=[0, 1, 2], n_cores=6),
    )


#: The canonical cases:
#: (case id, platform builder, workload kwargs, k, policy, failures).
CASES = (
    (
        "margin_paper3_permanent",
        paper3_platform,
        {"n_tasks": 6, "total_utilization": 0.9, "frame_s": 0.02,
         "rng": 11, "max_task_utilization": 0.5},
        1,
        "margin",
        [{"core": 0, "at_fraction": 0.4, "kind": "permanent"}],
    ),
    (
        "margin_big_little_transient",
        big_little_platform,
        {"n_tasks": 8, "total_utilization": 0.8, "frame_s": 0.02,
         "rng": 23, "max_task_utilization": 0.5},
        2,
        "margin",
        [
            {"core": 1, "at_fraction": 0.3, "kind": "transient",
             "duration_fraction": 0.25},
            {"core": 4, "at_fraction": 0.55, "kind": "permanent"},
        ],
    ),
)


def main() -> None:
    docs = []
    for case, builder, wl_kwargs, k, policy, failures in CASES:
        platform = builder()
        workload = TaskSet.random_frame(**wl_kwargs)
        placement = plan_frames(platform, workload, k=k, policy=policy)
        report = simulate_recovery(
            platform,
            placement,
            {"core_failures": failures},
            n_frames=8,
            steps_per_frame=8,
        )
        docs.append(
            {
                "case": case,
                "workload_kwargs": {
                    key: v for key, v in wl_kwargs.items()
                },
                "k": k,
                "policy": policy,
                "failures": failures,
                "placement": placement.as_dict(),
                "recovery": report.as_dict(),
                "trace_times": [float(t) for t in report.trace.times],
                "trace_levels": [
                    [float(v) for v in row] for row in report.trace.levels
                ],
                "trace_peak_theta": float(report.trace.peak_theta),
            }
        )
    out = OUT / "golden_realtime.json"
    out.write_text(json.dumps(docs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(docs)} cases)")


if __name__ == "__main__":
    main()
