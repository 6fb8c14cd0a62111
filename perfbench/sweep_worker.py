"""``sweep-grid`` worker: one sequential ``comparison`` sweep per process.

Usage::

    python perfbench/sweep_worker.py --probe
    python perfbench/sweep_worker.py GRID.json RUN_DIR OUT.json [--trace]

Prints ``ready <speed factor>`` once the experiment registry is
imported (calibration samples run during the import), then runs
``run_experiment("comparison", ...)`` with the default grid dispatch and
a journal in ``RUN_DIR``, and writes the sweep's wall time, per-unit
outcomes and counters to ``OUT.json``.  The eigenbasis cache directory
comes from the environment and is empty when the process starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import SpeedSampler


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("grid", nargs="?")
    parser.add_argument("run_dir", nargs="?")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with SpeedSampler(interval=0.02) as setup_speed:
        from repro.experiments.registry import run_experiment
        from repro.service.session import default_session

    print(f"ready {setup_speed.factor()!r}", flush=True)
    if args.probe:
        return 0
    with open(args.grid, encoding="utf-8") as fh:
        grid = json.load(fh)
    grid["core_counts"] = tuple(grid["core_counts"])
    grid["level_counts"] = tuple(grid["level_counts"])
    grid["t_max_values"] = tuple(grid["t_max_values"])

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    # Untraced, speed calibration samples run throughout the sweep; their
    # time is taken out of the wall again.
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    if tracer is None:
        with sampler:
            result = run_experiment("comparison", run_dir=args.run_dir, **grid)
    else:
        result = run_experiment("comparison", run_dir=args.run_dir, **grid)
    wall = time.perf_counter() - t0 - sampler.spent
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report(wall)

    # Per-unit throughputs in grid order (the digest input).
    throughputs = []
    for cell in result.grid.cells:
        for name in ("LNS", "EXS", "AO", "PCO"):
            r = cell.results.get(name)
            throughputs.append(r.throughput if r is not None else None)
    report = result.grid.report
    doc = {
        "wall_s": wall,
        "units": report.total,
        "calibration_s": sampler.samples,
        "throughputs": throughputs,
        "session": default_session().stats(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
