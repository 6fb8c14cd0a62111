"""``solve-cold`` worker: one fresh process, one in-process caller.

Usage::

    python perfbench/solve_worker.py --probe
    python perfbench/solve_worker.py REQUESTS.json OUT.json [--trace]

Prints ``ready <speed factor>`` once the program is imported and its
session built (the orchestrator times process start to this line as
set-up), then calls ``SchedulerSession.solve`` on every request in
order, a closed loop, and writes per-request latencies, speed factors,
outcomes and counters to ``OUT.json``.  Untraced, speed calibration
samples run throughout (``common.SpeedSampler``); their time is taken
out of the latencies again.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import SpeedSampler


def _solve_all(session, requests):
    """Solve every request; ``(start, end)`` of each and the outcomes."""
    windows, outcomes = [], []
    for req in requests:
        t0 = time.perf_counter()
        outcome = session.solve(req["platform"], req["solver"], req["params"])
        windows.append((t0, time.perf_counter()))
        outcomes.append(outcome)
    return windows, outcomes


def _describe(outcome) -> dict:
    result = outcome.result
    cert = outcome.certificate
    doc = {
        "status": outcome.status,
        "cached": outcome.cached,
        "throughput": result.throughput if result is not None else None,
        "accepted": bool(cert is not None and cert.accepted),
        "fallback": bool(result is not None and result.details.get("fallback")),
        "detail": outcome.detail,
        "stats": outcome.stats.as_dict() if outcome.stats is not None else None,
    }
    return doc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("requests", nargs="?")
    parser.add_argument("out", nargs="?")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with SpeedSampler(interval=0.02) as setup_speed:
        from repro.service.session import SchedulerSession

        session = SchedulerSession()
    print(f"ready {setup_speed.factor()!r}", flush=True)
    if args.probe:
        return 0

    with open(args.requests, encoding="utf-8") as fh:
        requests = json.load(fh)
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    if tracer is None:
        with sampler:
            windows, outcomes = _solve_all(session, requests)
    else:
        windows, outcomes = _solve_all(session, requests)
    wall = time.perf_counter() - t0 - sampler.spent
    latencies, speeds = sampler.attribute(windows)
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report(wall)
    wire_bytes = [len(json.dumps(o.as_doc())) for o in outcomes]
    doc = {
        "wall_s": wall,
        "latencies_s": latencies,
        "speeds": speeds,
        "outcomes": [_describe(o) for o in outcomes],
        "session": session.stats(),
        "wire_bytes_mean": sum(wire_bytes) / len(wire_bytes),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
