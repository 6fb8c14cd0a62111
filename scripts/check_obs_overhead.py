#!/usr/bin/env python3
"""CI gate: the disabled observability path must cost < 2% of a solve.

The spans in :mod:`repro.obs` are compiled into every hot path
permanently — the design bet is that with no sink attached, a
``span(...)`` call is one attribute load plus returning a shared no-op
context manager, cheap enough to ignore.  This script prices that bet:

1. microbenchmark the disabled ``span()`` round-trip (enter + exit);
2. run a representative solve (AO on the 3-core paper platform) with a
   sink attached and count how many spans it opens;
3. time the same solve with tracing disabled.

The gate fails (exit 1) if ``span_cost x span_count`` exceeds
``THRESHOLD`` (2%) of the disabled solve's wall time.  This deliberately
measures the *ratio*, not absolute times, so it is stable across
machine speeds.

Usage: PYTHONPATH=src python scripts/check_obs_overhead.py
"""

from __future__ import annotations

import sys
import time
import timeit
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

THRESHOLD = 0.02  # 2%
SOLVE_REPEATS = 3


def disabled_span_cost_s() -> float:
    """Seconds per disabled span() enter/exit round-trip (best of 5)."""
    from repro.obs import TRACER, span

    assert not TRACER.enabled, "tracer must be disabled for this measurement"

    def probe() -> None:
        with span("overhead/probe", k=1):
            pass

    timer = timeit.Timer(probe)
    number = 20_000
    return min(timer.repeat(repeat=5, number=number)) / number


def representative_solve():
    """One AO solve on the paper's 3-core platform (the Fig. 6 cell)."""
    from repro import load_platform, solve

    platform = load_platform("paper", n_cores=3, n_levels=2, t_max_c=55.0)
    return lambda: solve("AO", platform, m_cap=32)


def count_spans(solve_once) -> int:
    """How many spans one solve opens when tracing is enabled."""
    from repro.obs import capture_spans

    with capture_spans(isolate=True) as spans:
        solve_once()
    return len(spans)


def solve_wall_s(solve_once) -> float:
    """Median wall time of the solve with tracing disabled."""
    times = []
    for _ in range(SOLVE_REPEATS):
        t0 = time.perf_counter()
        solve_once()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def main() -> int:
    span_cost = disabled_span_cost_s()
    solve_once = representative_solve()
    solve_once()  # warm caches (expm propagators, steady-state LRU)
    n_spans = count_spans(solve_once)
    wall = solve_wall_s(solve_once)

    overhead = span_cost * n_spans
    ratio = overhead / wall if wall > 0 else float("inf")
    print(f"disabled span round-trip : {span_cost * 1e9:8.1f} ns")
    print(f"spans per AO solve       : {n_spans:8d}")
    print(f"solve wall time          : {wall * 1e3:8.2f} ms")
    print(f"no-op obs overhead       : {overhead * 1e6:8.2f} us "
          f"({ratio:.3%} of solve, limit {THRESHOLD:.0%})")

    if ratio >= THRESHOLD:
        print("FAIL: disabled observability exceeds the overhead budget",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
