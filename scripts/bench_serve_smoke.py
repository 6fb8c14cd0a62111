#!/usr/bin/env python3
"""Serve smoke: end-to-end gate for the ``repro serve`` service core.

Boots a real server subprocess, then drives it over TCP through the
same pipelined client (`repro.service.send_requests`) users get:

1. **Warm-up** — one solve per distinct cache key, so the timed phases
   price the service layer rather than the solvers.
2. **Mixed load** — 200 solve/certify/evaluate requests on one
   pipelined connection.  Gate: zero failures, every solve carries an
   accepted certificate or an explicit fallback record, and at least
   one coalesced batch is visible in the server's stats.
3. **Warm throughput** — identical cached solves, timed.  Gate:
   ≥ ``--min-rps`` requests/second (default 1000, the committed
   warm-cache floor; override with ``REPRO_SERVE_SMOKE_MIN_RPS``).

In phases 2 and 3 every solve response must also carry the same
``result`` and ``certificate`` as the warm-up response for its key: a
cache hit replays the stored answer exactly.

Min over repeats, not mean: on loaded single-core CI boxes the mean is
dominated by scheduler noise, while the best pass reflects what the
code can actually do — so the throughput phase runs twice and gates on
the faster pass.

Exit codes: 0 ok, 1 correctness failure, 3 throughput below the floor.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.service import send_requests  # noqa: E402

PLATFORM2 = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}
PLATFORM3 = {"n_cores": 3, "n_levels": 2, "t_max_c": 65.0}

#: Distinct solve keys the mixed phase cycles through (platform, solver,
#: params) — two platforms, two solvers, two parameterizations.
SOLVE_KEYS = [
    (PLATFORM2, "AO", {"m_cap": 8}),
    (PLATFORM2, "AO", {"m_cap": 16}),
    (PLATFORM2, "LNS", {}),
    (PLATFORM3, "AO", {"m_cap": 8}),
    (PLATFORM3, "LNS", {}),
]


def start_server(run_dir: str) -> tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve`` on an ephemeral port; parse the banner."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0", "--run-dir", run_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving on "):
        proc.kill()
        raise RuntimeError(f"unexpected server banner: {banner!r}")
    host, _, port = banner.removeprefix("serving on ").rpartition(":")
    return proc, host, int(port)


def solve_doc(platform, solver, params) -> dict:
    return {"op": "solve", "platform": platform, "solver": solver,
            "params": params}


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


def replay_mismatch(request: dict, response: dict, warm: dict) -> str | None:
    """How a warm-phase solve response differs from its key's warm-up."""
    reference = warm[request_key(request)]
    for field in ("result", "certificate"):
        if response.get(field) != reference.get(field):
            return (
                f"{request['solver']} {request['params']}: {field} differs "
                "from the warm-up response"
            )
    return None


async def drive(host: str, port: int, min_rps: float) -> int:
    failures: list[str] = []

    # -- phase 1: warm every distinct key (and collect schedules) -------
    warm = await send_requests(
        host, port, [solve_doc(*key) for key in SOLVE_KEYS]
    )
    schedules = []
    warm_by_request = {}
    for key, resp in zip(SOLVE_KEYS, warm):
        if not resp.get("ok") or resp.get("status") != "ok":
            failures.append(f"warm-up solve failed for {key[1]}: {resp}")
        else:
            schedules.append((key[0], resp["result"]["schedule"]))
            warm_by_request[request_key(solve_doc(*key))] = resp
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1

    # -- phase 2: 200 mixed requests on one pipelined connection -------
    mixed: list[dict] = []
    for i in range(120):
        mixed.append(solve_doc(*SOLVE_KEYS[i % len(SOLVE_KEYS)]))
    for i in range(40):
        platform, schedule = schedules[i % len(schedules)]
        mixed.append({"op": "evaluate", "platform": platform,
                      "schedule": schedule})
    for i in range(40):
        platform, schedule = schedules[i % len(schedules)]
        mixed.append({"op": "certify", "platform": platform,
                      "schedule": schedule})
    t0 = time.perf_counter()
    responses = await send_requests(host, port, mixed)
    mixed_s = time.perf_counter() - t0

    mismatches: set[str | None] = set()
    for req, resp in zip(mixed, responses):
        if not resp.get("ok"):
            failures.append(f"{req['op']} failed: {resp.get('error')}")
        elif req["op"] == "solve":
            cert = resp.get("certificate")
            details = (resp.get("result") or {}).get("details") or {}
            if not ((cert and cert.get("accepted")) or details.get("fallback")):
                failures.append(
                    "solve response carries neither an accepted "
                    f"certificate nor a fallback record: {req}"
                )
            mismatches.add(replay_mismatch(req, resp, warm_by_request))
        elif req["op"] == "certify" and not resp.get("accepted"):
            failures.append(f"certificate rejected: {resp}")

    # -- phase 3: warm-cache throughput, min over two passes ------------
    burst = [solve_doc(*SOLVE_KEYS[0]) for _ in range(600)]
    rps = 0.0
    for _ in range(2):
        t0 = time.perf_counter()
        hits = await send_requests(host, port, burst)
        elapsed = time.perf_counter() - t0
        rps = max(rps, len(burst) / elapsed)
        bad = [r for r in hits if not (r.get("ok") and r.get("cached"))]
        if bad:
            failures.append(f"{len(bad)} warm burst responses not cached hits")
        mismatches.update(
            replay_mismatch(req, resp, warm_by_request)
            for req, resp in zip(burst, hits)
        )
    failures.extend(sorted(mismatches - {None}))

    # -- stats afterwards: coalescing must be visible from outside ------
    (stats_resp,) = await send_requests(host, port, [{"op": "stats"}])
    stats = stats_resp.get("stats", {})
    coalescer = stats.get("coalescer", {})
    session = stats.get("session", {})
    if int(coalescer.get("coalesced_batches", 0)) < 1:
        failures.append("no coalesced batches recorded by the server")
    # The coalescer dedupes identical solves before they reach the
    # session, so the burst lands as a handful of session-level hits —
    # per-response `cached` flags (checked above) carry the real count.
    if int(session.get("cache_hits", 0)) < 1:
        failures.append(f"schedule cache never hit: {session}")

    await send_requests(host, port, [{"op": "shutdown"}])

    print(
        f"serve smoke: {len(mixed)} mixed requests in {mixed_s:.3f}s "
        f"({len(mixed) / mixed_s:.0f} req/s), warm-cache burst "
        f"{rps:.0f} req/s, {coalescer.get('coalesced_batches')} coalesced "
        f"batch(es) covering {coalescer.get('coalesced_requests')} "
        f"request(s), largest {coalescer.get('largest_batch')}"
    )
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    if rps < min_rps:
        print(
            f"warm-cache throughput {rps:.0f} req/s below the "
            f"{min_rps:.0f} req/s floor",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-rps",
        type=float,
        default=float(os.environ.get("REPRO_SERVE_SMOKE_MIN_RPS", "1000")),
        help="warm-cache throughput floor in requests/second",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as run_dir:
        proc, host, port = start_server(run_dir)
        try:
            code = asyncio.run(drive(host, port, args.min_rps))
        finally:
            if proc.poll() is None:
                proc.terminate()
            out, _ = proc.communicate(timeout=30)
        # The server's exit summary is part of the evidence: it shows the
        # journal landed and the coalescer counters from the inside.
        for line in out.strip().splitlines():
            print(f"  server: {line}")
        if "0 failed" not in out:
            print("server reported request failures", file=sys.stderr)
            code = code or 1
        summary = subprocess.run(
            [sys.executable, "-m", "repro.cli", "stats", run_dir],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
        )
        for line in summary.stdout.strip().splitlines():
            print(f"  stats: {line}")
        if "coalescing:" not in summary.stdout:
            print("repro stats does not show coalescing", file=sys.stderr)
            code = code or 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
