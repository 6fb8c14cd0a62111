#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the scheduling program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``solve-cold``
    One in-process caller, closed loop: ``SchedulerSession.solve`` on a
    seeded stream of distinct ``(platform, solver, params)`` keys, so
    every request misses the schedule cache and writes it.
``serve-mixed``
    ``repro serve`` as a subprocess; this process offers open-loop
    traffic at three fixed rates over two connections: cached repeat
    solves, a few fresh-key solves, and evaluate / certify requests.
``sweep-grid``
    Sequential ``run_experiment("comparison", ...)`` sweeps with the
    default grid dispatch, one fresh process and one empty eigenbasis
    cache directory per sweep.

The work of a run is fixed by ``--seed`` and ``--seconds`` (it is sized
to take about ``--seconds`` on a 2-core x86 box), so two runs of one
seed do identical work and their counts compare exactly.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same work runs untraced and then traced, and the line
carries the per-layer metrics (``perfbench/layers.py``).  Every run
checks the program's outputs and counts wrong ones as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import serve_load  # noqa: E402
import workloads as wl  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    check_checkout,
    child_env,
    finish,
    load_digests,
    median,
    peak_child_rss_mb,
    percentile,
    python_cmd,
    record_digest,
    SpeedSampler,
    speed_factor,
    start_until_line,
    throughput_digest,
)

#: End-to-end metrics and units, emitted by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("schedule_throughput_mean", "norm"),
)

SETUP_PROBES = 5


class Run:
    """One invocation: arguments, private work directory, outcome counts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.digest: str | None = None
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self) -> dict[str, str]:
        """A child environment with its own, empty eigenbasis cache."""
        return child_env(self.work, self.fresh_dir("eig"))

    def note(self, line: str) -> None:
        """A diagnostic line for the printed table (not a metric)."""
        self.notes.append(line)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_digest(self, values) -> None:
        self.digest = throughput_digest(values)
        recorded = load_digests().get(self.digest_key())
        if recorded is not None and recorded != self.digest:
            self.fail(f"throughput digest {self.digest} != recorded {recorded}")

    def digest_key(self) -> str:
        size = "tiny" if self.tiny else f"{self.seconds:g}"
        return f"{self.workload}/{self.seed}/{size}"


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _read_journal(run_dir: Path) -> list[dict]:
    path = run_dir / "journal.jsonl"
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def _probe_setups(run: Run, script: str, n: int) -> list[float]:
    """Set-up seconds of ``n`` worker starts that exit once ready."""
    return [_worker(run, script, "--probe") for _ in range(n)]


def _certified(status: str, accepted: bool, fallback: bool) -> bool:
    """A solve answer is valid: certified, explicitly degraded, or infeasible."""
    return status == "infeasible" or (status == "ok" and (accepted or fallback))


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# solve-cold
# ----------------------------------------------------------------------


def _worker(run: Run, script: str, *args: str) -> float:
    """Run one benchmark worker to completion; its set-up seconds.

    The worker's ``ready <factor>`` line carries the speed factor its
    calibration samples measured during the import; set-up is reported
    in reference-machine seconds.
    """
    proc, line, setup = start_until_line(python_cmd(script, *args), run.env(), "ready")
    finish(proc)
    return setup * float(line.split()[1])


def _solve_worker(run: Run, req_file: Path, trace: bool) -> tuple[dict, float]:
    out = run.fresh_dir("solve-out") / "result.json"
    args = [str(req_file), str(out)] + (["--trace"] if trace else [])
    setup = _worker(run, "solve_worker.py", *args)
    return json.loads(out.read_text()), setup


def _check_solves(run: Run, res: dict) -> None:
    for i, o in enumerate(res["outcomes"]):
        if o["cached"]:
            run.fail(f"request {i}: distinct key served from cache")
        elif not _certified(o["status"], o["accepted"], o["fallback"]):
            run.fail(f"request {i}: no accepted certificate or fallback record")
    run.check_digest([o["throughput"] for o in res["outcomes"]])


def solve_cold(run: Run) -> dict:
    requests = wl.solve_cold_requests(run.seed, wl.solve_cold_passes(run.seconds))
    if run.tiny:
        requests = requests[:30]
    req_file = _write(run.work / "requests.json", requests)
    run.attempted = len(requests)
    if run.trace:
        base, _ = _solve_worker(run, req_file, trace=False)
        res, _ = _solve_worker(run, req_file, trace=True)
        _check_solves(run, res)
        outcomes = res["outcomes"]
        session = res["session"]
        other = {
            "safety.fallback_share": sum(o["fallback"] for o in outcomes) / len(outcomes),
            "service.cache.hit_ratio": session["cache"]["hit_rate"],
            "service.engines_built": session["engines_built"],
            "service.engines_evicted": session["engines_evicted"],
            "serial.bytes": res["wire_bytes_mean"],
        }
        engine = layers.sum_engine_stats(o["stats"] for o in outcomes)
        return layers.assemble(res["trace"], engine, other, base["wall_s"], res["wall_s"])

    setups = _probe_setups(run, "solve_worker.py", SETUP_PROBES)
    res, setup = _solve_worker(run, req_file, trace=False)
    setups.append(setup)
    _check_solves(run, res)
    raw_ms = [t * 1e3 for t in res["latencies_s"]]
    run.note(
        f"median speed factor {median(res['speeds']):.4f}; unnormalized p50 "
        f"{percentile(raw_ms, 50):.3f} ms p95 {percentile(raw_ms, 95):.1f} ms, "
        f"{len(raw_ms) / res['wall_s']:.3f} solves/s"
    )
    lat_ms = [t * s for t, s in zip(raw_ms, res["speeds"])]
    return {
        "setup_s": median(setups),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, 95),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "peak_rss_mb": res["maxrss_mb"],
        "schedule_throughput_mean": _mean(o["throughput"] for o in res["outcomes"]),
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class _Server:
    """One ``repro serve`` process (through ``serve_boot.py``)."""

    def __init__(self, run: Run, traced: bool = False) -> None:
        self.run_dir = run.fresh_dir("serve-run")
        self.out = run.fresh_dir("serve-boot") / "boot.json"
        args = [str(self.out)] + (["--trace"] if traced else [])
        args += ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--run-dir", str(self.run_dir)]
        self.proc, line, self.setup_raw = start_until_line(
            python_cmd("serve_boot.py", *args), run.env(), "serving on "
        )
        self.t_ready = time.perf_counter()
        host, _, port = line.removeprefix("serving on ").rpartition(":")
        self.host, self.port = host, int(port)
        self.boot: dict = {}

    def finish(self) -> str:
        out = finish(self.proc, timeout=60)
        self.boot = json.loads(self.out.read_text())
        return out

    def sampler(self) -> SpeedSampler:
        """The server's speed samples (empty when traced)."""
        sampler = SpeedSampler()
        sampler.samples = self.boot.get("samples", [])
        sampler.stamps = self.boot.get("stamps", [])
        return sampler

    @property
    def setup_s(self) -> float:
        """Start to banner, in reference-machine seconds."""
        sampler = self.sampler()
        before = [s for s, t in zip(sampler.samples, sampler.stamps) if t <= self.t_ready]
        return self.setup_raw * (speed_factor(before) if before else 1.0)


def _drive(run: Run, host: str, port: int, sizes: dict) -> dict:
    client = serve_load.Client(host, port, 2)
    try:
        hit_keys = wl.serve_hit_keys()
        warm = serve_load.pipelined(client, hit_keys, first_id=0)
        schedules = []
        for req, resp in zip(hit_keys, warm):
            if resp.get("ok") and resp.get("status") == "ok":
                schedules.append((req["platform"], resp["result"]["schedule"]))
            else:
                run.fail(f"warm-up solve failed: {resp.get('error')}")
        phases = {}
        rid = len(hit_keys)
        for phase, rate in wl.SERVE_RATES.items():
            docs = wl.serve_phase_requests(run.seed, phase, sizes[phase], schedules)
            phases[phase] = serve_load.open_loop(client, docs, rate, rid)
            phases[phase]["requests"] = docs
            rid += len(docs)
        (stats,) = serve_load.pipelined(client, [{"op": "stats"}], rid)
        serve_load.pipelined(client, [{"op": "shutdown"}], rid + 1)
    finally:
        client.close()
    return {"phases": phases, "stats": stats["stats"]}


def _serve_session(run: Run, sizes: dict, traced: bool) -> dict:
    """One server lifetime: warm-up, the three rate phases, shutdown."""
    import resource

    def cpu() -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    cpu0 = cpu()
    server = _Server(run, traced)
    try:
        driven = _drive(run, server.host, server.port, sizes)
    except BaseException:
        server.proc.kill()
        server.proc.communicate()
        raise
    out = server.finish()
    if " 0 failed" not in out:
        run.fail(f"server reported failures: {out.strip()[-200:]}")
    driven["setup_s"] = server.setup_s
    driven["cpu_s"] = cpu() - cpu0
    driven["rss_mb"] = peak_child_rss_mb()
    driven["journal"] = _read_journal(server.run_dir)
    driven["trace"] = server.boot.get("trace")
    sampler = server.sampler()
    driven["speed_samples"] = (sampler.samples, sampler.stamps)
    for phase in driven["phases"].values():
        windows = [(d, d + t) for d, t in zip(phase["due_s"], phase["latencies_s"])]
        # Per request: the latency without server samples taken while it
        # was in flight, in reference-machine seconds of the server at
        # that time (samples within 100 ms: a request is shorter than the
        # 50 ms sampling interval, and one sample is a noisy speed).
        seconds, factors = sampler.attribute(windows, pad=0.1)
        phase["normalized_s"] = [t * f for t, f in zip(seconds, factors)]
    return driven


def _server_ms(driven: dict) -> dict[str, list[float]]:
    """Per phase, the server's residence time of each timed request.

    From the journal's ``elapsed_s`` (receipt to response, queueing in
    the coalescer included), in reference-machine ms of the server over
    that phase.  Journal rows settle in request order up to reordering
    inside a phase, and phases do not overlap.
    """
    rows = [r for r in driven["journal"] if r.get("kind") == "service_request"]
    rows = rows[len(wl.serve_hit_keys()):]
    samples, stamps = driven["speed_samples"]
    out = {}
    for name, phase in driven["phases"].items():
        part, rows = rows[: len(phase["due_s"])], rows[len(phase["due_s"]):]
        t0, t1 = phase["due_s"][0], phase["due_s"][-1] + phase["latencies_s"][-1]
        inside = [x for x, t in zip(samples, stamps) if t0 <= t <= t1]
        speed = speed_factor(inside) if inside else 1.0
        out[name] = [r["elapsed_s"] * 1e3 * speed for r in part]
    return out


def _phase_summary(phase: dict, rate: float) -> dict:
    """p50/p99 (reference-machine ms), achieved rate, and whether the
    rate met the latency limit without a growing backlog."""
    lat_ms = [t * 1e3 for t in phase["normalized_s"]]
    k = max(1, len(lat_ms) // 10)
    backlog = median(lat_ms[-k:]) > 4.0 * median(lat_ms[:k]) + 20.0
    p99 = percentile(lat_ms, 99)
    return {
        "p50": percentile(lat_ms, 50),
        "p99": p99,
        "achieved": len(lat_ms) / phase["span_s"],
        "met": p99 <= wl.SERVE_P99_LIMIT_MS and not backlog,
    }


def _check_served(run: Run, driven: dict) -> list:
    """Certificates, direct replay of a sample, and the throughput digest.

    Returns the served solves' throughputs in request order.
    """
    sample, throughputs = [], []
    rng = random.Random(f"serve-check/{run.seed}")
    for phase in driven["phases"].values():
        for req, resp in zip(phase["requests"], phase["responses"]):
            if not resp.get("ok"):
                run.fail(f"{req['op']} failed: {resp.get('error')}")
                continue
            if req["op"] == "solve":
                result = resp.get("result") or {}
                cert = resp.get("certificate") or {}
                fallback = bool((result.get("details") or {}).get("fallback"))
                if not _certified(resp["status"], bool(cert.get("accepted")), fallback):
                    run.fail("served solve without certificate or fallback record")
                throughputs.append(result.get("throughput"))
            if rng.random() < 0.04:
                sample.append([req, resp])
    run.check_digest(throughputs)
    sample_file = _write(run.work / "serve-sample.json", sample)
    out = run.work / "serve-check.json"
    proc = subprocess.run(
        python_cmd("check_direct.py", str(sample_file), str(out)),
        env=run.env(), cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"direct replay failed:\n{proc.stderr[-3000:]}")
    for mismatch in json.loads(out.read_text())["mismatches"]:
        run.fail(f"served {mismatch['op']} differs from direct: {mismatch['problem']}")
    return throughputs


def serve_mixed(run: Run) -> dict:
    sizes = wl.serve_phase_sizes(1.0 if run.tiny else run.seconds)
    run.attempted = sum(sizes.values())
    if run.trace:
        base = _serve_session(run, sizes, traced=False)
        driven = _serve_session(run, sizes, traced=True)
        _check_served(run, driven)
        return _serve_layers(run, base, driven)

    setups = []
    for _ in range(SETUP_PROBES - 1):
        server = _Server(run)
        client = serve_load.Client(server.host, server.port, 1)
        try:
            serve_load.pipelined(client, [{"op": "shutdown"}], 0)
        finally:
            client.close()
        server.finish()
        setups.append(server.setup_s)
    driven = _serve_session(run, sizes, traced=False)
    setups.append(driven["setup_s"])
    throughputs = _check_served(run, driven)
    summary = {
        phase: _phase_summary(driven["phases"][phase], rate)
        for phase, rate in wl.SERVE_RATES.items()
    }
    # The two lightly loaded phases pooled: 3000 residence times, so the
    # p99 is the middle of the 60 inline AO misses, not an edge of them.
    per_phase = _server_ms(driven)
    server_ms = per_phase["low"] + per_phase["mid"]
    for phase, s in summary.items():
        run.note(
            f"rate {phase}: offered {wl.SERVE_RATES[phase]:g}/s achieved "
            f"{s['achieved']:.1f}/s p50 {s['p50']:.2f} ms p99 {s['p99']:.2f} ms "
            f"limit {'met' if s['met'] else 'missed'}"
        )
    return {
        "setup_s": median(setups),
        "latency_p50_ms": percentile(server_ms, 50),
        "latency_tail_ms": percentile(server_ms, 99),
        "ops_per_s": summary["high"]["achieved"],
        "peak_rss_mb": driven["rss_mb"],
        "schedule_throughput_mean": _mean(throughputs),
    }


def _serve_layers(run: Run, base: dict, driven: dict) -> dict:
    timed = [
        row for row in driven["journal"] if row.get("kind") == "service_request"
    ][len(wl.serve_hit_keys()):]
    stats = driven["stats"]
    coalescer, session = stats["coalescer"], stats["session"]
    latencies = [t for p in driven["phases"].values() for t in p["latencies_s"]]
    lags = [t for p in driven["phases"].values() for t in p["lag_s"]]
    sizes = [s for p in driven["phases"].values() for s in p["sizes"]]
    server_s = _mean(row["elapsed_s"] for row in timed)
    solves = [row for row in timed if row["label"].startswith("solve")]
    base_summary = {
        phase: _phase_summary(base["phases"][phase], rate)
        for phase, rate in wl.SERVE_RATES.items()
    }
    other = {
        "safety.fallback_share": _mean(float(row["fallback"]) for row in solves),
        "service.cache.hit_ratio": session["cache"]["hit_rate"],
        "service.engines_built": session["engines_built"],
        "service.engines_evicted": session["engines_evicted"],
        "service.coalesced_share": coalescer["coalesced_requests"] / max(1, session["requests"]),
        "service.largest_batch": coalescer["largest_batch"],
        "serial.bytes": _mean(sizes),
        "serve.requests": len(latencies),
        "serve.server_s": server_s,
        "serve.transport_s": _mean(latencies) - server_s,
        "serve.generator_lag_ms": percentile(lags, 99) * 1e3,
        "serve.p50_ms.mid": base_summary["mid"]["p50"],
        "serve.p99_ms.low": base_summary["low"]["p99"],
        "serve.p99_ms.mid": base_summary["mid"]["p99"],
        "serve.p99_ms.high": base_summary["high"]["p99"],
        "serve.max_rps": max(
            [s["achieved"] for s in base_summary.values() if s["met"]], default=0.0
        ),
    }
    engine = layers.sum_engine_stats(row.get("stats") for row in driven["journal"])
    return layers.assemble(driven["trace"], engine, other, base["cpu_s"], driven["cpu_s"])


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------


def _sweep(run: Run, grid_file: Path, trace: bool) -> tuple[dict, list[dict], float]:
    run_dir = run.fresh_dir("sweep-run")
    out = run.fresh_dir("sweep-out") / "result.json"
    args = [str(grid_file), str(run_dir), str(out)] + (["--trace"] if trace else [])
    setup = _worker(run, "sweep_worker.py", *args)
    return json.loads(out.read_text()), _read_journal(run_dir), setup


def _check_sweep(run: Run, res: dict, rows: list[dict]) -> None:
    for row in rows:
        status = row.get("status")
        result = row.get("result") or {}
        fallback = bool((result.get("details") or {}).get("fallback"))
        accepted = bool((row.get("certificate") or {}).get("accepted"))
        if not _certified(status, accepted, fallback):
            run.fail(f"unit {row.get('label')}: {status} without certificate")
    digest = throughput_digest(res["throughputs"])
    if run.digest is not None and digest != run.digest:
        run.fail("sweeps of one grid disagree on throughputs")
    run.check_digest(res["throughputs"])


def sweep_grid(run: Run) -> dict:
    grid_file = _write(run.work / "grid.json", wl.sweep_grid(run.seed, small=run.tiny))
    if run.trace:
        base, _, _ = _sweep(run, grid_file, trace=False)
        res, rows, _ = _sweep(run, grid_file, trace=True)
        run.attempted = len(rows)
        _check_sweep(run, res, rows)
        units = [r for r in rows if r.get("kind") == "solve_cell"]
        other = {
            "safety.fallback_share": _mean(
                float(bool(((r.get("result") or {}).get("details") or {}).get("fallback")))
                for r in units
            ),
            "service.engines_built": res["session"]["engines_built"],
            "service.engines_evicted": res["session"]["engines_evicted"],
            "serial.bytes": _mean(len(json.dumps(r, sort_keys=True)) + 1 for r in rows),
            "runner.units": len(units),
            "runner.retries": sum(int(r.get("attempts", 1)) - 1 for r in rows),
        }
        engine = layers.sum_engine_stats(r.get("stats") for r in rows)
        return layers.assemble(res["trace"], engine, other, base["wall_s"], res["wall_s"])

    n_sweeps = 2 if run.tiny else wl.sweeps_per_run(run.seconds)
    setups, walls, unit_ms, rss, units = [], [], [], [], 0
    first = None
    for _ in range(n_sweeps):
        res, rows, setup = _sweep(run, grid_file, trace=False)
        _check_sweep(run, res, rows)
        first = first or res
        setups.append(setup)
        speed = speed_factor(res["calibration_s"])
        run.note(f"sweep: speed factor {speed:.4f}, unnormalized wall {res['wall_s']:.2f} s")
        walls.append(res["wall_s"] * speed)
        unit_ms += [float(r["elapsed_s"]) * 1e3 * speed for r in rows]
        rss.append(res["maxrss_mb"])
        units += res["units"]
    run.attempted = units
    setups += _probe_setups(run, "sweep_worker.py", SETUP_PROBES - n_sweeps)
    return {
        "setup_s": median(setups),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_tail_ms": percentile(unit_ms, 95),
        "ops_per_s": units / sum(walls),
        "peak_rss_mb": max(rss),
        "schedule_throughput_mean": _mean(first["throughputs"]),
    }


WORKLOADS = {
    "solve-cold": solve_cold,
    "serve-mixed": serve_mixed,
    "sweep-grid": sweep_grid,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def execute(run: Run) -> dict:
    """Run one workload; the result document of the last stdout line."""
    run.work.mkdir(parents=True, exist_ok=False)
    try:
        values = WORKLOADS[run.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    units = dict(layers.catalogue()) if run.trace else dict(END_TO_END)
    if run.trace:
        values["failed_share"] = run.failed / max(1, run.attempted)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def print_table(run: Run, doc: dict) -> None:
    title = "per-layer (traced run)" if run.trace else "end-to-end"
    print(f"# {run.workload} seed={run.seed} seconds={run.seconds:g}: {title}")
    for name, m in doc["metrics"].items():
        print(f"  {name:<32s} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  attempted={doc['attempted']} failed={doc['failed']} "
        f"correct={doc['correct']} digest={run.digest}"
    )
    for line in run.notes:
        print(f"  {line}")
    for problem in run.problems:
        print(f"  ! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny runs of every workload; checks names, units, counts")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's throughput digest in digests.json")
    args = parser.parse_args(argv)
    check_checkout()
    if args.selftest:
        from selftest import selftest

        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    t0 = time.perf_counter()
    doc = execute(run)
    print_table(run, doc)
    print(f"  run took {time.perf_counter() - t0:.1f}s")
    if args.record_digest and run.digest is not None and doc["correct"]:
        record_digest(run.digest_key(), run.digest)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
