#!/usr/bin/env python3
"""Smoke-run the micro-benchmarks and snapshot (or gate on) the numbers.

Runs two suites with reduced rounds and writes one compacted
pytest-benchmark JSON report per suite at the repo root — a cheap
regression tripwire for the hot paths, not a rigorous measurement:

* ``BENCH_solvers.json`` — thermal kernels (``bench_solvers.py``), the
  single-platform batched engine (``bench_batch.py``) and the
  constant-lattice searches (``bench_ablation_exs.py``);
* ``BENCH_grid.json`` — the cross-platform grid kernels
  (``bench_grid.py``), including the grid-vs-scalar speedup summary the
  README perf table quotes.

The raw pytest-benchmark report carries every individual sample and the
full machine/commit dossier; the snapshot keeps only the summary
statistics (rounded to 6 significant digits) so the committed files stay
small and their diffs reviewable.

With ``--compare``, nothing is overwritten: the fresh numbers are
checked against the committed snapshots and any benchmark whose best
(min) time regressed by more than ``COMPARE_THRESHOLD`` fails the run
(exit 3) — the CI ``bench-smoke`` gate.

Usage: python scripts/bench_smoke.py [--compare] [extra pytest args...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The benchmark suites and the snapshot each one writes.
SUITES: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "BENCH_solvers.json",
        (
            "benchmarks/bench_solvers.py",
            "benchmarks/bench_batch.py",
            "benchmarks/bench_ablation_exs.py",
        ),
    ),
    ("BENCH_grid.json", ("benchmarks/bench_grid.py",)),
)

#: ``--compare`` fails when a benchmark's best (min) time slows down by
#: more than this fraction over the committed snapshot.  Min, not mean:
#: on loaded single-core CI boxes the mean wanders by tens of percent
#: run-to-run while the best observed time stays within a few percent.
COMPARE_THRESHOLD = 0.30

#: Summary statistics preserved per benchmark (per-sample arrays dropped).
_STAT_KEYS = (
    "min", "max", "mean", "stddev", "median", "iqr", "q1", "q3",
    "rounds", "iterations", "ops",
)

#: machine_info keys worth keeping for context.
_MACHINE_KEYS = ("node", "processor", "machine", "python_version", "system")


def _round6(value):
    """Round floats to 6 significant digits (ints/others pass through)."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def compact_report(raw: dict) -> dict:
    """Strip a pytest-benchmark JSON report down to its summary stats."""
    machine = raw.get("machine_info") or {}
    return {
        "datetime": raw.get("datetime"),
        "version": raw.get("version"),
        "machine_info": {k: machine.get(k) for k in _MACHINE_KEYS if k in machine},
        "benchmarks": [
            {
                "group": bench.get("group"),
                "name": bench.get("name"),
                "fullname": bench.get("fullname"),
                "params": bench.get("params"),
                "stats": {
                    k: _round6(bench["stats"][k])
                    for k in _STAT_KEYS
                    if k in bench.get("stats", {})
                },
            }
            for bench in raw.get("benchmarks", [])
        ],
    }


def grid_speedup(doc: dict) -> float | None:
    """Grid-kernel speedup over the scalar loop from a compact report.

    Best-vs-best, for the same reason ``--compare`` gates on min.
    """
    bests = {
        bench["name"]: bench["stats"].get("min")
        for bench in doc.get("benchmarks", [])
    }
    grid = bests.get("test_peak_grid")
    scalar = bests.get("test_peak_scalar_loop")
    if not grid or not scalar:
        return None
    return _round6(scalar / grid)


def compare_reports(committed: dict, fresh: dict) -> list[str]:
    """Best-time regressions of ``fresh`` vs the committed snapshot."""
    baseline = {
        bench["fullname"]: bench.get("stats", {})
        for bench in committed.get("benchmarks", [])
    }
    regressions = []
    for bench in fresh.get("benchmarks", []):
        ref = baseline.get(bench["fullname"], {}).get("min")
        best = bench.get("stats", {}).get("min")
        if not ref or not best:
            continue
        ratio = best / ref
        if ratio > 1.0 + COMPARE_THRESHOLD:
            regressions.append(
                f"{bench['fullname']}: best {ref:.6g}s -> {best:.6g}s "
                f"({ratio:.2f}x, limit {1.0 + COMPARE_THRESHOLD:.2f}x)"
            )
    return regressions


def runner_smoke() -> dict | None:
    """Time a tiny parallel sweep through the sharded runner.

    Returns a small summary dict for the snapshot, or ``None`` if the
    smoke run failed — the benchmark report is still written either way.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import time

        from repro.runner import RunnerConfig, comparison_units
        from repro.runner import run as run_units

        units = comparison_units(
            (2, 3), (2,), (55.0,), ("LNS", "EXS", "AO"),
            {"period": 0.02, "m_cap": 8, "m_step": 1, "shift_grid": 8},
        )
        t0 = time.perf_counter()
        report = run_units(
            units, RunnerConfig(parallel=True, max_workers=2, retries=0)
        )
        wall = time.perf_counter() - t0
        if report.errors:
            return None
        return {
            "units": report.total,
            "ok": report.ok,
            "workers": 2,
            "wall_s": _round6(wall),
        }
    except Exception as exc:  # pragma: no cover - diagnostic path
        print(f"runner smoke failed (report written without it): {exc}",
              file=sys.stderr)
        return None


def run_suite(report: Path, paths: tuple[str, ...], extra: list[str],
              env: dict) -> tuple[int, dict | None]:
    """Run one suite; returns (pytest returncode, compact report or None)."""
    # pytest-benchmark truncates the json path while parsing arguments, so
    # aim it at a scratch file and only consume the report on success.
    scratch = report.with_suffix(".json.tmp")
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *paths,
        "-q",
        "--benchmark-warmup=on",
        "--benchmark-min-rounds=2",
        "--benchmark-max-time=0.25",
        f"--benchmark-json={scratch}",
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    doc = None
    if proc.returncode == 0 and scratch.exists():
        doc = compact_report(json.loads(scratch.read_text()))
    scratch.unlink(missing_ok=True)
    return proc.returncode, doc


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    compare = "--compare" in argv
    if compare:
        argv.remove("--compare")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    regressions: list[str] = []
    for name, paths in SUITES:
        report = REPO_ROOT / name
        code, doc = run_suite(report, paths, argv, env)
        if code != 0 or doc is None:
            return code or 1
        if name == "BENCH_grid.json":
            speedup = grid_speedup(doc)
            if speedup is not None:
                doc["grid_speedup_vs_scalar"] = speedup
                print(f"grid kernel speedup vs scalar loop: {speedup:g}x")
        elif name == "BENCH_solvers.json":
            smoke = runner_smoke()
            if smoke is not None:
                doc["runner_smoke"] = smoke
        if compare:
            if report.exists():
                regressions.extend(
                    compare_reports(json.loads(report.read_text()), doc)
                )
            else:
                print(f"no committed {name} to compare against", file=sys.stderr)
        else:
            report.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {report}")

    if regressions:
        print("benchmark regressions beyond threshold:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
