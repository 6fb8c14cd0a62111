"""Fault-tolerant sharded experiment runner.

Experiment grids decompose into content-addressed
:class:`~repro.runner.units.WorkUnit` s (one ``(cell, algo)`` pair each),
which :func:`~repro.runner.runner.run` drives to completion on a process
pool with per-unit timeout, bounded retry with backoff, and graceful
degradation — a failing unit becomes a structured error row, never an
aborted sweep.  Finished units are journaled to disk as they settle, so
an interrupted run resumes where it stopped (``repro run <experiment>
--resume <run_dir>``).

See ``docs/API.md`` ("Experiment runner") for the manifest/journal
format and the CLI knobs.
"""

from repro.runner.journal import Journal, git_sha, read_manifest, write_manifest
from repro.runner.runner import RunnerConfig, RunReport, print_progress, run
from repro.runner.units import (
    EXECUTORS,
    WorkUnit,
    comparison_units,
    execute_unit,
    solve_cell_unit,
    spawn_seeds,
    units_hash,
)

__all__ = [
    "Journal",
    "RunReport",
    "RunnerConfig",
    "WorkUnit",
    "EXECUTORS",
    "comparison_units",
    "execute_unit",
    "git_sha",
    "print_progress",
    "read_manifest",
    "run",
    "solve_cell_unit",
    "spawn_seeds",
    "units_hash",
    "write_manifest",
]
