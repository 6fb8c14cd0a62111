"""Shared machinery for the algorithm-comparison experiments (Figs. 6-7, Table V).

Runs LNS / EXS / AO / PCO on a platform grid and collects throughput,
feasibility and wall-clock time per cell.  The grid decomposes into one
work unit per ``(cell, algo)`` pair and executes through the
fault-tolerant sharded runner (:mod:`repro.runner`): sequentially by
default, fanned out over worker processes with per-unit timeout and
retry under a ``RunnerConfig(parallel=True)``
(:class:`~repro.runner.RunnerConfig`).  With a ``run_dir``,
finished units are journaled to disk as they settle and
``resume=True`` continues an interrupted sweep, re-running only the
missing units; either way each worker rebuilds its platform from the
cell spec, so nothing heavier than a JSON row travels across process
boundaries.  Sequentially, units run cell by cell in approach order, so
PCO starts from the AO core its cell's AO unit memoized on the shared
session engine (:func:`repro.algorithms.ao.ao_core`).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import product
from typing import Any

import numpy as np

from repro.algorithms.base import SchedulerResult
from repro.obs import METRICS, span
from repro.runner import RunnerConfig, RunReport, comparison_units, run as run_units
from repro.runner.runner import TERMINAL_STATUSES
from repro.runner.units import WorkUnit

__all__ = [
    "CellResult",
    "ComparisonGrid",
    "build_grid",
    "grid_batch_executor",
    "ComparisonResult",
    "comparison",
]

APPROACHES = ("LNS", "EXS", "AO", "PCO")


@dataclass(frozen=True)
class CellResult:
    """All four approaches on one (cores, levels, T_max) configuration."""

    n_cores: int
    n_levels: int
    t_max_c: float
    results: dict[str, SchedulerResult]

    def throughput(self, name: str) -> float:
        """Throughput of one approach (NaN if it was infeasible)."""
        r = self.results.get(name)
        return r.throughput if r is not None else float("nan")

    def runtime(self, name: str) -> float:
        """Wall-clock seconds of one approach, built from scratch.

        A solve's ``runtime_s`` already counts the memoized work it
        reused (:meth:`repro.engine.ThermalEngine.memo`), so PCO reads
        what it costs on its own (Table V).
        """
        r = self.results.get(name)
        return r.runtime_s if r is not None else float("nan")

    def improvement(self, name: str, over: str = "EXS") -> float:
        """Relative throughput improvement of ``name`` over ``over``."""
        a, b = self.throughput(name), self.throughput(over)
        if not np.isfinite(a) or not np.isfinite(b) or b == 0:
            return float("nan")
        return (a - b) / b


@dataclass(frozen=True)
class ComparisonGrid:
    """A collection of cells plus helpers over them.

    ``report`` carries the sharded runner's
    :class:`~repro.runner.RunReport` (per-unit journal rows, failure
    counts, aggregated engine stats) when the grid was built through
    :func:`build_grid`; it does not participate in equality.
    """

    cells: tuple[CellResult, ...]
    report: RunReport | None = field(default=None, compare=False, repr=False)

    def find(self, n_cores: int, n_levels: int | None = None,
             t_max_c: float | None = None) -> CellResult:
        """Locate one cell by its coordinates."""
        for c in self.cells:
            if c.n_cores != n_cores:
                continue
            if n_levels is not None and c.n_levels != n_levels:
                continue
            if t_max_c is not None and abs(c.t_max_c - t_max_c) > 1e-9:
                continue
            return c
        raise KeyError(
            f"no cell for cores={n_cores}, levels={n_levels}, t_max={t_max_c}"
        )

    def improvements(self, name: str = "AO", over: str = "EXS") -> np.ndarray:
        """Per-cell relative improvements of ``name`` over ``over``.

        Cells where either approach is missing or infeasible yield a
        non-finite ratio and are excluded — but not silently: every
        skipped cell increments the ``comparison.ratio_cells_skipped``
        obs counter (surfaced by ``repro stats`` and the headline
        report), so a sweep that quietly lost half its grid is visible.
        """
        vals = [c.improvement(name, over) for c in self.cells]
        finite = [v for v in vals if np.isfinite(v)]
        skipped = len(vals) - len(finite)
        if skipped:
            METRICS.counter("comparison.ratio_cells_skipped").inc(skipped)
        return np.asarray(finite)

    def skipped_ratio_cells(self, name: str = "AO", over: str = "EXS") -> int:
        """How many cells :meth:`improvements` would drop as non-finite."""
        return sum(
            1 for c in self.cells if not np.isfinite(c.improvement(name, over))
        )

    def to_csv(self) -> str:
        """CSV dump of the grid (one row per cell, throughput + runtime)."""
        from repro.experiments.reporting import to_csv

        headers = ["cores", "levels", "t_max_c"]
        for name in APPROACHES:
            headers += [f"thr_{name.lower()}", f"time_{name.lower()}_s"]
        rows = []
        for c in self.cells:
            row: list = [c.n_cores, c.n_levels, c.t_max_c]
            for name in APPROACHES:
                row += [c.throughput(name), c.runtime(name)]
            rows.append(row)
        return to_csv(headers, rows)


def _assemble_cells(
    core_counts,
    level_counts,
    t_max_values,
    n_approaches: int,
    units: Sequence[WorkUnit],
    report: RunReport,
) -> tuple[CellResult, ...]:
    """Regroup per-unit journal rows into per-cell results, in grid order.

    ``units`` is the :func:`~repro.runner.comparison_units` list: cell
    by cell, ``n_approaches`` units each.  A unit that came back
    infeasible or as an error row leaves its approach absent from the
    cell, so a partially failed sweep still yields a complete grid.
    """
    out: list[CellResult] = []
    cells = product(core_counts, level_counts, t_max_values)
    for i, (n, lv, tm) in enumerate(cells):
        results: dict[str, SchedulerResult] = {}
        for unit in units[i * n_approaches:(i + 1) * n_approaches]:
            status, result = report.outcome(unit, accept=TERMINAL_STATUSES)
            if status == "ok":
                results[result.name] = result
        out.append(
            CellResult(
                n_cores=int(n),
                n_levels=int(lv),
                t_max_c=float(tm),
                results=results,
            )
        )
    return tuple(out)


def grid_batch_executor(units: Sequence[WorkUnit]) -> dict[str, dict[str, Any]]:
    """Solve the ``solve_cell`` units one by one: ``{unit_id: outcome}``.

    Nothing in the package calls this.  It is kept only because the
    end-to-end benchmark's tracer wraps it by name (as it does
    :func:`~repro.algorithms.oscillation.choose_m_grid`); both go with
    the benchmark change that stops wrapping them.  Sweeps run every
    unit through :func:`~repro.runner.run`.
    """
    from repro.runner.units import solve_cell_outcome

    return {
        unit.unit_id: solve_cell_outcome(unit.payload)
        for unit in units
        if unit.kind == "solve_cell"
    }


def build_grid(
    core_counts=(2, 3, 6, 9),
    level_counts=(2,),
    t_max_values=(55.0,),
    approaches: tuple[str, ...] = APPROACHES,
    period: float = 0.02,
    m_cap: int = 128,
    m_step: int = 1,
    shift_grid: int = 8,
    tau: float = 5e-6,
    runner: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable | None = None,
) -> ComparisonGrid:
    """Run the comparison over a (cores x levels x T_max) grid.

    The grid decomposes into one work unit per ``(cell, approach)`` pair
    and executes through the sharded runner; ``runner`` (a
    :class:`~repro.runner.RunnerConfig`) sets workers, timeout and
    retries.  With
    ``run_dir`` every finished unit is journaled so ``resume=True``
    continues an interrupted sweep.  Cell order — and therefore the
    emitted grid — is identical in all modes, and a unit that fails
    terminally records a structured error row (see
    ``grid.report``) instead of aborting the sweep.

    :meth:`CellResult.runtime` reports each approach's full cost, also
    for a PCO unit that reused its cell's memoized AO core.
    """
    common = {
        "period": period,
        "m_cap": m_cap,
        "m_step": m_step,
        "shift_grid": shift_grid,
    }
    units = comparison_units(
        core_counts, level_counts, t_max_values, approaches, common, tau=tau
    )
    with span("experiment/build_grid", units=len(units)):
        report = run_units(
            units,
            config=runner,
            run_dir=run_dir,
            resume=resume,
            progress=progress,
            manifest_extra={
                "experiment": "comparison",
                "grid": {
                    "core_counts": [int(n) for n in core_counts],
                    "level_counts": [int(lv) for lv in level_counts],
                    "t_max_values": [float(t) for t in t_max_values],
                    "approaches": list(approaches),
                    "tau": float(tau),
                    "params": common,
                },
            },
        )
        cells = _assemble_cells(
            core_counts, level_counts, t_max_values, len(approaches), units,
            report,
        )
    return ComparisonGrid(cells=cells, report=report)


@dataclass(frozen=True)
class ComparisonResult:
    """Result of the standalone ``comparison`` experiment."""

    grid: ComparisonGrid

    def format(self) -> str:
        from repro.experiments.reporting import ascii_table

        names = sorted(
            {name for cell in self.grid.cells for name in cell.results}
        ) or list(APPROACHES)
        rows = []
        for cell in self.grid.cells:
            rows.append(
                (cell.n_cores, cell.n_levels, cell.t_max_c)
                + tuple(cell.throughput(n) for n in names)
            )
        return ascii_table(
            ["cores", "levels", "T_max (C)", *names],
            rows,
            title="Comparison sweep — throughput per approach",
        )

    def to_csv(self) -> str:
        return self.grid.to_csv()


def comparison(
    core_counts: tuple[int, ...] = (2, 3, 6, 9),
    level_counts: tuple[int, ...] = (2,),
    t_max_values: tuple[float, ...] = (55.0,),
    approaches: tuple[str, ...] = APPROACHES,
    period: float = 0.02,
    m_cap: int = 128,
    m_step: int = 1,
    shift_grid: int = 8,
    tau: float = 5e-6,
    runner: RunnerConfig | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable | None = None,
) -> ComparisonResult:
    """The bare comparison sweep as a first-class experiment.

    This is the runner's native workload: every CLI runner knob
    (``--parallel``, ``--timeout``, ``--retries``, ``--run-dir``,
    ``--resume``) maps directly onto one :func:`build_grid` call.
    """
    grid = build_grid(
        core_counts=core_counts,
        level_counts=level_counts,
        t_max_values=t_max_values,
        approaches=approaches,
        period=period,
        m_cap=m_cap,
        m_step=m_step,
        shift_grid=shift_grid,
        tau=tau,
        runner=runner,
        run_dir=run_dir,
        resume=resume,
        progress=progress,
    )
    return ComparisonResult(grid=grid)
