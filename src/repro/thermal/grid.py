"""Cross-platform thermal kernels: (platform × schedule) grids.

:mod:`repro.thermal.batch` vectorizes K candidate schedules sharing *one*
thermal model.  The comparison/certify/faults sweeps price schedules
across P platforms; this module is their entry point.  Each call groups
its rows by distinct model (first-seen order), makes one batch-kernel
call per model, and scatters the results back into row order — so a
grid row is bit-for-bit the result of the per-model batch call, and the
batch kernels remain the only vectorized thermal code.

Entry points mirror the single-platform batch API:

* :func:`periodic_steady_state_grid` — eq.-(4) stable statuses,
* :func:`stepup_peak_temperature_grid` — Theorem-1 peaks + wrap grid,
* :func:`peak_temperature_grid` — the general MatEx-style search with
  the step-up fast path applied per row.

Every entry takes ``items``: a sequence of ``(model, schedule)`` pairs
(models may repeat in any order).
"""

from __future__ import annotations

from repro.obs import METRICS
from repro.thermal.batch import (
    peak_temperature_batch,
    periodic_steady_state_batch,
    stepup_peak_temperature_batch,
)
from repro.thermal.peak import PeakResult
from repro.thermal.periodic import PeriodicSolution

__all__ = [
    "periodic_steady_state_grid",
    "stepup_peak_temperature_grid",
    "peak_temperature_grid",
]


def _per_model(items, kernel, **kwargs) -> list:
    """Run ``kernel(model, schedules, **kwargs)`` once per distinct model.

    Rows are grouped by model identity in first-seen order; results land
    back in row order.
    """
    items = tuple(items)
    if not items:
        return []
    groups: dict[int, tuple] = {}
    for i, (model, _) in enumerate(items):
        groups.setdefault(id(model), (model, []))[1].append(i)

    METRICS.counter("grid.calls").inc()
    METRICS.counter("grid.rows").inc(len(items))
    METRICS.counter("grid.platforms").inc(len(groups))

    out: list = [None] * len(items)
    for model, rows in groups.values():
        results = kernel(model, [items[i][1] for i in rows], **kwargs)
        for i, res in zip(rows, results):
            out[i] = res
    return out


def periodic_steady_state_grid(items) -> list[PeriodicSolution]:
    """Eq.-(4) stable statuses of R (platform, schedule) rows.

    One :func:`~repro.thermal.batch.periodic_steady_state_batch` call per
    distinct model; one :class:`~repro.thermal.periodic.PeriodicSolution`
    per row, in input order.
    """
    return _per_model(items, periodic_steady_state_batch)


def stepup_peak_temperature_grid(
    items,
    check: bool = True,
    wrap_refine: bool = True,
    grid: int = 24,
) -> list[PeakResult]:
    """Theorem-1 stable peaks of R (platform, schedule) step-up rows.

    One :func:`~repro.thermal.batch.stepup_peak_temperature_batch` call
    per distinct model; results in input order.
    """
    return _per_model(
        items,
        stepup_peak_temperature_batch,
        check=check,
        wrap_refine=wrap_refine,
        grid=grid,
    )


def peak_temperature_grid(
    items,
    grid_per_interval: int = 64,
    refine: bool = True,
    stepup_fast_path: bool = True,
) -> list[PeakResult]:
    """Stable-status peaks of R (platform, schedule) rows.

    One :func:`~repro.thermal.batch.peak_temperature_batch` call per
    distinct model (step-up rows take its Theorem-1 fast path); results
    in input order.
    """
    return _per_model(
        items,
        peak_temperature_batch,
        grid_per_interval=grid_per_interval,
        refine=refine,
        stepup_fast_path=stepup_fast_path,
    )
