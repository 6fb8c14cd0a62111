"""Grid kernels vs the per-platform scalar loop.

The comparison sweep prices candidate schedules for *many* platforms.
The grid kernels are one batched call per distinct platform, so the
per-platform batch loop is the grid itself; the baseline here is the
scalar loop (one call per schedule).  These benchmarks pin the canonical
4-platform x 64-candidate grid, and every case asserts 1e-9 parity with
the scalar path so the speedup is never bought with accuracy.
"""

import numpy as np
import pytest

from repro.platform import paper_platform
from repro.schedule.builders import random_schedule, random_stepup_schedule
from repro.thermal.grid import (
    peak_temperature_grid,
    periodic_steady_state_grid,
    stepup_peak_temperature_grid,
)
from repro.thermal.peak import peak_temperature, stepup_peak_temperature
from repro.thermal.periodic import periodic_steady_state

#: The canonical grid: 4 heterogeneous platforms x 64 candidates each.
CORE_COUNTS = (2, 3, 6, 9)
K = 64


def _build_rows(stepup_only=False, seed=23):
    rng = np.random.default_rng(seed)
    rows = []
    for i, n in enumerate(CORE_COUNTS):
        model = paper_platform(n, n_levels=2, t_max_c=55.0).model
        model.eigen  # warm the decomposition; we benchmark evaluation
        for j in range(K):
            segments = 1 + (i + j) % 5
            if stepup_only or j % 2 == 0:
                sched = random_stepup_schedule(
                    n, rng, max_segments=segments, period=0.02
                )
            else:
                sched = random_schedule(
                    n, rng, max_segments=segments, period=0.02
                )
            rows.append((model, sched))
    return rows


@pytest.fixture(scope="module")
def grid_rows():
    return _build_rows()


@pytest.fixture(scope="module")
def stepup_rows():
    return _build_rows(stepup_only=True)


@pytest.mark.benchmark(group="grid-peak")
def test_peak_grid(benchmark, grid_rows):
    """The grid kernel: the whole grid in one call."""
    results = benchmark(lambda: peak_temperature_grid(grid_rows))
    for i in (0, len(grid_rows) // 2, len(grid_rows) - 1):
        check = peak_temperature(grid_rows[i][0], grid_rows[i][1])
        assert results[i].value == pytest.approx(check.value, abs=1e-9)


@pytest.mark.benchmark(group="grid-peak")
def test_peak_scalar_loop(benchmark, grid_rows):
    """The per-platform scalar loop (the `grid_speedup_vs_scalar` baseline)."""
    results = benchmark(
        lambda: [peak_temperature(m, s) for m, s in grid_rows]
    )
    assert len(results) == len(grid_rows)


@pytest.mark.benchmark(group="grid-stepup")
def test_stepup_grid(benchmark, stepup_rows):
    """Theorem-1 fast path over the whole grid (the AO m-scan kernel)."""
    results = benchmark(
        lambda: stepup_peak_temperature_grid(stepup_rows, check=False)
    )
    check = stepup_peak_temperature(
        stepup_rows[0][0], stepup_rows[0][1], check=False
    )
    assert results[0].value == pytest.approx(check.value, abs=1e-9)


@pytest.mark.benchmark(group="grid-steady-state")
def test_steady_state_grid(benchmark, grid_rows):
    """Batched eq.-(4) fixed points across every platform at once."""
    results = benchmark(lambda: periodic_steady_state_grid(grid_rows))
    check = periodic_steady_state(grid_rows[0][0], grid_rows[0][1])
    np.testing.assert_allclose(
        results[0].boundary_temperatures,
        check.boundary_temperatures,
        atol=1e-9,
    )
