"""Micro-benchmarks of the thermal kernels underlying everything else.

These quantify why the closed-form engine makes AO cheap: a periodic
steady-state solve costs microseconds after the one-time
eigendecomposition, versus milliseconds for a numerical integrator pass.
"""

import numpy as np

from repro.schedule.builders import random_stepup_schedule, two_mode_schedule
from repro.thermal.periodic import periodic_steady_state
from repro.thermal.reference import reference_simulate
from repro.thermal.transient import simulate_schedule_period


def test_eigendecomposition(benchmark, platform9):
    """One-time O(n^3) setup cost of the cached eigen-expm."""
    from repro.util.linalg import EigenExpm

    model = platform9.model
    ee = benchmark(lambda: EigenExpm(model.a, c_diag=model.c_diag))
    assert np.all(ee.eigenvalues < 0)


def test_periodic_steady_state_9core(benchmark, platform9):
    """Stable-status fixed point of a 10-interval step-up schedule."""
    rng = np.random.default_rng(3)
    s = random_stepup_schedule(9, rng, period=0.02, max_segments=4)
    model = platform9.model
    sol = benchmark(lambda: periodic_steady_state(model, s))
    assert np.allclose(sol.start_temperature, sol.end_temperature, atol=1e-9)


def test_one_period_propagation(benchmark, platform9):
    """Closed-form propagation of one period (the AO inner kernel)."""
    s = two_mode_schedule([0.6] * 9, [1.3] * 9, [0.5] * 9, 0.01)
    model = platform9.model
    theta0 = np.zeros(model.n_nodes)
    out = benchmark(lambda: simulate_schedule_period(model, s, theta0))
    assert np.all(np.isfinite(out))


def test_reference_integrator_period(benchmark, platform9):
    """The RK45 oracle on the same period (the cost we avoid paying)."""
    s = two_mode_schedule([0.6] * 9, [1.3] * 9, [0.5] * 9, 0.01)
    model = platform9.model

    def run():
        return reference_simulate(model, s, periods=1, samples_per_interval=2)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    closed = simulate_schedule_period(model, s, np.zeros(model.n_nodes))
    assert np.allclose(trace.end_temperature, closed, atol=1e-6)


def test_steady_state_batch(benchmark, platform9):
    """Batched Cholesky steady states (the EXS kernel), 4096 assignments."""
    rng = np.random.default_rng(5)
    volts = rng.choice([0.6, 1.3], size=(4096, 9))
    model = platform9.model
    theta = benchmark(lambda: model.steady_state_batch(volts))
    assert theta.shape == (4096, 9)


#: Per-core high-mode ratios of the 9-core two-mode schedule (z = 5).
_RATIOS_9 = [0.2, 0.2, 0.4, 0.4, 0.6, 0.6, 0.8, 0.8, 0.8]


def test_stepup_peak_scalar_9core(benchmark, platform9):
    """Theorem-1 peak plus the 24-sample wrap scan, one 9-core z = 5 schedule."""
    from repro.thermal.peak import stepup_peak_temperature

    s = two_mode_schedule([0.6] * 9, [1.3] * 9, _RATIOS_9, 0.02)
    assert s.n_intervals == 5
    model = platform9.model
    r = benchmark(lambda: stepup_peak_temperature(model, s))
    assert r.value >= r.core_peaks.min()


def test_peak_scalar_9core_shifted(benchmark, platform9):
    """General MatEx peak of the same schedule with three cores shifted (z = 30)."""
    from repro.schedule.transforms import shift_cores
    from repro.thermal.peak import peak_temperature

    up = two_mode_schedule([0.6] * 9, [1.3] * 9, _RATIOS_9, 0.02)
    s = shift_cores(up, {c: 0.02 * c / 9 for c in (1, 3, 6)})
    assert s.n_intervals == 30
    model = platform9.model
    r = benchmark(lambda: peak_temperature(model, s))
    assert r.value == r.core_peaks.max()


def test_pco_9core(benchmark, platform9):
    """PCO end to end on a fresh 9-core engine: AO core, phase search, fill."""
    from repro.algorithms.pco import pco
    from repro.engine import ThermalEngine

    def run():
        return pco(ThermalEngine(platform9), m_cap=16, shift_grid=8)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.feasible and result.throughput > 0
