"""Tests for transient simulation, periodic steady state, and the oracle."""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.schedule.builders import (
    constant_schedule,
    random_schedule,
    two_mode_schedule,
)
from repro.thermal.periodic import periodic_steady_state, stable_trace
from repro.thermal.reference import reference_peak, reference_simulate
from repro.thermal.transient import simulate_piecewise, simulate_schedule_period


class TestSimulatePiecewise:
    def test_trace_shapes(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5] * 3, 0.01)
        tr = simulate_piecewise(model3, s, periods=2, samples_per_interval=8)
        assert tr.temperatures.shape == (2 * s.n_intervals * 8, model3.n_nodes)
        assert tr.times.shape[0] == tr.temperatures.shape[0]
        assert np.all(np.diff(tr.times) >= 0)

    def test_end_matches_schedule_period(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.3, 0.5, 0.7], 0.02)
        tr = simulate_piecewise(model3, s, periods=1)
        direct = simulate_schedule_period(model3, s, np.zeros(model3.n_nodes))
        assert np.allclose(tr.end_temperature, direct, atol=1e-10)

    def test_starts_at_theta0(self, model3, rng):
        theta0 = rng.uniform(0, 10, model3.n_nodes)
        s = constant_schedule([0.8] * 3, period=0.01)
        tr = simulate_piecewise(model3, s, theta0=theta0)
        assert np.allclose(tr.temperatures[0], theta0)

    def test_validation(self, model3):
        s = constant_schedule([0.8] * 3, period=0.01)
        with pytest.raises(ThermalModelError):
            simulate_piecewise(model3, s, periods=0)
        with pytest.raises(ThermalModelError):
            simulate_piecewise(model3, s, samples_per_interval=1)

    def test_core_trace_selects_cores(self, model6_stacked):
        s = constant_schedule([1.0] * 6, period=0.1)
        tr = simulate_piecewise(model6_stacked, s)
        assert tr.core_trace(model6_stacked).shape[1] == 6


class TestPeriodicSteadyState:
    def test_fixed_point(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.4, 0.7, 0.2], 0.015)
        sol = periodic_steady_state(model3, s)
        start, end = sol.start_temperature, sol.end_temperature
        assert np.allclose(start, end, atol=1e-9)
        # Propagating once more from the fixed point returns to it.
        again = simulate_schedule_period(model3, s, start)
        assert np.allclose(again, start, atol=1e-9)

    def test_constant_schedule_equals_steady_state(self, model3):
        v = [1.1, 0.7, 0.9]
        s = constant_schedule(v, period=0.05)
        sol = periodic_steady_state(model3, s)
        assert np.allclose(sol.start_temperature, model3.steady_state(v), atol=1e-9)

    def test_matches_brute_force_settling(self, model3, rng):
        s = random_schedule(3, rng, levels=(0.6, 1.0, 1.3), period=0.02)
        sol = periodic_steady_state(model3, s)
        theta = np.zeros(model3.n_nodes)
        for _ in range(400):  # 400 * 20 ms = 8 s >> slowest tau
            theta = simulate_schedule_period(model3, s, theta)
        assert np.allclose(theta, sol.start_temperature, atol=1e-7)

    def test_boundary_temperatures_consistent(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5] * 3, 0.01)
        sol = periodic_steady_state(model3, s)
        theta = sol.start_temperature
        for q, (length, volts) in enumerate(s.interval_rows(), start=1):
            theta = model3.propagate(theta, length, volts)
            assert np.allclose(theta, sol.boundary_temperatures[q], atol=1e-10)

    def test_interval_solutions_stitch(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.3] * 3, 0.01)
        sol = periodic_steady_state(model3, s)
        pieces = sol.interval_solutions(model3)
        for q, piece in enumerate(pieces):
            assert np.allclose(
                piece.end_temperature(), sol.boundary_temperatures[q + 1], atol=1e-9
            )

    def test_stable_trace_periodicity(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.6] * 3, 0.02)
        tr = stable_trace(model3, s, samples_per_interval=16)
        assert np.allclose(tr.temperatures[0], tr.temperatures[-1], atol=1e-8)


class TestReferenceOracle:
    def test_matches_analytic_engine(self, model3, rng):
        s = random_schedule(3, rng, levels=(0.6, 0.9, 1.3), period=0.03)
        theta0 = rng.uniform(0, 20, model3.n_nodes)
        analytic = simulate_piecewise(model3, s, theta0=theta0, periods=2,
                                      samples_per_interval=8)
        numeric = reference_simulate(model3, s, theta0=theta0, periods=2,
                                     samples_per_interval=8)
        assert np.allclose(analytic.end_temperature, numeric.end_temperature,
                           atol=1e-6)
        assert np.allclose(analytic.temperatures, numeric.temperatures, atol=1e-5)

    def test_matches_on_stacked_topology(self, model6_stacked, rng):
        s = random_schedule(6, rng, levels=(0.6, 1.3), period=0.5, max_segments=2)
        analytic = simulate_piecewise(model6_stacked, s, periods=1)
        numeric = reference_simulate(model6_stacked, s, periods=1)
        assert np.allclose(analytic.end_temperature, numeric.end_temperature,
                           atol=1e-6)

    def test_reference_peak_agrees_with_stable_peak(self, model3):
        from repro.thermal.peak import peak_temperature

        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5, 0.3, 0.7], 0.02)
        oracle = reference_peak(model3, s, samples_per_interval=128)
        fast = peak_temperature(model3, s).value
        assert oracle == pytest.approx(fast, abs=2e-3)

    def test_validation(self, model3):
        s = constant_schedule([0.8] * 3, period=0.01)
        with pytest.raises(ThermalModelError):
            reference_simulate(model3, s, periods=0)
