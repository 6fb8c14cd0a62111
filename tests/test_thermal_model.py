"""Unit tests for ThermalModel: folding, steady states, propagation."""

import numpy as np
import pytest

from repro.errors import PowerModelError, ThermalModelError, ThermalRunawayError
from repro.floorplan.library import floorplan_2x1
from repro.power.model import PowerModel
from repro.thermal.model import ThermalModel
from repro.thermal.rc import build_single_layer_network


class TestConstruction:
    def test_leakage_folding_on_core_diagonal(self, model3):
        net = model3.network
        diff = net.conductance - model3.g_eff
        expected = np.zeros_like(diff)
        cores = net.core_nodes
        expected[cores, cores] = model3.power.beta
        assert np.allclose(diff, expected)

    def test_thermal_runaway_detected(self):
        net = build_single_layer_network(floorplan_2x1())
        hot_power = PowerModel(beta=10.0)  # way beyond removal ability
        with pytest.raises(ThermalRunawayError):
            ThermalModel(net, hot_power)

    def test_eigenvalues_negative(self, model3):
        assert np.all(model3.eigen.eigenvalues < 0)

    def test_slowest_time_constant_ms_scale(self, model3):
        # The calibrated chip's dominant time constant is milliseconds.
        assert 1e-3 < model3.slowest_time_constant < 50e-3


class TestSteadyState:
    def test_matches_direct_solve(self, model3):
        v = [1.0, 0.8, 1.2]
        theta = model3.steady_state(v)
        assert np.allclose(model3.g_eff @ theta, model3.injection(v))

    def test_steady_state_memoized(self, model3):
        a = model3.steady_state([0.7, 0.7, 0.7])
        b = model3.steady_state([0.7, 0.7, 0.7])
        assert a is b  # same cached array

    def test_monotone_in_voltage(self, model3):
        low = model3.steady_state_cores([0.8, 0.8, 0.8])
        high = model3.steady_state_cores([0.9, 0.8, 0.8])
        assert np.all(high >= low - 1e-12)
        assert high[0] > low[0]

    def test_symmetry_of_symmetric_chip(self, model3):
        theta = model3.steady_state_cores([1.0, 0.8, 1.0])
        assert theta[0] == pytest.approx(theta[2])

    def test_idle_chip_is_ambient(self, model3):
        assert np.allclose(model3.steady_state([0.0, 0.0, 0.0]), 0.0)

    def test_batch_matches_single(self, model3, rng):
        volts = rng.choice([0.6, 0.9, 1.3], size=(7, 3))
        batch = model3.steady_state_batch(volts)
        for k in range(7):
            assert np.allclose(batch[k], model3.steady_state_cores(volts[k]))

    def test_batch_shape_validation(self, model3):
        with pytest.raises(ThermalModelError):
            model3.steady_state_batch(np.ones((4, 2)))


class TestSteadyStateMany:
    """The batch lookup counts, caches and evicts as sequential calls do."""

    VOLTS = [
        (0.8, 0.8, 0.8),
        (1.0, 0.6, 1.2),
        (0.8, 0.8, 0.8),
        (1.3, 1.3, 1.3),
        (1.0, 0.6, 1.2),
        (0.8, 0.8, 0.8),
    ]

    def _fresh(self, model3):
        return ThermalModel(model3.network, model3.power)

    def test_repeat_within_one_call_is_one_solve(self, model3):
        model = self._fresh(model3)
        out = model.steady_state_many([(0.7, 0.9, 1.1)] * 3)
        assert (model.ss_solves, model.ss_cache_hits) == (1, 2)
        assert out[0] is out[1] is out[2]
        assert model.steady_state((0.7, 0.9, 1.1)) is out[0]

    def test_matches_sequential_calls(self, model3):
        batch, seq = self._fresh(model3), self._fresh(model3)
        seq.steady_state(self.VOLTS[3])
        batch.steady_state_many([self.VOLTS[3]])
        got = batch.steady_state_many(np.array(self.VOLTS))
        want = [seq.steady_state(v) for v in self.VOLTS]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert (batch.ss_solves, batch.ss_cache_hits) == (
            seq.ss_solves,
            seq.ss_cache_hits,
        ) == (3, 4)
        assert list(batch._ss_cache) == list(seq._ss_cache)
        assert batch.steady_state_many([]) == []

    def test_lru_eviction_order(self, monkeypatch, model3):
        monkeypatch.setattr(ThermalModel, "SS_CACHE_SIZE", 2)
        batch, seq = self._fresh(model3), self._fresh(model3)
        volts = [(0.6,) * 3, (0.8,) * 3, (0.6,) * 3, (1.0,) * 3, (0.8,) * 3]
        got = batch.steady_state_many(volts)
        want = [seq.steady_state(v) for v in volts]
        # (0.8,)*3 is the least recently used when (1.0,)*3 arrives, so it
        # is evicted and solved again; (0.6,)*3 survives.
        assert batch.ss_solves == seq.ss_solves == 4
        assert batch.ss_cache_hits == seq.ss_cache_hits == 1
        assert list(batch._ss_cache) == list(seq._ss_cache) == [
            (1.0,) * 3,
            (0.8,) * 3,
        ]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_rejected_voltages_leave_no_pending_entry(self, model3):
        model = self._fresh(model3)
        with pytest.raises(PowerModelError):
            model.steady_state_many([(0.8, 0.8, 0.8), (5.0, 0.8, 0.8)])
        assert model.ss_solves == 0
        assert not model._ss_cache


class TestPropagation:
    def test_zero_dt_identity(self, model3, rng):
        theta0 = rng.uniform(0, 10, size=model3.n_nodes)
        out = model3.propagate(theta0, 0.0, [0.8, 0.8, 0.8])
        assert np.allclose(out, theta0)

    def test_long_dt_reaches_steady(self, model3):
        v = [1.1, 0.9, 1.1]
        target = model3.steady_state(v)
        out = model3.propagate(np.zeros(model3.n_nodes), 100.0, v)
        assert np.allclose(out, target, atol=1e-9)

    def test_semigroup_property(self, model3, rng):
        v = [0.9, 1.2, 0.7]
        theta0 = rng.uniform(0, 15, size=model3.n_nodes)
        one = model3.propagate(theta0, 0.02, v)
        two = model3.propagate(model3.propagate(theta0, 0.01, v), 0.01, v)
        assert np.allclose(one, two, atol=1e-10)

    def test_negative_dt_rejected(self, model3):
        with pytest.raises(ThermalModelError):
            model3.propagate(np.zeros(model3.n_nodes), -0.1, [0.6, 0.6, 0.6])

    def test_superposition(self, model3):
        # LTI: response to (psi1 + psi2) = response to psi1 + response to psi2
        # (checked through steady states, which are linear in psi).
        t1 = model3.steady_state([0.8, 0.0, 0.0])
        t2 = model3.steady_state([0.0, 0.0, 1.1])
        t12 = model3.steady_state([0.8, 0.0, 1.1])
        assert np.allclose(t12, t1 + t2, atol=1e-12)


class TestInverseProblem:
    def test_required_injection_roundtrip(self, model3):
        target = np.array([25.0, 25.0, 25.0])
        q = model3.required_injection_for(target)
        # Feed the injections back: cores must sit at the target.
        v = [model3.power.psi_inverse(max(qi, 0.0)) for qi in q]
        theta = model3.steady_state_cores(np.clip(v, 0.6, 1.3))
        assert np.allclose(theta, target, atol=1e-9)

    def test_middle_core_needs_less_power(self, model3):
        q = model3.required_injection_for(np.full(3, 30.0))
        assert q[1] < q[0]
        assert q[0] == pytest.approx(q[2])


class TestUnits:
    def test_celsius_roundtrip(self, model3):
        theta = np.array([10.0, 20.0, 30.0])
        assert np.allclose(model3.from_celsius(model3.to_celsius(theta)), theta)

    def test_threshold_theta(self, model3):
        assert model3.threshold_theta(65.0) == pytest.approx(30.0)

    def test_threshold_below_ambient_rejected(self, model3):
        with pytest.raises(ThermalModelError):
            model3.threshold_theta(30.0)

    def test_b_vector_definition(self, model3):
        v = [1.0, 1.0, 1.0]
        assert np.allclose(
            model3.b_vector(v), model3.injection(v) / model3.c_diag
        )
