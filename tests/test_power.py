"""Unit tests for the power model and DVFS machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModeError, PowerModelError
from repro.power.dvfs import (
    PAPER_LADDERS,
    TransitionOverhead,
    VoltageLadder,
    full_ladder,
    paper_ladder,
)
from repro.power.model import PowerModel


class TestPowerModel:
    def test_psi_zero_at_idle(self, power_model):
        assert power_model.psi(0.0) == 0.0

    def test_psi_monotone_on_ladder(self, power_model):
        volts = np.linspace(0.6, 1.3, 20)
        psi = power_model.psi(volts)
        assert np.all(np.diff(psi) > 0)

    def test_psi_convexity(self, power_model):
        # midpoint rule: psi((a+b)/2) <= (psi(a)+psi(b))/2
        a, b = 0.7, 1.25
        mid = power_model.psi((a + b) / 2)
        assert mid <= (power_model.psi(a) + power_model.psi(b)) / 2

    def test_total_power_adds_leakage_feedback(self, power_model):
        v, theta = 1.0, 20.0
        expected = power_model.psi(v) + power_model.beta * theta
        assert power_model.total_power(v, theta) == pytest.approx(expected)

    def test_leakage_power_components(self, power_model):
        v, theta = 1.0, 10.0
        assert power_model.leakage_power(v, theta) == pytest.approx(
            power_model.alpha_lin * v + power_model.beta * theta
        )

    def test_dynamic_power_cubic(self, power_model):
        assert power_model.dynamic_power(1.0) == pytest.approx(power_model.gamma)

    def test_out_of_range_voltage_rejected(self, power_model):
        with pytest.raises(PowerModelError):
            power_model.psi(1.5)
        with pytest.raises(PowerModelError):
            power_model.psi(0.3)

    def test_idle_is_always_allowed(self, power_model):
        out = power_model.psi(np.array([0.0, 0.8, 0.0]))
        assert out[0] == 0.0 and out[2] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": -1.0},
            {"alpha_lin": -0.1},
            {"beta": -0.1},
            {"v_min": 0.0},
            {"v_min": 1.4, "v_max": 1.3},
        ],
    )
    def test_invalid_coefficients(self, kwargs):
        with pytest.raises(PowerModelError):
            PowerModel(**kwargs)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_psi_inverse_roundtrip(self, target_power):
        pm = PowerModel()
        v = pm.psi_inverse(target_power)
        # Verify the root satisfies the cubic regardless of clamping range.
        assert pm.alpha_lin * v + pm.gamma * v**3 == pytest.approx(
            target_power, rel=1e-9
        )

    def test_psi_inverse_zero(self, power_model):
        assert power_model.psi_inverse(0.0) == 0.0

    def test_psi_inverse_negative_raises(self, power_model):
        with pytest.raises(PowerModelError):
            power_model.psi_inverse(-1.0)


class TestVoltageLadder:
    def test_paper_ladders(self):
        for n, levels in PAPER_LADDERS.items():
            lad = paper_ladder(n)
            assert len(lad) == n
            assert lad.levels == levels

    def test_unknown_ladder_raises(self):
        with pytest.raises(ModeError):
            paper_ladder(7)

    def test_full_ladder_has_15_levels(self):
        lad = full_ladder()
        assert len(lad) == 15
        assert lad.v_min == 0.6 and lad.v_max == 1.3

    def test_full_ladder_bad_step(self):
        with pytest.raises(ModeError):
            full_ladder(step=0.11)

    def test_requires_increasing_levels(self):
        with pytest.raises(ModeError):
            VoltageLadder((0.8, 0.6))
        with pytest.raises(ModeError):
            VoltageLadder((0.6, 0.6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ModeError):
            VoltageLadder((0.0, 0.6))

    def test_lower_neighbor(self):
        lad = paper_ladder(4)  # 0.6, 0.8, 1.0, 1.3
        assert lad.lower_neighbor(0.95) == 0.8
        assert lad.lower_neighbor(1.0) == 1.0
        assert lad.lower_neighbor(2.0) == 1.3
        with pytest.raises(ModeError):
            lad.lower_neighbor(0.5)

    def test_upper_neighbor(self):
        lad = paper_ladder(4)
        assert lad.upper_neighbor(0.95) == 1.0
        assert lad.upper_neighbor(0.8) == 0.8
        with pytest.raises(ModeError):
            lad.upper_neighbor(1.35)

    def test_neighbors_bracket(self):
        lad = paper_ladder(2)
        lo, hi = lad.neighbors(0.9)
        assert (lo, hi) == (0.6, 1.3)
        assert lad.neighbors(0.5) == (0.6, 0.6)   # clamped low
        assert lad.neighbors(1.31) == (1.3, 1.3)  # clamped high
        assert lad.neighbors(0.6) == (0.6, 0.6)   # exact level

    def test_split_ratios_reconstruct_target(self):
        lad = paper_ladder(2)
        for v in (0.7, 0.95, 1.2085, 1.1748):
            lo, hi, r_l, r_h = lad.split_ratios(v)
            assert r_l + r_h == pytest.approx(1.0)
            assert lo * r_l + hi * r_h == pytest.approx(v)

    def test_split_ratios_table2(self):
        # The paper's Table II numbers fall straight out of eq. (11).
        lad = paper_ladder(2)
        _, _, _, rh_edge = lad.split_ratios(1.2085)
        _, _, _, rh_mid = lad.split_ratios(1.1748)
        assert rh_edge == pytest.approx(0.8693, abs=1e-4)
        assert rh_mid == pytest.approx(0.8211, abs=1e-4)

    def test_index_of(self):
        lad = paper_ladder(3)
        assert lad.index_of(0.8) == 1
        with pytest.raises(ModeError):
            lad.index_of(0.81)

    def test_contains_tolerance(self):
        lad = paper_ladder(2)
        assert lad.contains(0.6 + 1e-12)
        assert not lad.contains(0.61)


class TestTransitionOverhead:
    def test_paper_delta_formula(self):
        ov = TransitionOverhead(tau=5e-6)
        delta = ov.delta(0.6, 1.3)
        assert delta == pytest.approx((1.3 + 0.6) * 5e-6 / (1.3 - 0.6))

    def test_delta_requires_distinct_modes(self):
        ov = TransitionOverhead()
        with pytest.raises(PowerModelError):
            ov.delta(1.0, 1.0)

    def test_max_m_for_core(self):
        ov = TransitionOverhead(tau=5e-6)
        delta = ov.delta(0.6, 1.3)
        t_low = 4e-3
        expected = int(np.floor(t_low / (delta + 5e-6)))
        assert ov.max_m_for_core(t_low, 0.6, 1.3) == expected

    def test_max_m_zero_tau_unbounded(self):
        ov = TransitionOverhead(tau=0.0)
        assert ov.max_m_for_core(1e-3, 0.6, 1.3) >= 10**9

    def test_max_m_zero_low_time(self):
        ov = TransitionOverhead(tau=5e-6)
        assert ov.max_m_for_core(0.0, 0.6, 1.3) == 0

    def test_chip_wide_min(self):
        ov = TransitionOverhead(tau=5e-6)
        m1 = ov.max_m_for_core(4e-3, 0.6, 1.3)
        m2 = ov.max_m_for_core(1e-3, 0.6, 1.3)
        assert ov.max_m([(4e-3, 0.6, 1.3), (1e-3, 0.6, 1.3)]) == min(m1, m2)

    def test_no_oscillating_cores_unbounded(self):
        assert TransitionOverhead().max_m([]) >= 10**9

    def test_negative_tau_rejected(self):
        with pytest.raises(PowerModelError):
            TransitionOverhead(tau=-1e-6)
