"""Tests for peak identification: Theorem-1 fast path vs general search."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.schedule.builders import (
    constant_schedule,
    phase_schedule,
    random_schedule,
    random_stepup_schedule,
    two_mode_schedule,
)
from repro.schedule.transforms import shift_core
from repro.thermal.peak import peak_temperature, stepup_peak_temperature


class TestStepupFastPath:
    def test_matches_general_search(self, model3, rng):
        for _ in range(5):
            s = random_stepup_schedule(3, rng, levels=(0.6, 0.9, 1.3), period=0.05)
            fast = stepup_peak_temperature(model3, s)
            general = peak_temperature(model3, s, stepup_fast_path=False,
                                       grid_per_interval=128)
            assert fast.value == pytest.approx(general.value, abs=2e-3)

    def test_rejects_non_stepup(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5] * 3, 0.01, high_first=True)
        with pytest.raises(ScheduleError):
            stepup_peak_temperature(model3, s)

    def test_check_can_be_disabled(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5] * 3, 0.01, high_first=True)
        # With check off it computes the end-of-period temperature silently.
        result = stepup_peak_temperature(model3, s, check=False)
        assert np.isfinite(result.value)

    def test_core_peaks_shape(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.2, 0.5, 0.8], 0.02)
        r = stepup_peak_temperature(model3, s)
        assert r.core_peaks.shape == (3,)
        assert r.value == pytest.approx(r.core_peaks.max())
        assert r.core == int(np.argmax(r.core_peaks))
        # In stable status t=0 and t=period are the same instant.
        assert r.time == pytest.approx(s.period) or r.time == pytest.approx(0.0)

    def test_celsius_conversion(self, model3):
        s = constant_schedule([1.0] * 3, period=0.01)
        r = stepup_peak_temperature(model3, s)
        assert r.celsius(model3) == pytest.approx(r.value + 35.0)


    @pytest.mark.parametrize("kernel", [stepup_peak_temperature, peak_temperature])
    def test_one_steady_state_lookup_per_interval(self, model3, rng, kernel):
        s = random_stepup_schedule(3, rng, levels=(0.6, 0.9, 1.3), period=0.05)
        if kernel is peak_temperature:
            s = shift_core(s, 0, 0.01)  # off the step-up fast path
        before = model3.ss_solves + model3.ss_cache_hits
        kernel(model3, s)
        assert model3.ss_solves + model3.ss_cache_hits - before == s.n_intervals


class TestGeneralPeak:
    def test_constant_schedule_peak_is_steady_state(self, model3):
        v = [1.2, 0.8, 1.0]
        s = constant_schedule(v, period=0.05)
        r = peak_temperature(model3, s)
        assert r.value == pytest.approx(model3.steady_state_cores(v).max(), abs=1e-9)

    def test_fast_path_taken_for_stepup(self, model3):
        s = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5] * 3, 0.02)
        with_fast = peak_temperature(model3, s, stepup_fast_path=True)
        assert with_fast.time == pytest.approx(s.period)

    def test_interior_peak_located(self, model2):
        # Core 0 bursts high during [0, 0.05) then idles at 0.6 V; its
        # temperature tops out at the burst end — strictly inside the period.
        s = phase_schedule([0.6, 0.6], [1.3, 0.6], 0.05, [0.0, 0.0], 0.1)
        r = peak_temperature(model2, s)
        assert r.core == 0
        assert r.time == pytest.approx(0.05, abs=0.01)

    def test_agrees_with_oracle_on_random(self, model3, rng):
        from repro.thermal.reference import reference_peak

        s = random_schedule(3, rng, levels=(0.6, 1.3), period=0.04, max_segments=3)
        ours = peak_temperature(model3, s, grid_per_interval=96).value
        oracle = reference_peak(model3, s, samples_per_interval=96)
        assert ours == pytest.approx(oracle, abs=5e-3)

    def test_core_peaks_bound_value(self, model3, rng):
        s = random_schedule(3, rng, levels=(0.6, 1.0, 1.3), period=0.03)
        r = peak_temperature(model3, s)
        assert r.value == pytest.approx(r.core_peaks.max(), abs=1e-9)
