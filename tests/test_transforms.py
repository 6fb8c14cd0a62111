"""Unit tests for schedule transforms: step_up, m_oscillate, shift_core."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.schedule.builders import (
    constant_schedule,
    phase_schedule,
    random_schedule,
    two_mode_schedule,
)
from repro.schedule.periodic import PeriodicSchedule, core_runs
from repro.schedule.properties import core_workloads, is_step_up, same_workload
from repro.schedule.transforms import (
    m_oscillate,
    m_oscillate_core,
    merge_adjacent,
    shift_core,
    step_up,
)


class TestStepUp:
    def test_sorts_each_core(self):
        s = PeriodicSchedule([0.2, 0.3, 0.5], [[1.3, 0.6], [0.6, 1.0], [1.0, 1.3]])
        u = step_up(s)
        assert is_step_up(u)
        volts = u.voltage_matrix
        assert np.all(np.diff(volts, axis=0) >= 0)

    def test_preserves_workload(self, rng):
        for _ in range(10):
            s = random_schedule(3, rng)
            u = step_up(s)
            assert same_workload(s, u)

    def test_idempotent(self, rng):
        s = random_schedule(4, rng)
        u = step_up(s)
        uu = step_up(u)
        assert np.allclose(u.voltage_matrix, uu.voltage_matrix)
        assert np.allclose(u.lengths, uu.lengths)

    def test_already_stepup_unchanged_semantics(self):
        s = two_mode_schedule([0.6, 0.6], [1.3, 1.3], [0.3, 0.6], 1.0)
        u = step_up(s)
        assert same_workload(s, u)
        assert is_step_up(u)


class TestMOscillate:
    def test_m1_identity(self, rng):
        s = random_schedule(2, rng)
        assert m_oscillate(s, 1) is s

    def test_scales_period(self, rng):
        s = random_schedule(2, rng)
        o = m_oscillate(s, 4)
        assert o.period == pytest.approx(s.period / 4)
        assert np.allclose(o.voltage_matrix, s.voltage_matrix)

    def test_preserves_throughput(self, rng):
        from repro.schedule.properties import throughput

        s = random_schedule(3, rng)
        assert throughput(m_oscillate(s, 5)) == pytest.approx(throughput(s))

    @pytest.mark.parametrize("m", [0, -1, 1.5])
    def test_invalid_m(self, m, rng):
        s = random_schedule(2, rng)
        with pytest.raises(ScheduleError):
            m_oscillate(s, m)


class TestMOscillateCore:
    def test_period_unchanged(self):
        s = phase_schedule([0.6, 0.6], [1.3, 1.3], 0.5, [0.0, 0.5], 1.0)
        o = m_oscillate_core(s, core=0, m=2)
        assert o.period == pytest.approx(s.period)

    def test_oscillated_core_cycles(self):
        s = phase_schedule([0.6, 0.6], [1.3, 1.3], 0.5, [0.0, 0.5], 1.0)
        o = m_oscillate_core(s, core=0, m=2)
        # Core 0 now switches 4 times per period instead of 2.
        counts = core_runs(o.lengths, o.voltage_matrix)[2]
        assert counts[0] == 4
        # Core 1 untouched.
        assert counts[1] == core_runs(s.lengths, s.voltage_matrix)[2][1]

    def test_workload_preserved(self):
        s = phase_schedule([0.6, 0.6], [1.3, 1.3], 0.5, [0.0, 0.5], 1.0)
        o = m_oscillate_core(s, core=0, m=3)
        assert same_workload(s, o)

    def test_invalid_args(self):
        s = constant_schedule([0.6, 0.6], period=1.0)
        with pytest.raises(ScheduleError):
            m_oscillate_core(s, core=5, m=2)
        with pytest.raises(ScheduleError):
            m_oscillate_core(s, core=0, m=0)


class TestShiftCore:
    def test_workload_preserved(self, rng):
        s = random_schedule(3, rng)
        t = shift_core(s, 1, 0.3 * s.period)
        assert same_workload(s, t)

    def test_only_target_core_moves(self):
        s = phase_schedule([0.6, 0.6], [1.3, 1.3], 0.3, [0.0, 0.0], 1.0)
        t = shift_core(s, 0, 0.5)
        # Core 1's timeline unchanged.
        w_before = core_workloads(s)
        w_after = core_workloads(t)
        assert np.allclose(w_before, w_after)
        assert t.voltage_at(0.1)[1] == s.voltage_at(0.1)[1]
        # Core 0's high window moved from [0, 0.3) to [0.5, 0.8).
        assert s.voltage_at(0.1)[0] == 1.3
        assert t.voltage_at(0.1)[0] == 0.6
        assert t.voltage_at(0.6)[0] == 1.3

    def test_full_period_shift_is_identity(self):
        s = phase_schedule([0.6], [1.3], 0.3, 0.2, 1.0)
        t = shift_core(s, 0, 1.0)
        assert np.allclose(t.voltage_at(0.3), s.voltage_at(0.3))

    def test_invalid_core(self):
        s = constant_schedule([0.6], period=1.0)
        with pytest.raises(ScheduleError):
            shift_core(s, 2, 0.1)


class TestMergeAdjacent:
    def test_merges_identical_neighbours(self):
        s = PeriodicSchedule([0.2, 0.3, 0.5], [[0.6, 0.6], [0.6, 0.6], [1.3, 0.6]])
        m = merge_adjacent(s)
        assert m.n_intervals == 2
        assert m.lengths[0] == pytest.approx(0.5)
        assert m.period == pytest.approx(s.period)

    def test_no_merge_needed(self):
        s = two_mode_schedule([0.6], [1.3], [0.5], 1.0)
        m = merge_adjacent(s)
        assert m.n_intervals == s.n_intervals
