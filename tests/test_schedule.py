"""Unit tests for schedule primitives, builders and properties."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.schedule.builders import (
    constant_schedule,
    from_core_timelines,
    phase_schedule,
    random_schedule,
    random_stepup_schedule,
    two_mode_schedule,
)
from repro.schedule.periodic import PeriodicSchedule, core_runs
from repro.schedule.properties import (
    core_workloads,
    is_step_up,
    same_workload,
    throughput,
)


class TestStateInterval:
    """One state interval is one row of the schedule's arrays."""

    def test_basic(self):
        assert PeriodicSchedule([0.5], [[0.6, 1.3]]).n_cores == 2

    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_length(self, length):
        with pytest.raises(ScheduleError, match="state interval length"):
            PeriodicSchedule([length], [[0.6]])

    def test_bad_voltages(self):
        with pytest.raises(ScheduleError, match="voltages must be finite"):
            PeriodicSchedule([1.0], [[-0.1]])
        with pytest.raises(ScheduleError, match="at least one core"):
            PeriodicSchedule([1.0], [[]])


class TestPeriodicSchedule:
    def test_shape_accessors(self):
        s = PeriodicSchedule([0.3, 0.7], [[0.6, 0.6], [1.3, 0.6]])
        assert s.n_cores == 2
        assert s.n_intervals == 2
        assert s.period == pytest.approx(1.0)
        assert np.allclose(s.lengths, [0.3, 0.7])
        assert np.allclose(s.boundaries, [0.0, 0.3, 1.0])
        assert s.voltage_matrix.shape == (2, 2)

    def test_rejects_mixed_core_counts(self):
        with pytest.raises(ScheduleError):
            PeriodicSchedule([1.0, 1.0], [[0.6], [0.6, 0.6]])

    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            PeriodicSchedule([], [])

    def test_voltage_at_wraps(self):
        s = PeriodicSchedule([0.5, 0.5], [[0.6], [1.3]])
        assert s.voltage_at(0.25)[0] == 0.6
        assert s.voltage_at(0.75)[0] == 1.3
        assert s.voltage_at(1.25)[0] == 0.6  # wrapped

    def test_core_timeline_merges(self):
        s = PeriodicSchedule([0.2, 0.3, 0.5], [[0.6, 0.6], [0.6, 1.3], [1.3, 1.3]])
        seg_len, seg_v, counts = core_runs(s.lengths, s.voltage_matrix)
        assert counts.tolist() == [2, 2]
        assert np.allclose(seg_len, [[0.5, 0.5], [0.2, 0.8]])
        assert seg_v.tolist() == [[0.6, 1.3], [0.6, 1.3]]

    def test_scaled(self):
        s = two_mode_schedule([0.6, 0.6], [1.3, 1.3], [0.5, 0.25], 1.0)
        s2 = s.scaled(0.5)
        assert s2.period == pytest.approx(0.5)
        assert np.allclose(s2.voltage_matrix, s.voltage_matrix)
        with pytest.raises(ScheduleError):
            s.scaled(0.0)

    def test_rotation_preserves_workload(self):
        s = two_mode_schedule([0.6, 0.6], [1.3, 1.3], [0.3, 0.7], 1.0)
        r = s.rotated(0.37)
        assert same_workload(s, r)

    def test_rotation_identity(self):
        s = constant_schedule([1.0], period=2.0)
        assert s.rotated(0.0) is s
        r = s.rotated(2.0)  # full period = identity
        assert r.period == pytest.approx(2.0)


class TestBuilders:
    def test_from_core_timelines_breakpoints(self):
        s = from_core_timelines(
            [
                [(0.4, 0.6), (0.6, 1.3)],
                [(0.5, 0.6), (0.5, 1.3)],
            ]
        )
        assert s.n_intervals == 3  # cuts at 0.4 and 0.5
        assert np.allclose(s.lengths, [0.4, 0.1, 0.5])
        assert np.allclose(s.voltage_matrix[1], [1.3, 0.6])

    def test_from_core_timelines_period_mismatch(self):
        with pytest.raises(ScheduleError):
            from_core_timelines([[(1.0, 0.6)], [(0.9, 0.6)]])

    def test_from_core_timelines_empty(self):
        with pytest.raises(ScheduleError):
            from_core_timelines([])
        with pytest.raises(ScheduleError):
            from_core_timelines([[]])

    def test_constant_schedule(self):
        s = constant_schedule([0.9, 1.1], period=0.5)
        assert s.n_intervals == 1
        assert s.period == pytest.approx(0.5)

    def test_two_mode_is_step_up(self):
        s = two_mode_schedule([0.6, 0.6, 0.6], [1.3, 1.3, 1.3],
                              [0.2, 0.8, 0.5], 0.02)
        assert is_step_up(s)

    def test_two_mode_workload(self):
        s = two_mode_schedule([0.6], [1.3], [0.25], 1.0)
        w = core_workloads(s)
        assert w[0] == pytest.approx(0.75 * 0.6 + 0.25 * 1.3)

    def test_two_mode_degenerate_ratios(self):
        s = two_mode_schedule([0.6, 0.6], [1.3, 1.3], [0.0, 1.0], 1.0)
        # core 0 constant low, core 1 constant high -> single interval
        assert s.n_intervals == 1
        assert tuple(s.voltage_matrix[0]) == (0.6, 1.3)

    def test_two_mode_high_first(self):
        s = two_mode_schedule([0.6], [1.3], [0.5], 1.0, high_first=True)
        assert s.voltage_matrix[0, 0] == 1.3
        assert not is_step_up(s)

    def test_two_mode_validation(self):
        with pytest.raises(ScheduleError):
            two_mode_schedule([0.6], [1.3], [1.5], 1.0)
        with pytest.raises(ScheduleError):
            two_mode_schedule([1.3], [0.6], [0.5], 1.0)
        with pytest.raises(ScheduleError):
            two_mode_schedule([0.6], [1.3], [0.5], 0.0)

    def test_phase_schedule_window(self):
        s = phase_schedule([0.6], [1.3], high_length=0.3, high_start=0.2, period=1.0)
        assert s.voltage_at(0.1)[0] == 0.6
        assert s.voltage_at(0.35)[0] == 1.3
        assert s.voltage_at(0.6)[0] == 0.6

    def test_phase_schedule_wraps(self):
        s = phase_schedule([0.6], [1.3], high_length=0.4, high_start=0.8, period=1.0)
        assert s.voltage_at(0.9)[0] == 1.3
        assert s.voltage_at(0.1)[0] == 1.3  # wrapped tail
        assert s.voltage_at(0.5)[0] == 0.6

    def test_phase_schedule_degenerate(self):
        allhigh = phase_schedule([0.6], [1.3], high_length=1.0, high_start=0.4, period=1.0)
        assert np.all(allhigh.voltage_matrix == 1.3)
        alllow = phase_schedule([0.6], [1.3], high_length=0.0, high_start=0.4, period=1.0)
        assert np.all(alllow.voltage_matrix == 0.6)

    def test_phase_schedule_validation(self):
        with pytest.raises(ScheduleError):
            phase_schedule([0.6], [1.3], high_length=2.0, high_start=0.0, period=1.0)
        with pytest.raises(ScheduleError):
            phase_schedule([0.6], [1.3], high_length=0.5, high_start=0.0, period=0.0)

    def test_random_schedule_reproducible(self):
        a = random_schedule(3, np.random.default_rng(7))
        b = random_schedule(3, np.random.default_rng(7))
        assert np.allclose(a.voltage_matrix, b.voltage_matrix)
        assert np.allclose(a.lengths, b.lengths)

    def test_random_stepup_is_step_up(self):
        for seed in range(10):
            s = random_stepup_schedule(4, np.random.default_rng(seed))
            assert is_step_up(s)

    def test_random_schedule_validation(self):
        with pytest.raises(ScheduleError):
            random_schedule(0, np.random.default_rng(0))


class TestProperties:
    def test_throughput_constant(self):
        s = constant_schedule([0.8, 1.2], period=3.0)
        assert throughput(s) == pytest.approx(1.0)

    def test_throughput_is_mean_voltage(self):
        s = two_mode_schedule([0.6, 0.6], [1.3, 1.3], [0.5, 0.0], 1.0)
        assert throughput(s) == pytest.approx((0.95 + 0.6) / 2)

    def test_same_workload_detects_difference(self):
        a = two_mode_schedule([0.6], [1.3], [0.5], 1.0)
        b = two_mode_schedule([0.6], [1.3], [0.6], 1.0)
        assert not same_workload(a, b)

    def test_same_workload_requires_same_period(self):
        a = constant_schedule([1.0], period=1.0)
        b = constant_schedule([1.0], period=2.0)
        assert not same_workload(a, b)

    def test_is_step_up_examples(self):
        up = two_mode_schedule([0.6], [1.3], [0.5], 1.0)
        down = two_mode_schedule([0.6], [1.3], [0.5], 1.0, high_first=True)
        assert is_step_up(up) and not is_step_up(down)
