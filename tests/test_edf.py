"""Tests for the EDF-under-oscillation simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.realtime import RTTask
from repro.schedule.builders import constant_schedule, two_mode_schedule
from repro.workload.edf import simulate_edf, supply_in_window


class TestSupplyInWindow:
    def test_constant_speed(self):
        s = constant_schedule([0.9], period=0.01)
        assert supply_in_window(s, 0, 0.0, 0.05) == pytest.approx(0.045)

    def test_two_mode_average(self):
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.01)
        # Over a whole number of periods the supply is the average speed.
        assert supply_in_window(s, 0, 0.0, 0.05) == pytest.approx(0.95 * 0.05)

    def test_window_inside_low_phase(self):
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.01)
        # The low phase comes first (step-up): [0, 5ms) at 0.6.
        assert supply_in_window(s, 0, 0.0, 0.005) == pytest.approx(0.6 * 0.005)

    def test_wraps_periods(self):
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.01)
        a = supply_in_window(s, 0, 0.0, 0.012)
        b = supply_in_window(s, 0, 0.01, 0.002)  # same phase alignment
        assert a == pytest.approx(0.95 * 0.01 + b)

    def test_negative_window_rejected(self):
        s = constant_schedule([0.9], period=0.01)
        with pytest.raises(ConfigurationError):
            supply_in_window(s, 0, 0.0, -1.0)


class TestSimulateEDF:
    def test_feasible_set_meets_deadlines(self):
        # Demand 0.8 on a core averaging 0.95 with a 1 ms cycle.
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.001)
        tasks = [
            RTTask("a", wcec=0.02, period_s=0.05),   # u = 0.4
            RTTask("b", wcec=0.04, period_s=0.10),   # u = 0.4
        ]
        report = simulate_edf(s, 0, tasks)
        assert report.all_deadlines_met
        assert report.jobs_completed > 0

    def test_overload_misses_deadlines(self):
        s = constant_schedule([0.6], period=0.01)
        tasks = [RTTask("hog", wcec=0.09, period_s=0.1)]  # u = 0.9 > 0.6
        report = simulate_edf(s, 0, tasks)
        assert not report.all_deadlines_met
        assert report.max_lateness_s > 0

    def test_slow_oscillation_can_miss(self):
        # Average speed 0.95 > demand 0.9, but the cycle (100 ms) is as long
        # as the task period: the job released into the low phase starves.
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.1)
        tasks = [RTTask("tight", wcec=0.045, period_s=0.05)]  # u = 0.9
        report = simulate_edf(s, 0, tasks, horizon_s=1.0)
        assert not report.all_deadlines_met

    def test_fast_oscillation_fixes_it(self):
        # Same demand, cycle pushed to 1 ms: the fluid approximation holds.
        s = two_mode_schedule([0.6], [1.3], [0.5], 0.001)
        tasks = [RTTask("tight", wcec=0.045, period_s=0.05)]
        report = simulate_edf(s, 0, tasks, horizon_s=1.0)
        assert report.all_deadlines_met

    def test_empty_taskset(self):
        s = constant_schedule([0.9], period=0.01)
        report = simulate_edf(s, 0, [])
        assert report.jobs_released == 0
        assert report.all_deadlines_met

    def test_invalid_core(self):
        s = constant_schedule([0.9], period=0.01)
        with pytest.raises(ConfigurationError):
            simulate_edf(s, 3, [RTTask("a", 0.01, 0.1)])

    def test_utilization_accounting(self):
        s = constant_schedule([1.0], period=0.01)
        tasks = [RTTask("a", wcec=0.05, period_s=0.1)]
        report = simulate_edf(s, 0, tasks, horizon_s=1.0)
        assert report.jobs_released == 10
        assert report.jobs_completed == 10

    def test_end_to_end_with_workload_layer(self):
        # The full pipeline's emitted schedule really runs its tasks.
        from repro.platform import paper_platform
        from repro.realtime import TaskSet
        from repro.workload import schedule_taskset

        p = paper_platform(3, n_levels=5, t_max_c=65.0)
        ts = TaskSet.random(6, total_utilization=2.0,
                            rng=np.random.default_rng(5),
                            period_range=(0.05, 0.2))
        result = schedule_taskset(p, ts, m_cap=64)
        assert result.thermally_feasible
        sched = result.minpeak.schedule
        for core in range(3):
            tasks = result.mapping.core_tasks(core)
            if not tasks:
                continue
            report = simulate_edf(sched, core, tasks)
            assert report.all_deadlines_met, (
                f"core {core} missed {len(report.deadline_misses)} deadlines"
            )
