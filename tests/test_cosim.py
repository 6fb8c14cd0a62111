"""Tests for the workload/thermal co-simulation engine."""

import pytest

from repro.errors import ConfigurationError
from repro.platform import paper_platform
from repro.realtime import RTTask
from repro.schedule.builders import constant_schedule, two_mode_schedule
from repro.sim import cosimulate


@pytest.fixture(scope="module")
def p3():
    return paper_platform(3, n_levels=5, t_max_c=65.0)


def light_tasks(u: float, period: float = 0.05) -> list[RTTask]:
    return [RTTask(f"t{period}", wcec=u * period, period_s=period)]


class TestCosimulate:
    def test_fast_tasks_earn_large_idle_dividend(self, p3):
        # Half-loaded cores with 2 ms task periods: the idle gaps interleave
        # below the ~3 ms thermal time constant, so race-to-idle genuinely
        # cools — the m-oscillation insight, observed from the task side.
        sched = constant_schedule([1.2, 1.2, 1.2], period=0.02)
        tasks = [light_tasks(0.5, period=0.002) for _ in range(3)]
        rep = cosimulate(p3.model, sched, tasks, horizon_s=0.2)
        assert rep.all_deadlines_met
        assert rep.idle_fractions.min() > 0.3
        assert rep.idle_dividend_theta > 5.0
        assert rep.actual_peak_theta < rep.nominal_peak_theta

    def test_slow_tasks_earn_little_despite_idle_time(self, p3):
        # Same 58% idle but in ~20-30 ms stretches (far above the thermal
        # time constant): each busy burst still reaches the full nominal
        # quasi-steady peak, so the dividend nearly vanishes.  Slack only
        # cools when interleaved fast — the paper's core insight.
        sched = constant_schedule([1.2, 1.2, 1.2], period=0.02)
        tasks = [light_tasks(0.5, period=0.05) for _ in range(3)]
        rep = cosimulate(p3.model, sched, tasks, horizon_s=0.2)
        assert rep.idle_fractions.min() > 0.3
        assert rep.idle_dividend_theta < 1.0

    def test_fully_loaded_core_has_no_dividend(self, p3):
        sched = constant_schedule([1.0, 1.0, 1.0], period=0.02)
        tasks = [light_tasks(0.999), light_tasks(0.999), light_tasks(0.999)]
        rep = cosimulate(p3.model, sched, tasks)
        assert rep.idle_fractions.max() < 0.05
        assert rep.idle_dividend_theta == pytest.approx(0.0, abs=0.5)

    def test_actual_never_exceeds_nominal(self, p3, rng):
        sched = two_mode_schedule([0.6] * 3, [1.3] * 3, [0.5, 0.7, 0.3], 0.01)
        tasks = [light_tasks(float(rng.uniform(0.2, 0.8))) for _ in range(3)]
        rep = cosimulate(p3.model, sched, tasks)
        assert rep.actual_peak_theta <= rep.nominal_peak_theta + 1e-6

    def test_empty_core_idles_completely(self, p3):
        sched = constant_schedule([1.0, 1.0, 1.0], period=0.02)
        tasks = [light_tasks(0.5), [], light_tasks(0.5)]
        rep = cosimulate(p3.model, sched, tasks)
        assert rep.idle_fractions[1] == pytest.approx(1.0)
        assert rep.edf_reports[1].jobs_released == 0

    def test_overload_reports_misses(self, p3):
        sched = constant_schedule([0.6, 0.6, 0.6], period=0.02)
        tasks = [light_tasks(0.9), light_tasks(0.1), light_tasks(0.1)]
        rep = cosimulate(p3.model, sched, tasks)
        assert not rep.all_deadlines_met
        assert not rep.edf_reports[0].all_deadlines_met

    def test_core_count_mismatch_rejected(self, p3):
        sched = constant_schedule([1.0, 1.0, 1.0], period=0.02)
        with pytest.raises(ConfigurationError):
            cosimulate(p3.model, sched, [light_tasks(0.5)])

    def test_summary(self, p3):
        sched = constant_schedule([1.0, 1.0, 1.0], period=0.02)
        tasks = [light_tasks(0.5)] * 3
        assert "cosim" in cosimulate(p3.model, sched, tasks).summary()
