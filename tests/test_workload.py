"""Tests for the real-time workload layer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SolverError
from repro.platform import paper_platform
from repro.realtime import RTTask, TaskSet
from repro.workload import (
    first_fit_decreasing,
    schedule_taskset,
    thermal_aware_mapping,
    worst_fit_decreasing,
)


class TestPeriodicTask:
    def test_utilization(self):
        t = RTTask(name="a", wcec=0.02, period_s=0.1)
        assert t.utilization == pytest.approx(0.2)

    def test_demand_at_speed(self):
        t = RTTask(name="a", wcec=0.05, period_s=0.1)
        assert t.wcet_at(1.0) / t.period_s == pytest.approx(0.5)
        assert t.wcet_at(0.5) / t.period_s == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            t.wcet_at(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "wcec": 1.0, "period_s": 1.0},
            {"name": "a", "wcec": 0.0, "period_s": 1.0},
            {"name": "a", "wcec": 1.0, "period_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RTTask(**kwargs)


class TestTaskSet:
    def test_total_utilization(self):
        ts = TaskSet(
            (
                RTTask("a", 0.02, 0.1),
                RTTask("b", 0.03, 0.1),
            )
        )
        assert ts.total_utilization == pytest.approx(0.5)
        assert len(ts) == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSet((RTTask("a", 1, 1), RTTask("a", 2, 2)))

    def test_random_hits_total_utilization(self, rng):
        ts = TaskSet.random(12, total_utilization=4.0, rng=rng)
        assert ts.total_utilization == pytest.approx(4.0, rel=1e-9)
        assert len(ts) == 12

    def test_random_respects_task_cap(self, rng):
        for seed in range(20):
            ts = TaskSet.random(
                6, total_utilization=4.5, rng=np.random.default_rng(seed)
            )
            assert max(t.utilization for t in ts) <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "total,cap,expected",
        [
            # Accepted UUniFast draw.
            (2.0, 0.8, [
                (0.02318412520017256, 0.050552218670845944),
                (0.014834380705629549, 0.08697996884304321),
                (0.12263213286210768, 0.19535560356233586),
                (0.014608820508429288, 0.019659418189408695),
            ]),
            # Every draw breaks the cap: the 65th is clamped and
            # renormalized.
            (3.95, 1.0, [
                (0.10610718576792472, 0.10610718576792472),
                (0.027052114513142357, 0.027052114513142357),
                (0.04320879293056322, 0.043564781625921506),
                (0.08094769311181188, 0.08448142622841985),
            ]),
        ],
    )
    def test_random_is_pinned(self, total, cap, expected):
        ts = TaskSet.random(
            4, total, np.random.default_rng(2016), max_task_utilization=cap
        )
        assert [(t.wcec, t.period_s) for t in ts.tasks] == expected

    def test_random_impossible_split_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            TaskSet.random(3, total_utilization=4.0, rng=rng)  # 3 tasks of <=1

    def test_sorted_by_utilization(self, rng):
        ts = TaskSet.random(8, total_utilization=3.0, rng=rng)
        utils = [t.utilization for t in ts.sorted_by_utilization()]
        assert utils == sorted(utils, reverse=True)


class TestMappings:
    @pytest.fixture(scope="class")
    def platform(self):
        return paper_platform(9, n_levels=5, t_max_c=60.0)

    @pytest.fixture(scope="class")
    def taskset(self):
        return TaskSet.random(
            18, total_utilization=6.0, rng=np.random.default_rng(11)
        )

    @pytest.mark.parametrize(
        "mapper", [first_fit_decreasing, worst_fit_decreasing, thermal_aware_mapping]
    )
    def test_every_task_placed_within_capacity(self, platform, taskset, mapper):
        m = mapper(taskset, platform)
        assert set(m.assignment) == {t.name for t in taskset}
        assert np.all(m.core_utilizations() <= platform.ladder.v_max + 1e-9)
        assert m.core_utilizations().sum() == pytest.approx(
            taskset.total_utilization
        )

    def test_wfd_balances_better_than_ffd(self, platform, taskset):
        ffd = first_fit_decreasing(taskset, platform)
        wfd = worst_fit_decreasing(taskset, platform)
        assert wfd.core_utilizations().max() <= ffd.core_utilizations().max() + 1e-9

    def test_thermal_aware_unloads_center(self, platform):
        # A load that fits comfortably: the center core (index 4 on 3x3)
        # must carry no more weighted load than the corners.
        ts = TaskSet.random(27, total_utilization=5.4,
                            rng=np.random.default_rng(3))
        m = thermal_aware_mapping(ts, platform)
        utils = m.core_utilizations()
        corners = [0, 2, 6, 8]
        assert utils[4] <= max(utils[c] for c in corners) + 1e-9

    def test_overload_raises(self, platform):
        ts = TaskSet.random(30, total_utilization=15.0,
                            rng=np.random.default_rng(1))
        with pytest.raises(SolverError):
            first_fit_decreasing(ts, platform)

    def test_core_tasks_partition(self, platform, taskset):
        m = worst_fit_decreasing(taskset, platform)
        names = []
        for core in range(platform.n_cores):
            names += [t.name for t in m.core_tasks(core)]
        assert sorted(names) == sorted(t.name for t in taskset)


class TestScheduleTaskset:
    def test_feasible_workload(self):
        p = paper_platform(9, n_levels=5, t_max_c=60.0)
        ts = TaskSet.random(20, total_utilization=7.0,
                            rng=np.random.default_rng(7))
        r = schedule_taskset(p, ts)
        assert r.thermally_feasible
        assert r.slack_theta > 0
        # Verify against the oracle: the schedule really is safe.
        from repro.thermal.reference import reference_peak

        oracle = reference_peak(p.model, r.minpeak.schedule,
                                samples_per_interval=32)
        assert oracle <= p.theta_max + 0.05

    def test_infeasible_workload_detected(self):
        p = paper_platform(3, n_levels=2, t_max_c=50.0)
        # Packs fine (~1.05 per core) but runs too hot for 50 C.
        ts = TaskSet.random(9, total_utilization=3.15,
                            rng=np.random.default_rng(2))
        r = schedule_taskset(p, ts, mapper=worst_fit_decreasing)
        assert not r.thermally_feasible
        assert r.slack_theta < 0

    def test_tiny_demands_rounded_to_vmin(self):
        p = paper_platform(3, n_levels=2, t_max_c=65.0)
        ts = TaskSet((RTTask("tiny", 0.001, 0.1),))
        r = schedule_taskset(p, ts)
        speeds = r.minpeak.target_speeds
        busy = speeds[speeds > 0]
        assert np.all(busy >= p.ladder.v_min - 1e-12)

    def test_summary(self):
        p = paper_platform(3, n_levels=2, t_max_c=65.0)
        ts = TaskSet.random(5, total_utilization=1.5,
                            rng=np.random.default_rng(4))
        assert "workload" in schedule_taskset(p, ts).summary()
