"""Tests for the TPT ratio-adjustment loops."""

import numpy as np
import pytest

from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.oscillation import (
    build_oscillating_schedule,
    plan_modes,
)
from repro.algorithms.tpt import enforce_threshold, fill_headroom
from repro.engine import ThermalEngine
from repro.errors import ConvergenceError
from repro.platform import paper_platform
from repro.schedule.properties import is_step_up
from repro.thermal.peak import peak_temperature


@pytest.fixture(scope="module")
def setup():
    p = paper_platform(3, n_levels=2, t_max_c=65.0, tau=0.0)
    cont = continuous_assignment(p)
    plan = plan_modes(p, cont.voltages)
    return p, plan


class TestEnforceThreshold:
    def test_reaches_feasibility(self, setup):
        p, plan = setup
        ratios, sched, peak, iters = enforce_threshold(
            p, plan, plan.high_ratio, period=0.02, m=1
        )
        assert peak.value <= p.theta_max + 1e-9
        assert iters >= 1
        assert np.all(ratios <= plan.high_ratio + 1e-12)

    def test_already_feasible_no_iterations(self, setup):
        p, plan = setup
        # A tiny high ratio everywhere is trivially feasible.
        cold = np.full(3, 0.01)
        ratios, _, peak, iters = enforce_threshold(
            p, plan, cold, period=0.02, m=1
        )
        assert iters == 0
        assert np.allclose(ratios, cold)
        assert peak.value <= p.theta_max

    def test_adaptive_cheaper_and_comparable(self, setup):
        # The greedy loop has path-dependent fixed points; adaptive batching
        # must stay feasible, cost fewer iterations, and land within a few
        # percent of the literal loop's throughput.
        p, plan = setup
        t_unit = 0.02 / 50
        r_fast, s_fast, pk_fast, it_fast = enforce_threshold(
            p, plan, plan.high_ratio, 0.02, 1, t_unit=t_unit, adaptive=True
        )
        r_slow, s_slow, pk_slow, it_slow = enforce_threshold(
            p, plan, plan.high_ratio, 0.02, 1, t_unit=t_unit, adaptive=False
        )
        assert pk_fast.value <= p.theta_max + 1e-9
        assert pk_slow.value <= p.theta_max + 1e-9
        assert it_fast <= it_slow
        from repro.schedule.properties import throughput

        assert throughput(s_fast) >= throughput(s_slow) - 0.05

    def test_prices_each_accepted_schedule_once(self, setup):
        # One scalar peak per accepted schedule (the start and one per
        # iteration); every trial set goes to the batch kernel as rows.
        p, plan = setup
        engine = ThermalEngine(p)
        *_, iters = enforce_threshold(engine, plan, plan.high_ratio, 0.02, 1)
        stats = engine.stats()
        assert iters > 0
        assert stats.peak_evals == iters + 1
        assert stats.batch_calls == iters

    def test_iteration_budget(self, setup):
        p, plan = setup
        with pytest.raises(ConvergenceError):
            enforce_threshold(
                p, plan, plan.high_ratio, 0.02, 1, max_iter=0
            )

    def test_ratios_never_negative(self, setup):
        p_cold = paper_platform(3, n_levels=2, t_max_c=41.0, tau=0.0)
        cont = continuous_assignment(p_cold)
        plan = plan_modes(p_cold, cont.voltages)
        ratios, _, peak, _ = enforce_threshold(
            p_cold, plan, np.full(3, 0.9), period=0.02, m=1
        )
        assert np.all(ratios >= 0)
        assert peak.value <= p_cold.theta_max + 1e-9


class TestFillHeadroom:
    def test_consumes_headroom(self, setup):
        p, plan = setup
        start = np.full(3, 0.05)
        ratios, sched, peak, iters = fill_headroom(
            p, plan, start, period=0.02, m=4
        )
        assert np.all(ratios >= start - 1e-12)
        assert ratios.sum() > start.sum()
        assert peak.value <= p.theta_max + 1e-9

    def test_stops_at_threshold(self, setup):
        p, plan = setup
        ratios, sched, peak, _ = fill_headroom(
            p, plan, np.full(3, 0.05), period=0.02, m=8
        )
        # After the fill, no core can grow by one more quantum feasibly --
        # equivalently the peak sits close under the threshold or every
        # ratio has saturated.
        saturated = np.all(ratios >= 1 - 1e-9)
        assert saturated or peak.value > p.theta_max - 1.0

    def test_respects_threshold_with_general_engine(self, setup):
        # A phase shift makes the candidates non-step-up: the fill prices
        # them with the general engine, and so must the check.
        p, plan = setup
        ratios, sched, peak, _ = fill_headroom(
            p, plan, np.full(3, 0.1), period=0.02, m=4,
            shifts=[0.0, 0.002, 0.0],
        )
        assert not is_step_up(sched)
        assert peak.value <= p.theta_max + 1e-9
        assert peak_temperature(p.model, sched).value == pytest.approx(
            peak.value, abs=1e-9
        )

    def test_start_is_not_priced_again(self, setup):
        p, plan = setup
        engine = ThermalEngine(p)
        ratios = np.full(3, 0.05)
        sched = build_oscillating_schedule(plan, ratios, 0.02, 4)
        start = (sched, engine.stepup_peak(sched))
        mark = engine.checkpoint()
        given = fill_headroom(engine, plan, ratios, 0.02, 4, start=start)
        evals_given = engine.stats_since(mark).peak_evals
        mark = engine.checkpoint()
        fresh = fill_headroom(engine, plan, ratios, 0.02, 4)
        assert engine.stats_since(mark).peak_evals == evals_given + 1
        assert given[3] == fresh[3] > 0
        np.testing.assert_array_equal(given[0], fresh[0])
        assert given[2].value == fresh[2].value

    def test_fill_after_enforce_never_loses_throughput(self, setup):
        from repro.schedule.properties import throughput

        p, plan = setup
        ratios, s0, peak, _ = enforce_threshold(
            p, plan, plan.high_ratio, period=0.02, m=1
        )
        r2, s2, pk2, iters = fill_headroom(p, plan, ratios, period=0.02, m=1)
        assert pk2.value <= p.theta_max + 1e-9
        assert throughput(s2) >= throughput(s0) - 1e-12
