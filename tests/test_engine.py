"""Tests for the shared ThermalEngine facade and its instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineStats, ThermalEngine, as_platform
from repro.schedule.builders import constant_schedule, two_mode_schedule
from repro.schedule.transforms import shift_core
from repro.thermal.batch import (
    peak_temperature_batch,
    stack_rows,
    stepup_peak_temperature_batch,
)
from repro.thermal.peak import peak_temperature, stepup_peak_temperature


@pytest.fixture()
def engine(platform3) -> ThermalEngine:
    return ThermalEngine(platform3)


def _osc_schedule(platform, ratio=0.5, cycle=0.01):
    lo = np.full(platform.n_cores, platform.ladder.v_min)
    hi = np.full(platform.n_cores, platform.ladder.v_max)
    return two_mode_schedule(lo, hi, np.full(platform.n_cores, ratio), cycle)


class TestEnsure:
    def test_wraps_platform(self, platform3):
        engine = ThermalEngine.ensure(platform3)
        assert isinstance(engine, ThermalEngine)
        assert engine.platform is platform3

    def test_idempotent(self, engine):
        assert ThermalEngine.ensure(engine) is engine

    def test_as_platform(self, platform3, engine):
        assert as_platform(platform3) is platform3
        assert as_platform(engine) is engine.platform

    def test_delegation(self, platform3, engine):
        assert engine.n_cores == platform3.n_cores
        assert engine.theta_max == platform3.theta_max
        assert engine.ladder is platform3.ladder
        assert engine.model is platform3.model


class TestPeakParity:
    """Engine peak calls must match the raw kernels exactly."""

    def test_stepup_peak(self, platform3, engine):
        sched = _osc_schedule(platform3)
        expected = stepup_peak_temperature(platform3.model, sched, check=False)
        got = engine.stepup_peak(sched)
        assert got.value == expected.value

    def test_general_peak(self, platform3, engine):
        sched = _osc_schedule(platform3)
        expected = peak_temperature(platform3.model, sched)
        got = engine.general_peak(sched)
        assert got.value == expected.value

    def test_stepup_rows_match_batch(self, platform3, engine):
        scheds = [_osc_schedule(platform3, r) for r in (0.25, 0.5, 0.75)]
        expected = stepup_peak_temperature_batch(
            platform3.model, scheds, check=False
        )
        mark = engine.checkpoint()
        got = engine.stepup_peak_rows(
            stack_rows((s.lengths, s.voltage_matrix) for s in scheds)
        )
        assert got.value.tolist() == [e.value for e in expected]
        stats = engine.stats_since(mark)
        assert (stats.batch_calls, stats.batch_candidates) == (1, 3)

    def test_general_rows_match_batch(self, platform3, engine):
        # A shifted (not step-up) schedule next to step-up ones.
        scheds = [
            _osc_schedule(platform3),
            shift_core(_osc_schedule(platform3), 1, 0.003),
            constant_schedule(
                np.full(platform3.n_cores, platform3.ladder.v_min), period=0.02
            ),
        ]
        expected = peak_temperature_batch(platform3.model, scheds)
        got = engine.general_peak_rows(
            stack_rows((s.lengths, s.voltage_matrix) for s in scheds)
        )
        assert got.value.tolist() == [e.value for e in expected]
        assert got.core.tolist() == [e.core for e in expected]
        assert engine.stats().batch_calls == 1


class TestCounters:
    def test_steady_state_counts_and_cache_hits(self, platform3, engine):
        mark = engine.checkpoint()
        v = np.full(platform3.n_cores, platform3.ladder.v_max - 0.0012345)
        engine.steady_state_cores(v)  # unlikely to be cached yet
        engine.steady_state_cores(v)  # guaranteed hit
        stats = engine.stats_since(mark)
        assert stats.steady_state_solves + stats.steady_state_cache_hits == 2
        assert stats.steady_state_cache_hits >= 1

    def test_batch_rows_counted(self, platform3, engine):
        mark = engine.checkpoint()
        volts = np.full((7, platform3.n_cores), platform3.ladder.v_min)
        engine.steady_state_batch(volts)
        assert engine.stats_since(mark).steady_state_batch_rows == 7

    def test_peak_and_batch_counters(self, platform3, engine):
        mark = engine.checkpoint()
        sched = _osc_schedule(platform3)
        engine.stepup_peak(sched)
        engine.stepup_peak_rows(
            stack_rows([(sched.lengths, sched.voltage_matrix)] * 5)
        )
        stats = engine.stats_since(mark)
        assert stats.peak_evals == 1
        assert stats.batch_calls == 1
        assert stats.batch_candidates == 5
        assert stats.mean_batch == 5.0

    def test_expm_applications_counted(self, platform3, engine):
        mark = engine.checkpoint()
        engine.stepup_peak(_osc_schedule(platform3))
        assert engine.stats_since(mark).expm_applications > 0

    def test_phase_timing(self, engine):
        mark = engine.checkpoint()
        with engine.phase("demo"):
            pass
        with engine.phase("demo"):
            pass
        stats = engine.stats_since(mark)
        assert "demo" in stats.phase_seconds
        assert stats.phase_seconds["demo"] >= 0.0

    def test_reset_stats(self, platform3, engine):
        engine.stepup_peak(_osc_schedule(platform3))
        engine.reset_stats()
        stats = engine.stats()
        assert stats.peak_evals == 0
        assert stats.phase_seconds == {}

    def test_checkpoint_isolation(self, platform3, engine):
        """Two interleaved checkpoints attribute work independently."""
        sched = _osc_schedule(platform3)
        mark_a = engine.checkpoint()
        engine.stepup_peak(sched)
        mark_b = engine.checkpoint()
        engine.stepup_peak(sched)
        assert engine.stats_since(mark_a).peak_evals == 2
        assert engine.stats_since(mark_b).peak_evals == 1


class TestEngineStats:
    def test_cache_hit_rate_empty(self):
        assert EngineStats().cache_hit_rate == 0.0

    def test_cache_hit_rate(self):
        stats = EngineStats(steady_state_solves=1, steady_state_cache_hits=3)
        assert stats.cache_hit_rate == 0.75

    def test_summary_line_and_format(self):
        stats = EngineStats(
            steady_state_solves=5,
            steady_state_cache_hits=5,
            expm_applications=12,
            peak_evals=2,
            batch_calls=1,
            batch_candidates=8,
            phase_seconds={"tpt": 0.01},
        )
        line = stats.summary_line()
        assert "ss_solves=5" in line and "50%" in line
        report = stats.format()
        assert "engine stats:" in report and "tpt" in report

    def test_as_dict_roundtrips_counters(self):
        stats = EngineStats(steady_state_solves=2, batch_calls=1)
        d = stats.as_dict()
        assert d["steady_state_solves"] == 2
        assert d["batch_calls"] == 1
        assert "cache_hit_rate" in d
        assert EngineStats.from_dict(d) == stats

    def test_from_dict_ignores_retired_counters(self):
        """Journal rows and cache documents written before ``max_batch``
        and ``expm_cache_hits`` were retired still load."""
        old = {"batch_calls": 2, "batch_candidates": 53, "max_batch": 50,
               "expm_cache_hits": 4, "cache_hit_rate": 0.0}
        stats = EngineStats.from_dict(old)
        assert stats == EngineStats(batch_calls=2, batch_candidates=53)
        assert "max_batch" not in stats.as_dict()


class TestResultIntegration:
    def test_scheduler_result_carries_stats(self, platform3):
        from repro.algorithms.ao import ao

        result = ao(platform3, m_cap=8)
        assert result.stats is not None
        assert result.stats.peak_evals > 0
        assert "engine:" in result.summary()

    def test_shared_engine_attributes_per_run(self, platform3):
        from repro.algorithms.exs import exs
        from repro.algorithms.lns import lns

        engine = ThermalEngine(platform3)
        r1 = lns(engine)
        r2 = exs(engine)
        # EXS enumerates through the batched path; LNS does not.
        assert r2.stats.steady_state_batch_rows > 0
        assert r1.stats.steady_state_batch_rows == 0
