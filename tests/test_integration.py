"""End-to-end integration tests.

Every algorithm's emitted schedule is re-verified against the independent
RK45 oracle; the paper's headline ordering (AO ~= PCO >= EXS >= LNS) is
checked across configurations; the motivation-section narrative is
replayed end-to-end through the public API.
"""

import pytest

import repro
from repro.thermal.reference import reference_peak


class TestOracleVerification:
    """The constraint holds under an engine the algorithms never saw."""

    @pytest.mark.parametrize(
        "n,levels,t_max", [(2, 2, 55.0), (3, 2, 65.0), (3, 5, 55.0)]
    )
    def test_ao_schedule_under_threshold(self, n, levels, t_max):
        p = repro.paper_platform(n, n_levels=levels, t_max_c=t_max)
        r = repro.ao(p)
        oracle = reference_peak(p.model, r.schedule, samples_per_interval=96)
        assert oracle <= p.theta_max + 0.05

    def test_pco_schedule_under_threshold(self):
        p = repro.paper_platform(3, n_levels=2, t_max_c=65.0)
        r = repro.pco(p, shift_grid=4)
        oracle = reference_peak(p.model, r.schedule, samples_per_interval=96)
        assert oracle <= p.theta_max + 0.05

    def test_exs_schedule_under_threshold(self):
        p = repro.paper_platform(6, n_levels=3, t_max_c=55.0)
        r = repro.exs(p)
        oracle = reference_peak(p.model, r.schedule, samples_per_interval=32)
        assert oracle <= p.theta_max + 0.05


class TestHeadlineOrdering:
    @pytest.mark.parametrize("n,levels", [(2, 2), (3, 3), (6, 2)])
    def test_ranking(self, n, levels):
        p = repro.paper_platform(n, n_levels=levels, t_max_c=55.0)
        r_lns = repro.lns(p)
        r_exs = repro.exs(p)
        r_ao = repro.ao(p, m_cap=32)
        assert r_exs.throughput >= r_lns.throughput - 1e-9
        assert r_ao.throughput >= r_exs.throughput - 1e-9
        for r in (r_lns, r_exs, r_ao):
            assert r.feasible

    def test_ao_within_continuous_bound(self):
        p = repro.paper_platform(9, n_levels=2, t_max_c=55.0)
        cont = repro.continuous_assignment(p)
        r = repro.ao(p, m_cap=32)
        assert r.throughput <= cont.throughput + 1e-9
        # AO recovers the bulk of the continuous ideal (the residual gap is
        # the two-speed convexity penalty of Theorem 3 with the wide
        # {0.6, 1.3} V mode pair, bounded by the overhead cap on m).
        assert r.throughput >= 0.80 * cont.throughput


class TestMotivationNarrative:
    """Section III's story, end to end through the public API."""

    def test_full_story(self):
        p = repro.paper_platform(3, n_levels=2, t_max_c=65.0)

        # Ideal continuous: [1.2085, 1.1748, 1.2085], THR 1.1972.
        cont = repro.continuous_assignment(p)
        assert cont.voltages == pytest.approx([1.2085, 1.1748, 1.2085], abs=2e-4)

        # LNS rounds everything to 0.6 V.
        assert repro.lns(p).throughput == pytest.approx(0.6)

        # EXS finds one core at 1.3 V: THR 0.83.
        assert repro.exs(p).throughput == pytest.approx(0.8333, abs=1e-3)

        # AO recovers most of the ideal with two-mode oscillation.
        r_ao = repro.ao(p)
        assert r_ao.throughput > 1.0
        assert r_ao.feasible

    def test_throughput_metric_equals_mean_voltage(self):
        p = repro.paper_platform(3, n_levels=2, t_max_c=65.0)
        r = repro.exs(p)
        assert r.throughput == pytest.approx(r.mean_voltage())


class TestPublicAPI:
    def test_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_schedule_roundtrip_through_transforms(self):
        p = repro.paper_platform(3, n_levels=2, t_max_c=65.0)
        r = repro.ao(p)
        s = r.schedule
        assert repro.throughput(repro.m_oscillate(s, 3)) == pytest.approx(
            repro.throughput(s)
        )
        u = repro.step_up(s)
        assert repro.stepup_peak_temperature(p.model, u).value >= 0

    def test_run_experiment_entry(self):
        result = repro.run_experiment("fig5", m_max=2)
        assert result.monotone in (True, False)
