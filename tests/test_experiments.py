"""Tests for the experiment harness (quick-scale runs of every artifact)."""

import time

import numpy as np
import pytest

from repro.experiments.fig2 import fig2
from repro.experiments.fig3 import fig3
from repro.experiments.fig4 import fig4
from repro.experiments.fig5 import fig5
from repro.experiments.fig6 import fig6
from repro.experiments.fig7 import fig7
from repro.experiments.headline import headline
from repro.experiments.motivation import table2, table3
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.reporting import ascii_table, to_csv
from repro.experiments.table5 import table5


class TestReporting:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [(1, 2.5), (10, 0.125)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.5000" in text and "0.1250" in text

    def test_to_csv(self):
        csv_text = to_csv(["x", "y"], [(1, 2), (3, 4)])
        assert csv_text.splitlines() == ["x,y", "1,2", "3,4"]


class TestTable2:
    def test_matches_paper_exactly(self):
        r = table2()
        assert r.high_ratios == pytest.approx([0.8693, 0.8211, 0.8693], abs=1e-4)
        assert r.ideal_throughput == pytest.approx(1.1972, abs=2e-4)
        assert (r.high_ratios + r.low_ratios) == pytest.approx(np.ones(3))

    def test_unthrottled_peak_exceeds_threshold(self):
        r = table2()
        # The paper's 79.69 C point: running Table II ratios violates 65 C.
        assert r.unthrottled_peak_theta > 30.0

    def test_format_mentions_paper_values(self):
        assert "0.8693" in table2().format()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3(periods=(0.020, 0.010, 0.005))

    def test_all_periods_meet_threshold(self, result):
        assert np.all(result.peaks_theta <= 30.0 + 1e-6)

    def test_throughput_rises_with_oscillation(self, result):
        assert np.all(np.diff(result.throughputs) > 0)

    def test_throughput_brackets_paper(self, result):
        # Same order of magnitude and the paper's qualitative window.
        assert 0.7 <= result.throughputs[0] <= 1.1
        assert result.throughputs[-1] <= 1.1973  # can't beat the ideal

    def test_format_runs(self, result):
        assert "t_p" in result.format()


class TestFig2:
    def test_single_core_oscillation_fails_to_help(self):
        r = fig2()
        assert not r.single_core_helped  # the paper's counterexample
        assert r.chipwide_peak_theta <= r.base_peak_theta + 1e-9

    def test_format(self):
        assert "Fig. 2" in fig2().format()


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3(step=1.5, grid_per_interval=24)

    def test_stepup_corner_bounds_surface(self, result):
        assert result.bound_holds

    def test_surface_spread(self, result):
        assert result.max_peak_theta > result.min_peak_theta

    def test_format(self, result):
        assert "84.13" in result.format()


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4(warmup_periods=4, samples_per_interval=8)

    def test_theorem1_within_lag(self, result):
        assert result.peak_at_end

    def test_warmup_monotone(self, result):
        assert result.monotone_rise

    def test_traces_shapes(self, result):
        assert result.warmup.temperatures.shape[0] > 0
        assert result.stable.temperatures.shape[0] > 0

    def test_format(self, result):
        assert "Theorem 1" in result.format()


class TestFig5:
    def test_monotone_decrease(self):
        r = fig5(m_max=6)
        assert r.monotone
        assert r.peaks_theta[0] >= r.peaks_theta[-1]

    def test_format(self):
        assert "Theorem 5" in fig5(m_max=3).format()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6(core_counts=(2, 3), level_counts=(2, 3),
                    approaches=("LNS", "EXS", "AO"), m_cap=12)

    def test_ao_dominates(self, result):
        for cell in result.grid.cells:
            assert cell.throughput("AO") >= cell.throughput("EXS") - 1e-9
            assert cell.throughput("EXS") >= cell.throughput("LNS") - 1e-9

    def test_fewer_levels_bigger_gain(self, result):
        g2 = result.grid.find(3, n_levels=2).improvement("AO", "EXS")
        g3 = result.grid.find(3, n_levels=3).improvement("AO", "EXS")
        assert g2 >= g3 - 1e-9

    def test_format(self, result):
        assert "AO" in result.format()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7(core_counts=(2, 3), t_max_values=(55.0, 65.0),
                    approaches=("LNS", "EXS", "AO"), m_cap=12)

    def test_throughput_grows_with_threshold(self, result):
        for n in (2, 3):
            lo = result.grid.find(n, t_max_c=55.0)
            hi = result.grid.find(n, t_max_c=65.0)
            for name in ("EXS", "AO"):
                assert hi.throughput(name) >= lo.throughput(name) - 1e-9

    def test_format(self, result):
        assert "T_max" in result.format()


class TestTable5:
    def test_runtime_columns_positive(self):
        r = table5(core_counts=(2,), level_counts=(2,), m_cap=8)
        cell = r.grid.cells[0]
        assert cell.runtime("AO") > 0
        assert cell.runtime("EXS") > 0
        assert cell.runtime("PCO") > 0
        assert "Table V" in r.format()

    def test_pco_runtime_keeps_its_ao_core(self, monkeypatch):
        """A PCO unit that reuses its cell's AO core still reports its cost."""
        from importlib import import_module

        from repro.service.session import reset_default_session

        ao_mod = import_module("repro.algorithms.ao")
        build = ao_mod._build_core
        builds = []
        delay = 0.05

        def slow_build(*args, **kwargs):
            builds.append(args)
            time.sleep(delay)
            return build(*args, **kwargs)

        monkeypatch.setattr(ao_mod, "_build_core", slow_build)
        reset_default_session()
        try:
            r = table5(core_counts=(2, 3), level_counts=(2,), m_cap=16)
        finally:
            reset_default_session()
        assert len(builds) == len(r.grid.cells)  # PCO built no core
        for cell in r.grid.cells:
            assert cell.runtime("PCO") == cell.results["PCO"].runtime_s
            assert cell.runtime("AO") >= delay
            assert cell.runtime("PCO") >= delay


class TestHeadline:
    def test_improvements_positive_on_small_grid(self):
        r = headline(core_counts=(3,), level_counts=(2,),
                     t_max_values=(55.0,), m_cap=12)
        assert r.max_improvement > 0
        assert r.mean_improvement > 0
        assert "89%" in r.format() or "+89" in r.format() or "89" in r.format()


class TestRegistry:
    def test_all_ids_present(self):
        expected = {"table2", "table3", "fig2", "fig3", "fig4", "fig5",
                    "fig6", "fig7", "table5", "headline", "tsp", "reactive",
                    "comparison", "faults", "control", "scaling", "realtime"}
        assert expected == set(EXPERIMENTS)

    def test_runner_capable_experiments(self):
        runner_capable = {n for n, s in EXPERIMENTS.items() if s.accepts_runner}
        assert runner_capable == {"comparison", "fig6", "fig7", "table5",
                                  "headline", "control", "scaling", "realtime"}

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_run_experiment_forwards_kwargs(self):
        r = run_experiment("fig5", m_max=2)
        assert len(r.m_values) == 2
