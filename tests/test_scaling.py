"""Tests for the technology-scaling model and the dark-silicon experiment.

The tables are data, but their *shape* carries the physics story: vdd
and the DVFS window compress as nodes shrink while the leakage share
grows — that squeeze is what eventually forces dark silicon.  The
generator tests pin the construction invariants (nominal power
recovered exactly at vdd, ladder inside the DVFS bounds, positive
definite thermal model at every point including 3D stacks), and the
experiment tests pin seeded bitwise reproducibility plus the honest
feasibility semantics the frontier logic depends on.
"""

import pytest

from repro.engine import ThermalEngine
from repro.errors import ConfigurationError
from repro.scaling.generator import tech_ladder, tech_platform, tech_summary
from repro.scaling.tables import (
    CORE_STYLES,
    LEAKAGE_SHARE,
    SCENARIOS,
    TECH_NODES,
    VTH_V,
    check_point,
    core_area_mm2,
    dvfs_bounds_v,
    frequency_ghz,
    nominal_power_w,
    vdd_v,
)


class TestTables:
    def test_nodes_shrink_in_order(self):
        assert tuple(TECH_NODES) == tuple(sorted(TECH_NODES, reverse=True))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_vdd_monotone_nonincreasing(self, scenario):
        vdds = [vdd_v(n, scenario) for n in TECH_NODES]
        assert all(a >= b for a, b in zip(vdds, vdds[1:]))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_dvfs_window_compresses(self, scenario):
        """The usable voltage range (1.3*vdd down to vth) is squeezed
        across the sweep — strictly monotonically under ITRS scaling;
        conservative scaling holds vdd flat at the smallest nodes while
        vth keeps dropping, so there only the end-to-end compression
        holds."""
        widths = []
        for node in TECH_NODES:
            lo, hi = dvfs_bounds_v(node, scenario)
            assert lo == pytest.approx(VTH_V[node])
            assert lo < hi
            widths.append(hi - lo)
        assert widths[-1] < widths[0]
        if scenario == "itrs":
            assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_leakage_share_grows(self):
        shares = [LEAKAGE_SHARE[n] for n in TECH_NODES]
        assert all(a < b for a, b in zip(shares, shares[1:]))
        assert all(0.0 < s < 1.0 for s in shares)

    def test_area_halves_per_node(self):
        for style in CORE_STYLES:
            areas = [core_area_mm2(n, style) for n in TECH_NODES]
            for a, b in zip(areas, areas[1:]):
                assert b == pytest.approx(a / 2.0)

    def test_itrs_faster_than_conservative_at_small_nodes(self):
        for style in CORE_STYLES:
            assert frequency_ghz(8, "itrs", style) > frequency_ghz(
                8, "cons", style
            )

    def test_check_point_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            check_point(14, "itrs", "io")
        with pytest.raises(ConfigurationError):
            check_point(45, "moore", "io")
        with pytest.raises(ConfigurationError):
            check_point(45, "itrs", "vliw")


class TestGenerator:
    @pytest.mark.parametrize("node", TECH_NODES)
    @pytest.mark.parametrize("style", CORE_STYLES)
    def test_every_point_builds_and_solves(self, node, style):
        platform = tech_platform(node=node, style=style, n_cores=2, n_levels=3)
        engine = ThermalEngine(platform)
        # One cheap constant assignment exercises the steady-state path
        # (positive definite solve) at every point.
        theta = engine.steady_state([platform.ladder.v_min] * 2)
        assert all(t >= 0.0 for t in theta)

    def test_psi_at_vdd_recovers_nominal_power(self):
        for node in TECH_NODES:
            for scenario in SCENARIOS:
                for style in CORE_STYLES:
                    platform = tech_platform(
                        node=node, scenario=scenario, style=style, n_cores=2
                    )
                    vdd = vdd_v(node, scenario)
                    assert platform.model.power.psi(vdd) == pytest.approx(
                        nominal_power_w(node, scenario, style)
                    )

    def test_ladder_spans_dvfs_bounds(self):
        for node in (45, 8):
            ladder = tech_ladder(node, "itrs", n_levels=5)
            lo, hi = dvfs_bounds_v(node, "itrs")
            assert ladder.v_min == pytest.approx(lo, abs=1e-6)
            assert ladder.v_max == pytest.approx(hi, abs=1e-6)
            assert len(ladder.levels) == 5
            assert list(ladder.levels) == sorted(ladder.levels)

    def test_3d_stack_builds_with_more_nodes(self):
        flat = tech_platform(node=16, n_cores=4, stack_layers=1)
        stacked = tech_platform(node=16, n_cores=4, stack_layers=2)
        assert stacked.n_cores == 2 * flat.n_cores

    def test_paper_counts_keep_paper_layouts(self):
        p9 = tech_platform(node=22, n_cores=9)
        assert p9.n_cores == 9

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            tech_platform(n_cores=0)
        with pytest.raises(ConfigurationError):
            tech_platform(stack_layers=0)
        with pytest.raises(ConfigurationError):
            tech_ladder(45, "itrs", n_levels=1)

    def test_summary_consistent_with_tables(self):
        s = tech_summary(16, "itrs", "io")
        assert s["vdd_v"] == pytest.approx(vdd_v(16, "itrs"))
        assert s["leakage_share"] == LEAKAGE_SHARE[16]
        assert s["v_lo"] < s["v_hi"]


class TestScalingExperiment:
    QUICK = dict(
        nodes=(45, 8),
        scenarios=("itrs",),
        styles=("io",),
        layer_counts=(1,),
        approaches=("AO",),
        utilization_floors=(0.0,),
        n_cores=2,
        n_levels=2,
        m_cap=8,
        seed=7,
    )

    def test_same_seed_bitwise_identical(self):
        from repro.experiments.scaling import scaling_experiment

        a = scaling_experiment(**self.QUICK).headline()
        b = scaling_experiment(**self.QUICK).headline()
        assert a == b

    def test_headline_shape_and_frontier_semantics(self):
        from repro.experiments.scaling import scaling_experiment

        result = scaling_experiment(**self.QUICK)
        head = result.headline()
        assert head["experiment"] == "scaling" and head["seed"] == 7
        assert len(head["rows"]) == 2
        for row in result.rows:
            # The frontier keys off guarded_solve's honest feasibility
            # flag: a fallback row with feasible=False must never count
            # as a live full-chip contender.
            for out in row.oscillation.values():
                if not out["feasible"]:
                    assert row.best_oscillation is None or (
                        row.best_oscillation[0]
                        not in [
                            k
                            for k, v in row.oscillation.items()
                            if not v["feasible"]
                        ]
                    )
        cross = head["crossover_node"]
        assert cross is None or cross in self.QUICK["nodes"]

    def test_format_renders(self):
        from repro.experiments.scaling import scaling_experiment

        text = scaling_experiment(**self.QUICK).format()
        assert "Technology scaling" in text and "regime" in text

    def test_max_dark_respects_utilization_floor(self):
        from repro.experiments.scaling import _max_dark

        assert _max_dark(9, 0.0) == 8
        assert _max_dark(9, 0.5) == 4
        assert _max_dark(9, 1.0) == 0
        assert _max_dark(18, 0.5) == 9
        assert _max_dark(1, 0.0) == 0

    def test_units_carry_spec_documents_and_seeds(self):
        from repro.experiments.scaling import scaling_units

        units = scaling_units(
            [(45, "itrs", "io", 1)], [123], 2, 2, 55.0,
            ("AO",), (0.0,), {"m_cap": 8},
        )
        assert len(units) == 2
        for unit in units:
            assert unit.payload["platform"]["family"] == "tech"
            assert unit.payload["seed"] == 123
        assert units[1].payload["params"]["max_dark"] == 1

    def test_committed_results_match_regeneration(self, committed_result):
        doc = committed_result("scaling")
        assert doc["experiment"] == "scaling"

    def test_registered_with_runner_support(self):
        from repro.experiments.registry import EXPERIMENTS

        spec = EXPERIMENTS["scaling"]
        assert spec.accepts_runner
        assert spec.quick["nodes"] == (45, 16)
        assert set(spec.quick["styles"]) == {"io", "o3"}
