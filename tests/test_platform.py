"""Tests for the Platform bundle and its factory."""

import pytest

from repro.errors import ConfigurationError
from repro.platform import paper_platform
from repro.power.dvfs import VoltageLadder


class TestFactory:
    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_core_counts(self, n):
        p = paper_platform(n)
        assert p.n_cores == n

    def test_default_is_single_layer(self):
        p = paper_platform(3)
        assert p.model.n_nodes == 3

    def test_stacked_topology(self):
        p = paper_platform(3, topology="stacked")
        assert p.model.n_nodes == 2 * 3 + 1

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            paper_platform(3, topology="weird")

    def test_theta_max(self):
        p = paper_platform(3, t_max_c=65.0, t_ambient_c=35.0)
        assert p.theta_max == pytest.approx(30.0)

    def test_custom_ladder(self):
        lad = VoltageLadder((0.7, 0.9, 1.1))
        p = paper_platform(3, ladder=lad)
        assert p.ladder is lad


class TestValidation:
    def test_t_max_below_ambient_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_platform(3, t_max_c=30.0, t_ambient_c=35.0)

    def test_ladder_outside_power_range_rejected(self):
        lad = VoltageLadder((0.5, 1.3))  # below power model's v_min
        with pytest.raises(ConfigurationError):
            paper_platform(3, ladder=lad)


class TestHelpers:
    def test_with_t_max(self):
        p = paper_platform(3, t_max_c=55.0)
        q = p.with_t_max(65.0)
        assert q.t_max_c == 65.0
        assert q.model is p.model  # shares the model (and its caches)

    def test_with_ladder(self):
        p = paper_platform(3, n_levels=2)
        q = p.with_ladder(VoltageLadder((0.6, 0.8, 1.3)))
        assert len(q.ladder) == 3
        assert q.t_max_c == p.t_max_c

    def test_feasible_constant(self):
        p = paper_platform(3, t_max_c=65.0)
        assert p.feasible_constant([0.6, 0.6, 0.6])
        assert not p.feasible_constant([1.3, 1.3, 1.3])

    def test_floorplan_accessor(self):
        p = paper_platform(6)
        assert p.floorplan.n_cores == 6
