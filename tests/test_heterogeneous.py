"""Tests for per-core (heterogeneous) power coefficients in PowerModel."""

import numpy as np
import pytest

from repro.algorithms import ao, continuous_assignment, exs, lns, pco
from repro.api import load_platform
from repro.errors import PowerModelError
from repro.floorplan import paper_floorplan
from repro.platform import Platform
from repro.power import (
    PowerModel,
    TransitionOverhead,
    big_little_power_model,
    paper_ladder,
)
from repro.thermal.model import ThermalModel
from repro.thermal.rc import build_single_layer_network


def het_platform(n_levels=3, t_max_c=55.0):
    fp = paper_floorplan(6)
    pm = big_little_power_model(big_cores=[0, 1, 2], n_cores=6)
    model = ThermalModel(build_single_layer_network(fp), pm)
    return Platform(
        model=model,
        ladder=paper_ladder(n_levels),
        overhead=TransitionOverhead(),
        t_max_c=t_max_c,
    )


class TestModel:
    def test_broadcasting(self):
        pm = PowerModel(alpha_lin=[0.1, 0.2], gamma=[5.0, 3.0], beta=0.1)
        for coeff in (pm.alpha_lin, pm.gamma, pm.beta):
            assert isinstance(coeff, np.ndarray)
            assert coeff.dtype == float and coeff.shape == (2,)
        assert pm.beta.tolist() == [0.1, 0.1]

    def test_scalar_model_unchanged(self):
        pm = PowerModel()
        assert isinstance(pm.gamma, float)
        assert isinstance(pm.psi(1.0), float)
        assert isinstance(pm.total_power(1.0, 10.0), float)
        assert pm == PowerModel() and hash(pm) == hash(PowerModel())

    def test_psi_per_core(self):
        pm = PowerModel(alpha_lin=[0.0, 0.0], gamma=[5.0, 2.5], beta=0.1)
        psi = pm.psi(np.array([1.0, 1.0]))
        assert psi[0] == pytest.approx(5.0)
        assert psi[1] == pytest.approx(2.5)

    def test_psi_batch(self):
        pm = big_little_power_model([0], n_cores=2)
        volts = np.array([[1.0, 1.0], [0.6, 1.3]])
        out = pm.psi(volts)
        assert out.shape == (2, 2)

    def test_psi_inverse_per_core(self):
        pm = PowerModel(alpha_lin=[0.0, 0.0], gamma=[5.0, 2.5], beta=0.1)
        assert pm.psi_inverse(5.0, core=0) == pytest.approx(1.0)
        assert pm.psi_inverse(2.5, core=1) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_lin": [-0.1], "gamma": [5.0], "beta": [0.1]},
            {"alpha_lin": [0.1], "gamma": [0.0], "beta": [0.1]},
            {"alpha_lin": [0.1], "gamma": [5.0], "beta": [-0.1]},
            # One bad core fails the whole model.
            {"alpha_lin": [0.1, -0.1], "gamma": 5.0, "beta": 0.1},
            {"alpha_lin": 0.1, "gamma": [5.0, 0.0], "beta": 0.1},
            {"alpha_lin": 0.1, "gamma": 5.0, "beta": [0.1, -0.1]},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PowerModelError):
            PowerModel(**kwargs)

    def test_voltage_range_enforced(self):
        pm = big_little_power_model([0], n_cores=2)
        with pytest.raises(PowerModelError):
            pm.psi(np.array([1.5, 0.8]))


class TestAlgorithmsOnHeterogeneous:
    def test_continuous_favors_efficient_cores(self):
        p = het_platform(t_max_c=55.0)
        ca = continuous_assignment(p)
        # Little cores (3..5) burn less power per volt -> higher budgets.
        assert ca.voltages[3:].min() >= ca.voltages[:3].max() - 1e-9

    def test_leakage_folding_per_core(self):
        fp = paper_floorplan(3)
        pm = PowerModel(alpha_lin=0.1, gamma=5.0, beta=np.array([0.05, 0.2, 0.05]))
        model = ThermalModel(build_single_layer_network(fp), pm)
        g_orig = model.network.conductance
        diff = np.diag(g_orig - model.g_eff)
        assert np.allclose(diff, [0.05, 0.2, 0.05])

    def test_ao_feasible_and_beats_exs(self):
        p = het_platform(t_max_c=55.0)
        r_ao = ao(p, m_cap=24)
        r_exs = exs(p)
        assert r_ao.feasible and r_exs.feasible
        assert r_ao.throughput >= r_exs.throughput - 1e-9

    def test_oracle_verification(self):
        from repro.thermal.reference import reference_peak

        p = het_platform(t_max_c=55.0)
        r = ao(p, m_cap=24)
        oracle = reference_peak(p.model, r.schedule, samples_per_interval=48)
        assert oracle <= p.theta_max + 0.05


#: ``(throughput, peak_theta)`` per (platform, solver), recorded before the
#: per-core coefficients moved into ``PowerModel``; the move is bit-exact.
PINNED = {
    ("big_little", "LNS"): (1.0666666666666667, 16.310068990158793),
    ("big_little", "EXS"): (1.0666666666666667, 16.310068990158793),
    ("big_little", "AO"): (1.172950059936837, 19.923697185304178),
    ("big_little", "PCO"): (1.172950059936837, 19.923697185304178),
    ("het6", "LNS"): (1.05, 17.059236781171062),
    ("het6", "EXS"): (1.05, 17.059236781171062),
    ("het6", "AO"): (1.119056551480132, 19.9412730957308),
    ("het6", "PCO"): (1.1190565514801323, 19.93435546600699),
}

_PLATFORMS = {"big_little": lambda: load_platform("big_little"), "het6": het_platform}
_SOLVERS = {"LNS": lns, "EXS": exs, "AO": ao, "PCO": pco}


@pytest.mark.parametrize("platform,solver", sorted(PINNED))
def test_pinned_results(platform, solver):
    result = _SOLVERS[solver](_PLATFORMS[platform]())
    assert (result.throughput, result.peak_theta) == PINNED[platform, solver]
