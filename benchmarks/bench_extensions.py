"""Benchmarks for the extension features: workload, 3D stacks, heterogeneity, TSP.

These quantify the cost of the library's beyond-the-paper features and
double as shape checks (upper layers hotter, dark silicon rescuing the
stack, AO dominating TSP budgets).
"""

import numpy as np
import pytest

from repro.algorithms import ao
from repro.algorithms.dark import dark_silicon_ao
from repro.algorithms.minpeak import minimize_peak
from repro.analysis.tsp import thermal_safe_power, tsp_throughput
from repro.floorplan import paper_floorplan
from repro.platform import Platform, paper_platform, platform_3d
from repro.power import TransitionOverhead, big_little_power_model, paper_ladder
from repro.realtime import TaskSet
from repro.thermal.model import ThermalModel
from repro.thermal.rc import build_single_layer_network
from repro.workload import schedule_taskset


def test_workload_pipeline(benchmark):
    """Full task-set pipeline: partition -> speeds -> min-peak schedule."""
    platform = paper_platform(9, n_levels=5, t_max_c=60.0)
    rng = np.random.default_rng(2016)
    taskset = TaskSet.random(24, total_utilization=7.2, rng=rng)
    result = benchmark.pedantic(
        lambda: schedule_taskset(platform, taskset, m_cap=48),
        rounds=2,
        iterations=1,
    )
    assert result.thermally_feasible


def test_minpeak_kernel(benchmark):
    """The fixed-workload peak minimizer on the 9-core chip."""
    platform = paper_platform(9, n_levels=2, t_max_c=60.0)
    targets = np.full(9, 0.85)
    result = benchmark.pedantic(
        lambda: minimize_peak(platform, targets, m_cap=48), rounds=2, iterations=1
    )
    assert result.peak.value >= result.constant_bound_theta - 1e-6


def test_dark_silicon_search(benchmark):
    """Greedy gating on the infeasible 3-layer stack."""
    platform = platform_3d(3, 2, 2, n_levels=2, t_max_c=65.0)
    result = benchmark.pedantic(
        lambda: dark_silicon_ao(platform, m_cap=16), rounds=2, iterations=1
    )
    assert result.feasible
    assert len(result.details["dark_cores"]) >= 1


def test_ao_on_heterogeneous_chip(benchmark):
    """AO on a big.LITTLE 6-core chip."""
    fp = paper_floorplan(6)
    pm = big_little_power_model(big_cores=[0, 1, 2], n_cores=6)
    model = ThermalModel(build_single_layer_network(fp), pm)
    platform = Platform(
        model=model, ladder=paper_ladder(3),
        overhead=TransitionOverhead(), t_max_c=55.0,
    )
    result = benchmark.pedantic(
        lambda: ao(platform, m_cap=24), rounds=2, iterations=1
    )
    assert result.feasible


def test_tsp_budget_table(benchmark):
    """All nine TSP budgets of the 3x3 chip (exact subset enumeration)."""
    platform = paper_platform(9, n_levels=2, t_max_c=55.0)

    def run():
        return [thermal_safe_power(platform, k).power_per_core
                for k in range(1, 10)]

    budgets = benchmark(run)
    assert all(a >= b - 1e-12 for a, b in zip(budgets, budgets[1:]))


def test_tsp_vs_ao(benchmark):
    """The TSP-governed operating point vs AO (AO must dominate)."""
    platform = paper_platform(6, n_levels=2, t_max_c=55.0)

    def run():
        return tsp_throughput(platform), ao(platform, m_cap=24).throughput

    tsp_thr, ao_thr = benchmark.pedantic(run, rounds=2, iterations=1)
    assert ao_thr >= tsp_thr - 1e-9
