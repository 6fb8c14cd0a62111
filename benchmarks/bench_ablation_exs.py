"""Ablation: naive (Algorithm 1) vs monotonicity-pruned exhaustive search."""

import pytest

from repro.algorithms.exs import exs, exs_pruned
from repro.platform import paper_platform

CASES = [(6, 4), (9, 3), (9, 4)]
IDS = ["6c4l", "9c3l", "9c4l"]


@pytest.mark.parametrize("n,levels", CASES, ids=IDS)
def test_exs_naive(benchmark, n, levels):
    """Full enumeration (L^N steady states, priced by superposition)."""
    p = paper_platform(n, n_levels=levels, t_max_c=55.0)
    result = benchmark(lambda: exs(p))
    assert result.feasible


@pytest.mark.parametrize("n,levels", CASES, ids=IDS)
def test_exs_pruned(benchmark, n, levels):
    """Frontier-batched search with thermal-monotonicity and bound pruning
    (same optimum)."""
    p = paper_platform(n, n_levels=levels, t_max_c=55.0)
    result = benchmark(lambda: exs_pruned(p))
    naive = exs(p)
    assert result.throughput == pytest.approx(naive.throughput)
