"""Tests for the comparison-grid machinery shared by Figs. 6/7 and Table V."""

import numpy as np
import pytest

from repro.experiments.comparison import (
    APPROACHES,
    CellResult,
    build_grid,
)
from repro.platform import paper_platform


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(
        core_counts=(2, 3),
        level_counts=(2,),
        t_max_values=(55.0, 65.0),
        approaches=("LNS", "EXS", "AO"),
        m_cap=10,
    )


def one_cell(n_cores, t_max_c, approaches, **params) -> CellResult:
    """The single cell of a one-cell :func:`build_grid` sweep."""
    grid = build_grid(
        core_counts=(n_cores,),
        level_counts=(2,),
        t_max_values=(t_max_c,),
        approaches=approaches,
        **params,
    )
    (cell,) = grid.cells
    return cell


class TestRunCell:
    """Running one cell: a one-cell build_grid sweep."""

    def test_selected_approaches_only(self):
        cell = one_cell(2, 55.0, ("LNS", "EXS"))
        assert set(cell.results) == {"LNS", "EXS"}
        assert np.isnan(cell.throughput("AO"))

    def test_unknown_approach_raises(self):
        with pytest.raises(ValueError, match="unknown approach"):
            one_cell(2, 55.0, ("MAGIC",))

    def test_infeasible_approach_absent(self):
        # Threshold below the all-low point: EXS is infeasible and skipped.
        p = paper_platform(3, n_levels=2, t_max_c=37.0)
        theta = p.model.steady_state_cores(np.full(3, 0.6))
        assert theta.max() > p.theta_max
        cell = one_cell(3, 37.0, ("EXS",))
        assert "EXS" not in cell.results
        assert np.isnan(cell.throughput("EXS"))


class TestCellResult:
    def test_improvement_math(self):
        cell = one_cell(3, 65.0, ("EXS", "AO"), m_cap=10)
        imp = cell.improvement("AO", "EXS")
        expected = cell.throughput("AO") / cell.throughput("EXS") - 1.0
        assert imp == pytest.approx(expected)

    def test_improvement_nan_when_missing(self):
        cell = CellResult(n_cores=2, n_levels=2, t_max_c=55.0, results={})
        assert np.isnan(cell.improvement("AO", "EXS"))
        assert np.isnan(cell.runtime("AO"))


class TestComparisonGrid:
    def test_find_by_coordinates(self, small_grid):
        cell = small_grid.find(3, t_max_c=65.0)
        assert cell.n_cores == 3
        assert cell.t_max_c == 65.0

    def test_find_missing_raises(self, small_grid):
        with pytest.raises(KeyError):
            small_grid.find(9)
        with pytest.raises(KeyError):
            small_grid.find(2, n_levels=5)

    def test_improvements_filter_nan(self, small_grid):
        imps = small_grid.improvements("AO", "EXS")
        assert np.all(np.isfinite(imps))
        assert imps.size == len(small_grid.cells)

    def test_to_csv_shape(self, small_grid):
        csv = small_grid.to_csv()
        lines = csv.strip().splitlines()
        assert len(lines) == 1 + len(small_grid.cells)
        header = lines[0].split(",")
        assert header[:3] == ["cores", "levels", "t_max_c"]
        for name in APPROACHES:
            assert f"thr_{name.lower()}" in header
