"""Table V — computation time of AO / PCO / EXS across the config grid.

T_max = 65 C; cores in {2, 3, 6, 9}; Table IV ladders with 2-5 levels.
Expected shape (paper): EXS grows exponentially with cores x levels while
AO stays within seconds and PCO costs a constant factor over AO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.comparison import ComparisonGrid, build_grid
from repro.experiments.reporting import ascii_table

__all__ = ["Table5Result", "table5"]


@dataclass(frozen=True)
class Table5Result:
    """Wall-clock seconds per approach per configuration."""

    grid: ComparisonGrid

    def format(self) -> str:
        rows = []
        for cell in self.grid.cells:
            rows.append(
                (
                    cell.n_cores,
                    cell.n_levels,
                    cell.runtime("AO"),
                    cell.runtime("PCO"),
                    cell.runtime("EXS"),
                )
            )
        return ascii_table(
            ["cores", "levels", "AO (s)", "PCO (s)", "EXS (s)"],
            rows,
            title="Table V — computation time (seconds, this machine)",
        )


def table5(
    core_counts: tuple[int, ...] = (2, 3, 6, 9),
    level_counts: tuple[int, ...] = (2, 3, 4, 5),
    t_max_c: float = 65.0,
    period: float = 0.02,
    m_cap: int = 128,
    m_step: int = 1,
    shift_grid: int = 8,
    runner=None,
    run_dir=None,
    resume: bool = False,
    progress=None,
) -> Table5Result:
    """Time the three approaches over the configuration grid."""
    grid = build_grid(
        core_counts=core_counts,
        level_counts=level_counts,
        t_max_values=(t_max_c,),
        approaches=("EXS", "AO", "PCO"),
        period=period,
        m_cap=m_cap,
        m_step=m_step,
        shift_grid=shift_grid,
        runner=runner,
        run_dir=run_dir,
        resume=resume,
        progress=progress,
    )
    return Table5Result(grid=grid)
