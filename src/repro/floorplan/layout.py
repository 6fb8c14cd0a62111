"""Core-level floorplans.

The paper simplifies the chip floorplan to the core level: every core is a
square tile on a rectangular grid, and lateral heat conduction happens
between edge-adjacent tiles.  A :class:`Floorplan` captures exactly the
geometry the RC generator (:mod:`repro.thermal.rc`) needs:

* the number of cores and their grid positions,
* the set of adjacent core pairs with the shared edge length,
* per-core area (for vertical conductance / capacitance scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FloorplanError

__all__ = ["CoreGeometry", "Floorplan", "grid_floorplan"]


@dataclass(frozen=True)
class CoreGeometry:
    """Physical geometry of a single (square) core tile.

    Attributes
    ----------
    width_m, height_m:
        Tile dimensions in meters.  The paper uses 4 mm x 4 mm cores.
    """

    width_m: float = 4e-3
    height_m: float = 4e-3

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise FloorplanError(
                f"core dimensions must be positive, got {self.width_m} x {self.height_m}"
            )

    @property
    def area_m2(self) -> float:
        """Tile area in square meters."""
        return self.width_m * self.height_m


@dataclass(frozen=True)
class Floorplan:
    """A core-level floorplan: positions on a grid plus adjacency.

    Attributes
    ----------
    rows, cols:
        Grid dimensions.  Core index ``i`` sits at
        ``(row, col) = divmod(i, cols)`` — row-major order.
    geometry:
        Per-core tile geometry (uniform across the chip).
    occupied:
        Tuple of grid cells that actually hold a core, as flat row-major
        indices into the ``rows x cols`` grid.  Defaults to all cells.
        This supports non-rectangular layouts (e.g. an L-shaped 5-core chip).
    """

    rows: int
    cols: int
    geometry: CoreGeometry = field(default_factory=CoreGeometry)
    occupied: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise FloorplanError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        cells = self.rows * self.cols
        occ = self.occupied if self.occupied else tuple(range(cells))
        if len(set(occ)) != len(occ):
            raise FloorplanError("occupied cells contain duplicates")
        for cell in occ:
            if not (0 <= cell < cells):
                raise FloorplanError(f"occupied cell {cell} outside {self.rows}x{self.cols} grid")
        object.__setattr__(self, "occupied", tuple(sorted(occ)))

    @property
    def n_cores(self) -> int:
        """Number of cores on the chip."""
        return len(self.occupied)

    def position(self, core: int) -> tuple[int, int]:
        """Grid (row, col) of the given core index."""
        self._check_core(core)
        return divmod(self.occupied[core], self.cols)

    def core_at(self, row: int, col: int) -> int | None:
        """Core index occupying grid cell (row, col), or None if empty."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            return None
        cell = row * self.cols + col
        try:
            return self.occupied.index(cell)
        except ValueError:
            return None

    def adjacent_pairs(self) -> list[tuple[int, int, float]]:
        """Edge-adjacent core pairs ``(i, j, shared_edge_m)`` with ``i < j``.

        Horizontal neighbours share a vertical edge of ``height_m``;
        vertical neighbours share a horizontal edge of ``width_m``.
        """
        pairs: list[tuple[int, int, float]] = []
        for i in range(self.n_cores):
            row, col = self.position(i)
            right = self.core_at(row, col + 1)
            if right is not None:
                pairs.append((i, right, self.geometry.height_m))
            below = self.core_at(row + 1, col)
            if below is not None:
                pairs.append((i, below, self.geometry.width_m))
        return [(min(i, j), max(i, j), e) for i, j, e in pairs]

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix over cores."""
        adj = np.zeros((self.n_cores, self.n_cores), dtype=float)
        for i, j, _ in self.adjacent_pairs():
            adj[i, j] = adj[j, i] = 1.0
        return adj

    def neighbor_counts(self) -> np.ndarray:
        """Number of edge-adjacent neighbours per core."""
        return self.adjacency_matrix().sum(axis=1).astype(int)

    def centers_m(self) -> np.ndarray:
        """(n_cores, 2) array of tile center coordinates in meters."""
        out = np.empty((self.n_cores, 2), dtype=float)
        for i in range(self.n_cores):
            row, col = self.position(i)
            out[i, 0] = (col + 0.5) * self.geometry.width_m
            out[i, 1] = (row + 0.5) * self.geometry.height_m
        return out

    def _check_core(self, core: int) -> None:
        if not (0 <= core < self.n_cores):
            raise FloorplanError(f"core index {core} out of range [0, {self.n_cores})")

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"Floorplan {self.rows}x{self.cols} ({self.n_cores} cores, "
            f"{self.geometry.width_m * 1e3:.1f}x{self.geometry.height_m * 1e3:.1f} mm tiles)"
        )


def grid_floorplan(
    rows: int,
    cols: int,
    core_width_m: float = 4e-3,
    core_height_m: float = 4e-3,
) -> Floorplan:
    """Build a fully-occupied ``rows x cols`` grid floorplan."""
    return Floorplan(
        rows=rows,
        cols=cols,
        geometry=CoreGeometry(width_m=core_width_m, height_m=core_height_m),
    )
