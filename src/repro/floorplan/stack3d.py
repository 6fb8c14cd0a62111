"""3D-stacked chip descriptions.

The paper's introduction motivates the thermal problem with 3D ICs: layers
of cores stacked vertically trade shorter wires for a longer heat-removal
path and higher power density.  A :class:`Stack3D` is a vertical pile of
identical core-grid layers; layer 0 sits next to the heat sink, upper
layers must push their heat down through the layers below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FloorplanError
from repro.floorplan.layout import Floorplan

__all__ = ["Stack3D"]


@dataclass(frozen=True)
class Stack3D:
    """A vertical stack of identical core layers.

    Attributes
    ----------
    base:
        The per-layer floorplan (identical across layers; cores are
        vertically aligned).
    n_layers:
        Number of stacked layers (>= 1).  Layer 0 is sink-adjacent.
    """

    base: Floorplan
    n_layers: int

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise FloorplanError(f"n_layers must be >= 1, got {self.n_layers}")

    @property
    def n_cores(self) -> int:
        """Total core count across all layers."""
        return self.base.n_cores * self.n_layers

    def core_index(self, layer: int, core: int) -> int:
        """Flat index of a core addressed by (layer, within-layer index)."""
        if not (0 <= layer < self.n_layers):
            raise FloorplanError(f"layer {layer} out of range [0, {self.n_layers})")
        if not (0 <= core < self.base.n_cores):
            raise FloorplanError(
                f"core {core} out of range [0, {self.base.n_cores})"
            )
        return layer * self.base.n_cores + core

    def layer_of(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`core_index`: flat index -> (layer, core)."""
        if not (0 <= index < self.n_cores):
            raise FloorplanError(f"index {index} out of range [0, {self.n_cores})")
        return divmod(index, self.base.n_cores)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"Stack3D {self.n_layers} x [{self.base.describe()}] "
            f"({self.n_cores} cores total)"
        )
