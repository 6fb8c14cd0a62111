"""Sub-core grid refinement: how much does core-level lumping cost?

The paper simplifies the floorplan to one thermal node per core.  This
module quantifies that simplification: it subdivides every core tile into
``k x k`` sub-blocks, distributes the core's conductances and capacitance
over them (preserving the lumped totals), spreads the core's power
uniformly, and exposes the result as a normal
:class:`~repro.thermal.rc.RCNetwork` whose *core nodes* are the sub-blocks
of each core.

:func:`refined_peak_error` runs the same schedule through the coarse and
refined models and reports the peak discrepancy — the fidelity check
behind the paper's modeling choice (see
``benchmarks/bench_ablation_grid.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ThermalModelError
from repro.floorplan.layout import Floorplan
from repro.power.model import PowerModel
from repro.schedule.periodic import PeriodicSchedule
from repro.thermal.model import ThermalModel
from repro.thermal.params import SingleLayerParams
from repro.thermal.rc import RCNetwork

__all__ = ["RefinedModel", "build_refined_model", "refined_peak_error"]


@dataclass(frozen=True)
class RefinedModel:
    """A sub-block refinement of the single-layer core model.

    Attributes
    ----------
    model:
        The refined :class:`ThermalModel` (``k*k`` nodes per core).
    k:
        Subdivision factor per axis.
    n_cores:
        Number of *cores* (each owning ``k*k`` nodes).
    """

    model: ThermalModel
    k: int
    n_cores: int

    def blocks_of(self, core: int) -> np.ndarray:
        """Node indices of one core's sub-blocks."""
        kk = self.k * self.k
        return np.arange(core * kk, (core + 1) * kk)

    def expand_voltages(self, voltages) -> np.ndarray:
        """Per-core voltages -> per-block voltages (power spread uniformly).

        Each block runs at the core's voltage; the block power model's
        coefficients are pre-scaled by ``1/k^2`` so the summed injection
        matches the lumped core.
        """
        v = np.atleast_1d(np.asarray(voltages, dtype=float))
        return np.repeat(v, self.k * self.k)

    def expand_schedule(self, schedule: PeriodicSchedule) -> PeriodicSchedule:
        """Per-core schedule -> per-block schedule."""
        return PeriodicSchedule(
            schedule.lengths,
            np.repeat(schedule.voltage_matrix, self.k * self.k, axis=1),
        )

    def core_peak(self, theta_blocks: np.ndarray) -> np.ndarray:
        """Per-core maxima over each core's blocks."""
        kk = self.k * self.k
        return theta_blocks.reshape(self.n_cores, kk).max(axis=1)


def build_refined_model(
    floorplan: Floorplan,
    k: int = 2,
    params: SingleLayerParams | None = None,
    power: PowerModel | None = None,
    t_ambient_c: float = 35.0,
) -> RefinedModel:
    """Subdivide every core into ``k x k`` thermal blocks.

    Conductance accounting (totals preserved vs the lumped model):

    * ambient: each block gets ``1/k^2`` of its core's direct+boundary
      conductance;
    * core-to-core lateral: split evenly over the ``k`` facing block pairs
      of the shared edge;
    * intra-core block-to-block: plate conduction scaled so the
      end-to-end series conductance across the tile matches the silicon's
      lateral conductance at ``k`` times finer pitch (``g_lateral * k``
      per facing pair), which is the standard grid refinement rule;
    * capacitance: ``c_core / k^2`` per block.

    The block power model scales ``alpha_lin`` and ``gamma`` by ``1/k^2``
    so a core's total injection is unchanged.
    """
    if k < 1:
        raise ThermalModelError(f"k must be >= 1, got {k}")
    if params is None:
        params = SingleLayerParams()
    if power is None:
        power = PowerModel()

    n_cores = floorplan.n_cores
    kk = k * k
    n_nodes = n_cores * kk
    g = np.zeros((n_nodes, n_nodes))

    def node(core: int, r: int, c: int) -> int:
        return core * kk + r * k + c

    def link(a: int, b: int, cond: float) -> None:
        if cond == 0.0:
            return
        g[a, b] -= cond
        g[b, a] -= cond
        g[a, a] += cond
        g[b, b] += cond

    neighbor_counts = floorplan.neighbor_counts()
    g_intra = params.g_lateral * k  # finer pitch -> proportionally stiffer
    for core in range(n_cores):
        exposed = 4 - int(neighbor_counts[core])
        g_amb_block = (params.g_direct + params.g_boundary * exposed) / kk
        for r in range(k):
            for c in range(k):
                a = node(core, r, c)
                g[a, a] += g_amb_block
                if c + 1 < k:
                    link(a, node(core, r, c + 1), g_intra)
                if r + 1 < k:
                    link(a, node(core, r + 1, c), g_intra)

    # Core-to-core lateral links: distribute over the k facing block pairs.
    per_pair = params.g_lateral / k
    for i, j, _edge in floorplan.adjacent_pairs():
        ri, ci = floorplan.position(i)
        rj, cj = floorplan.position(j)
        if ri == rj:  # horizontal neighbours: i's right column to j's left
            left, right = (i, j) if ci < cj else (j, i)
            for r in range(k):
                link(node(left, r, k - 1), node(right, r, 0), per_pair)
        else:  # vertical neighbours: i's bottom row to j's top row
            top, bottom = (i, j) if ri < rj else (j, i)
            for c in range(k):
                link(node(top, k - 1, c), node(bottom, 0, c), per_pair)

    capacitance = np.full(n_nodes, params.c_core / kk)
    network = RCNetwork(
        floorplan=floorplan,
        conductance=g,
        capacitance=capacitance,
        core_nodes=np.arange(n_nodes),
    )
    block_power = PowerModel(
        alpha_lin=power.alpha_lin / kk,
        gamma=power.gamma / kk,
        beta=power.beta / kk,
        v_min=power.v_min,
        v_max=power.v_max,
    )
    model = ThermalModel(network, block_power, t_ambient_c=t_ambient_c)
    return RefinedModel(model=model, k=k, n_cores=n_cores)


def refined_peak_error(
    coarse: ThermalModel,
    refined: RefinedModel,
    schedule: PeriodicSchedule,
) -> tuple[float, float, float]:
    """Stable peaks of the same schedule under both models.

    Returns ``(coarse_peak, refined_peak, abs_error)``; the refined peak
    is the maximum over all sub-blocks.
    """
    from repro.thermal.peak import peak_temperature

    coarse_peak = peak_temperature(coarse, schedule).value
    refined_peak = peak_temperature(
        refined.model, refined.expand_schedule(schedule)
    ).value
    return coarse_peak, refined_peak, abs(refined_peak - coarse_peak)
