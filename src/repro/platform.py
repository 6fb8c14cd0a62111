"""The multi-core platform object the algorithms operate on.

A :class:`Platform` bundles everything Problem 1 is stated over: the
floorplan, the thermal model (network + power), the discrete voltage
ladder, the DVFS transition overhead, and the peak-temperature threshold.
Factory :func:`paper_platform` builds the calibrated configuration used
throughout the paper's evaluation (65 nm, 35 C ambient, 4x4 mm cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.floorplan.layout import Floorplan
from repro.floorplan.library import paper_floorplan
from repro.power.dvfs import TransitionOverhead, VoltageLadder, paper_ladder
from repro.power.model import PowerModel
from repro.thermal.model import ThermalModel
from repro.thermal.params import RCParams, SingleLayerParams
from repro.thermal.rc import build_rc_network, build_single_layer_network
from repro.tolerances import VOLTAGE_SPILL, within_threshold

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platforms import PlatformSpec

__all__ = ["Platform", "paper_platform"]


@dataclass(frozen=True)
class Platform:
    """A temperature-constrained multi-core platform.

    Attributes
    ----------
    model:
        The bound thermal model (network + power + ambient).
    ladder:
        Discrete voltage levels available on every core.
    overhead:
        DVFS transition overhead.
    t_max_c:
        Peak temperature threshold in Celsius.
    spec:
        Provenance: the :class:`~repro.platforms.PlatformSpec` this
        platform was built from, or ``None`` for ad-hoc constructions.
        Excluded from equality — two platforms with the same physics
        compare (and content-hash) equal regardless of how they were
        described.
    """

    model: ThermalModel
    ladder: VoltageLadder
    overhead: TransitionOverhead
    t_max_c: float
    spec: "PlatformSpec | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.t_max_c <= self.model.t_ambient_c:
            raise ConfigurationError(
                f"T_max={self.t_max_c} C must exceed ambient {self.model.t_ambient_c} C"
            )
        pm = self.model.power
        lo, hi = pm.v_min - VOLTAGE_SPILL, pm.v_max + VOLTAGE_SPILL
        if self.ladder.v_min < lo or self.ladder.v_max > hi:
            raise ConfigurationError(
                f"ladder {self.ladder.levels} exceeds the power model's "
                f"supported range [{pm.v_min}, {pm.v_max}]"
            )

    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self.model.n_cores

    @property
    def theta_max(self) -> float:
        """The threshold in normalized units (K above ambient)."""
        return self.model.threshold_theta(self.t_max_c)

    @property
    def floorplan(self) -> Floorplan:
        """The chip floorplan."""
        return self.model.network.floorplan

    def with_t_max(self, t_max_c: float) -> "Platform":
        """Copy with a different temperature threshold (Fig. 7's sweep).

        The provenance spec, if any, is updated to describe the copy, so
        rebuilding from ``copy.spec`` reproduces the copy's physics and
        content-addressed cache keys stay consistent.
        """
        spec = self.spec
        if spec is not None:
            spec = spec.with_overrides(t_max_c=float(t_max_c))
        return replace(self, t_max_c=float(t_max_c), spec=spec)

    def with_ladder(self, ladder: VoltageLadder) -> "Platform":
        """Copy with a different voltage ladder (Fig. 6's sweep).

        As with :meth:`with_t_max`, the provenance spec follows the copy
        (every spec family accepts explicit ``ladder_levels``).
        """
        spec = self.spec
        if spec is not None:
            spec = spec.with_overrides(ladder_levels=tuple(ladder.levels))
        return replace(self, ladder=ladder, spec=spec)

    def feasible_constant(self, voltages) -> bool:
        """Whether a constant-mode assignment keeps ``T_inf`` under ``T_max``."""
        theta = self.model.steady_state_cores(np.asarray(voltages, dtype=float))
        return bool(within_threshold(theta.max(), self.theta_max))


def platform_3d(
    n_layers: int,
    rows: int,
    cols: int,
    n_levels: int = 2,
    t_max_c: float = 55.0,
    t_ambient_c: float = 35.0,
    tau: float = 5e-6,
    g_interlayer: float = 1.0,
    sidewall_fraction: float = 0.05,
    power: PowerModel | None = None,
    ladder: VoltageLadder | None = None,
) -> Platform:
    """Build a 3D-stacked platform (the intro's motivating technology).

    ``n_layers`` identical ``rows x cols`` core layers are stacked; layer 0
    is sink-adjacent and upper layers cool through it (plus a small
    sidewall leak).  All algorithms work unchanged — the 3D structure only
    changes the ``A``/``B`` matrices.
    """
    from repro.floorplan.layout import grid_floorplan
    from repro.floorplan.stack3d import Stack3D
    from repro.thermal.stack3d import build_3d_network

    stack = Stack3D(base=grid_floorplan(rows, cols), n_layers=n_layers)
    if power is None:
        power = PowerModel()
    network = build_3d_network(
        stack, g_interlayer=g_interlayer, sidewall_fraction=sidewall_fraction
    )
    model = ThermalModel(network, power, t_ambient_c=t_ambient_c)
    if ladder is None:
        ladder = paper_ladder(n_levels)
    return Platform(
        model=model,
        ladder=ladder,
        overhead=TransitionOverhead(tau=tau),
        t_max_c=t_max_c,
    )


def paper_platform(
    n_cores: int,
    n_levels: int = 2,
    t_max_c: float = 55.0,
    t_ambient_c: float = 35.0,
    tau: float = 5e-6,
    topology: str = "single",
    power: PowerModel | None = None,
    rc_params: RCParams | SingleLayerParams | None = None,
    ladder: VoltageLadder | None = None,
) -> Platform:
    """Build the calibrated platform used in the paper's evaluation.

    Parameters
    ----------
    n_cores:
        2, 3, 6 or 9 (the evaluated configurations).
    n_levels:
        Table IV ladder size (2-5); ignored when ``ladder`` is given.
    t_max_c, t_ambient_c:
        Temperature threshold and ambient (paper: 55-65 C over 35 C).
    tau:
        DVFS transition overhead in seconds (paper: 5 us).
    topology:
        ``"single"`` — the calibrated per-core network reproducing the
        paper's numbers (default); ``"stacked"`` — the three-layer
        HotSpot-like network for ablation studies.
    power, rc_params, ladder:
        Optional overrides of the calibrated defaults.
    """
    floorplan = paper_floorplan(n_cores)
    if power is None:
        power = PowerModel()
    if topology == "single":
        network = build_single_layer_network(floorplan, rc_params)  # type: ignore[arg-type]
    elif topology == "stacked":
        network = build_rc_network(floorplan, rc_params)  # type: ignore[arg-type]
    else:
        raise ConfigurationError(
            f"topology must be 'single' or 'stacked', got {topology!r}"
        )
    model = ThermalModel(network, power, t_ambient_c=t_ambient_c)
    if ladder is None:
        ladder = paper_ladder(n_levels)
    return Platform(
        model=model,
        ladder=ladder,
        overhead=TransitionOverhead(tau=tau),
        t_max_c=t_max_c,
    )
