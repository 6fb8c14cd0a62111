"""Calibrate the thermal/power constants against the paper's anchors.

The paper reports concrete numbers for its running examples but not the
full parameter set behind them.  This module recovers a consistent
parameterization by nonlinear least squares over the observable anchors:

* the ideal continuous voltages of the 3-core motivation example
  (``[1.2085, 1.1748, 1.2085]`` at ``T_max = 65 C``),
* the feasibility frontier of the 2-level exhaustive search on the same
  chip (EXS picks ``[0.6, 0.6, 1.3]``; two simultaneous high cores are
  infeasible),
* the Table III operating point: at ``t_p = 20 ms`` the high-speed ratios
  ``[0.1733, 0.8211, 0.1733]`` sit exactly on the 65 C constraint,
* the Fig. 3 step-up corner (6 s period, 50/50 duty) peaking at 84.13 C,
* (soft) the Fig. 2 two-core alternating schedule peaking near 53.3 C.

The fitted values are baked into the defaults of
:class:`~repro.thermal.params.SingleLayerParams` and
:class:`~repro.power.model.PowerModel`; rerun :func:`calibrate` to
regenerate them (see ``examples/calibration_fit.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from repro.errors import ConvergenceError
from repro.floorplan.library import floorplan_2x1, floorplan_3x1
from repro.power.model import PowerModel
from repro.schedule.builders import phase_schedule, two_mode_schedule
from repro.thermal.model import ThermalModel
from repro.thermal.params import SingleLayerParams
from repro.thermal.peak import peak_temperature, stepup_peak_temperature
from repro.thermal.rc import build_single_layer_network

__all__ = [
    "AnchorSet",
    "CalibrationResult",
    "calibrate",
    "anchor_residuals",
    "solve_level_anchors",
]


@dataclass(frozen=True)
class AnchorSet:
    """The paper's observable anchor numbers (normalized to 35 C ambient)."""

    #: Ideal continuous voltages on the 1x3 chip at theta_max = 30 K.
    ideal_voltages: tuple[float, float, float] = (1.2085, 1.1748, 1.2085)
    theta_max: float = 30.0
    #: Feasibility margin (K) for the EXS frontier anchors.
    exs_margin: float = 0.5
    #: Table III @ 20 ms: these high-ratios sit exactly on the constraint.
    table3_ratios: tuple[float, float, float] = (0.1733, 0.8211, 0.1733)
    table3_period: float = 0.020
    #: Fig. 3 corner: 6 s period, 50/50 duty, all-aligned -> 84.13 C.
    fig3_peak: float = 49.13
    fig3_period: float = 6.0
    #: Fig. 2: 2-core alternating 100 ms schedule -> 53.3 C (soft).
    fig2_peak: float = 18.3
    fig2_period: float = 0.100
    #: Residual weights, matched positionally to anchor_residuals().
    #: The Fig. 3 / Fig. 2 absolute peaks get low weights: they are not
    #: simultaneously attainable with the other anchors under any passive
    #: symmetric network (see EXPERIMENTS.md), so they act as soft pulls.
    weights: tuple[float, ...] = field(
        default=(20.0, 20.0, 3.0, 3.0, 2.0, 0.5, 0.1)
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration run."""

    params: SingleLayerParams
    power: PowerModel
    residuals: np.ndarray
    cost: float

    def summary(self) -> str:
        """Human-readable report of the fitted constants."""
        p, w = self.params, self.power
        lines = [
            "calibrated single-layer parameters:",
            f"  g_direct   = {p.g_direct:.6f} W/K",
            f"  g_boundary = {p.g_boundary:.6f} W/K per exposed edge",
            f"  g_lateral  = {p.g_lateral:.6f} W/K",
            f"  c_core     = {p.c_core:.6e} J/K",
            "calibrated power model:",
            f"  alpha_lin  = {w.alpha_lin:.6f} W/V",
            f"  gamma      = {w.gamma:.6f} W/V^3",
            f"  beta       = {w.beta:.6f} W/K (fixed)",
            f"weighted cost = {self.cost:.6f}",
        ]
        return "\n".join(lines)


def _models(params: SingleLayerParams, power: PowerModel):
    m3 = ThermalModel(build_single_layer_network(floorplan_3x1(), params), power)
    m2 = ThermalModel(build_single_layer_network(floorplan_2x1(), params), power)
    return m3, m2


#: Sharpness of the smooth hinge on the one-sided feasibility anchors.
_SHARPNESS = 4.0


def _softplus(x: float) -> float:
    """Smooth hinge used for the one-sided feasibility anchors."""
    return float(np.logaddexp(0.0, _SHARPNESS * x) / _SHARPNESS)


def anchor_residuals(
    params: SingleLayerParams,
    power: PowerModel,
    anchors: AnchorSet | None = None,
) -> np.ndarray:
    """Weighted residual vector over all anchors (see module docstring)."""
    if anchors is None:
        anchors = AnchorSet()
    m3, m2 = _models(params, power)
    th = anchors.theta_max
    res = []

    # (0, 1) ideal continuous voltages on the 1x3 chip.
    q = m3.required_injection_for(np.full(3, th))
    v_ideal = np.array([power.psi_inverse(max(qi, 0.0)) for qi in q])
    res.append(v_ideal[0] - anchors.ideal_voltages[0])
    res.append(v_ideal[1] - anchors.ideal_voltages[1])

    # (2) [1.3, 0.6, 1.3] must be infeasible by at least the margin.
    hot = m3.steady_state_cores([1.3, 0.6, 1.3]).max()
    res.append(_softplus((th + anchors.exs_margin) - hot))

    # (3) [1.3, 0.6, 0.6] must be feasible by at least the margin.
    ok = m3.steady_state_cores([1.3, 0.6, 0.6]).max()
    res.append(_softplus(ok - (th - anchors.exs_margin)))

    # (4) Table III @ 20 ms: step-up two-mode schedule exactly on T_max.
    sched = two_mode_schedule(
        0.6, 1.3, np.asarray(anchors.table3_ratios), anchors.table3_period
    )
    peak = stepup_peak_temperature(m3, sched, check=False).value
    res.append(peak - th)

    # (5) Fig. 3 corner: 6 s period, 50/50 aligned -> 84.13 C.
    sched = two_mode_schedule(0.6, 1.3, np.full(3, 0.5), anchors.fig3_period)
    peak = stepup_peak_temperature(m3, sched, check=False).value
    res.append(peak - anchors.fig3_peak)

    # (6, soft) Fig. 2: two-core alternating schedule -> 53.3 C.
    half = anchors.fig2_period / 2.0
    sched = phase_schedule(
        0.6, 1.3, high_length=half, high_start=[0.0, half], period=anchors.fig2_period
    )
    peak = peak_temperature(m2, sched).value
    res.append(peak - anchors.fig2_peak)

    out = np.asarray(res, dtype=float)
    return out * np.asarray(anchors.weights[: out.size])


def solve_level_anchors(
    power: PowerModel,
    anchors: AnchorSet | None = None,
) -> tuple[float, float]:
    """Solve the ideal-voltage anchors for ``(g_direct, g_boundary)`` exactly.

    At the ideal continuous operating point every core temperature is
    pinned at ``theta_max``, so lateral flows vanish and the steady-state
    balance per core reduces to

    ``psi(v_i) = theta_max * (g_direct + n_exposed_i * g_boundary - beta)``.

    On the 1x3 chip the edge cores have 3 exposed tile edges and the middle
    core 2, giving two linear equations in the two unknowns.
    """
    if anchors is None:
        anchors = AnchorSet()
    th = anchors.theta_max
    psi_edge = float(power.psi(anchors.ideal_voltages[0]))
    psi_mid = float(power.psi(anchors.ideal_voltages[1]))
    g_boundary = (psi_edge - psi_mid) / th
    g_direct = psi_mid / th + power.beta - 2.0 * g_boundary
    if g_direct <= 0 or g_boundary < 0:
        raise ConvergenceError(
            f"level anchors give non-physical conductances "
            f"(g_direct={g_direct}, g_boundary={g_boundary}); "
            "check the power model"
        )
    return g_direct, g_boundary


def calibrate(
    power: PowerModel | None = None,
    anchors: AnchorSet | None = None,
    initial_lateral: float = 0.15,
    initial_c_core: float = 1.0e-3,
    max_nfev: int = 200,
) -> CalibrationResult:
    """Fit the single-layer constants to the anchor set.

    Two-stage fit: the ideal-voltage anchors pin ``(g_direct,
    g_boundary)`` in closed form (:func:`solve_level_anchors`); the
    remaining transient/frontier anchors are fit over ``(g_lateral,
    c_core)`` by bounded least squares in log-space.

    Raises
    ------
    ConvergenceError
        If the optimizer fails outright or the level anchors are
        non-physical.
    """
    if power is None:
        power = PowerModel()
    if anchors is None:
        anchors = AnchorSet()
    g_direct, g_boundary = solve_level_anchors(power, anchors)

    def unpack(x: np.ndarray) -> SingleLayerParams:
        gl, c = np.exp(x)
        return SingleLayerParams(
            g_direct=g_direct, g_boundary=g_boundary, g_lateral=gl, c_core=c
        )

    def fun(x: np.ndarray) -> np.ndarray:
        try:
            return anchor_residuals(unpack(x), power, anchors)
        except Exception:
            # Penalize parameter regions where the model cannot be built
            # (e.g. thermal runaway) instead of crashing the optimizer.
            return np.full(len(anchors.weights), 1e3)

    x0 = np.log([initial_lateral, initial_c_core])
    bounds = (np.log([1e-3, 1e-5]), np.log([2.0, 0.1]))
    result = least_squares(fun, x0, bounds=bounds, method="trf", max_nfev=max_nfev)
    if result.status < 0:  # pragma: no cover - defensive
        raise ConvergenceError(f"calibration failed: {result.message}")

    params = unpack(result.x)
    residuals = anchor_residuals(params, power, anchors)
    return CalibrationResult(
        params=params,
        power=power,
        residuals=residuals,
        cost=float(0.5 * np.sum(residuals**2)),
    )
