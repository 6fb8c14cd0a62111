"""The paper's per-core power model (eq. (1)).

``P_i(t) = alpha(v_i) + beta * T_i(t) + gamma(v_i) * v_i^3``

We work in temperatures normalized to ambient (``theta = T - T_amb``) and
split the power into

* a temperature-independent injection ``psi(v) = alpha_lin * v + gamma * v^3``
  (``alpha(v) = alpha_lin * v`` models the voltage dependence of leakage;
  the constant ambient-leakage component is absorbed into ``alpha_lin`` at
  the operating point), and
* the leakage feedback ``beta * theta`` which is folded into the thermal
  system matrix (see :mod:`repro.thermal.model`), keeping ``A`` constant
  across running modes exactly as eq. (2) requires.

``psi`` is convex on ``v >= 0`` with ``psi(0) = 0`` (an idle, power-gated
core injects nothing) — convexity is the property Theorem 3's proof needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.tolerances import ROOT_IMAG_ATOL, VOLTAGE_SPILL

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Per-core power coefficients, uniform across cores.

    Attributes
    ----------
    alpha_lin:
        Leakage voltage-slope in W/V: ``alpha(v) = alpha_lin * v``.
    gamma:
        Dynamic-power coefficient in W/V^3: ``P_dyn = gamma * v^3``.
    beta:
        Leakage temperature-slope in W/K.  Folded into the thermal ``A``
        matrix; must stay below the network's heat-removal ability
        (checked at :class:`repro.thermal.model.ThermalModel` construction).
    v_min, v_max:
        Supported supply-voltage range in volts (0 means power-gated idle).
    """

    alpha_lin: float = 0.10
    gamma: float = 5.00
    beta: float = 0.10
    v_min: float = 0.6
    v_max: float = 1.3

    def __post_init__(self) -> None:
        if self.alpha_lin < 0:
            raise PowerModelError(f"alpha_lin must be >= 0, got {self.alpha_lin}")
        if self.gamma <= 0:
            raise PowerModelError(f"gamma must be > 0, got {self.gamma}")
        if self.beta < 0:
            raise PowerModelError(f"beta must be >= 0, got {self.beta}")
        if not (0 < self.v_min <= self.v_max):
            raise PowerModelError(
                f"need 0 < v_min <= v_max, got v_min={self.v_min}, v_max={self.v_max}"
            )

    def psi(self, v) -> np.ndarray | float:
        """Temperature-independent heat injection ``alpha(v) + gamma v^3`` in W.

        Accepts scalars or arrays; ``v = 0`` (idle) injects zero.
        Values outside ``[v_min, v_max]`` (other than 0) are rejected.
        """
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        out = self.alpha_lin * arr + self.gamma * arr**3
        return out if arr.ndim else float(out)

    def dynamic_power(self, v) -> np.ndarray | float:
        """Dynamic component ``gamma * v^3`` in W."""
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        out = self.gamma * arr**3
        return out if arr.ndim else float(out)

    def leakage_power(self, v, theta) -> np.ndarray | float:
        """Leakage component ``alpha(v) + beta * theta`` in W.

        ``theta`` is the core temperature above ambient in K.
        """
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        theta_arr = np.asarray(theta, dtype=float)
        out = self.alpha_lin * arr + self.beta * theta_arr
        if arr.ndim or theta_arr.ndim:
            return out
        return float(out)

    def total_power(self, v, theta) -> np.ndarray | float:
        """Total power ``psi(v) + beta * theta`` in W (eq. (1), normalized)."""
        out = np.asarray(self.psi(v)) + self.beta * np.asarray(theta, dtype=float)
        return out if out.ndim else float(out)

    def psi_inverse(self, power: float) -> float:
        """Solve ``psi(v) = power`` for ``v >= 0`` (real cubic root).

        Used by the continuous relaxation: given the heat injection a core
        may sustain, find the voltage that produces it.  Returns the
        unclamped root; callers clamp to ``[v_min, v_max]``.
        """
        if power < 0:
            raise PowerModelError(f"power must be >= 0, got {power}")
        if power == 0:
            return 0.0
        # psi is strictly increasing on v >= 0, so the root is unique.
        roots = np.roots([self.gamma, 0.0, self.alpha_lin, -float(power)])
        real = roots[np.abs(roots.imag) < ROOT_IMAG_ATOL].real
        positive = real[real >= 0]
        if positive.size == 0:  # pragma: no cover - cannot happen for valid coeffs
            raise PowerModelError(f"no non-negative root for psi(v) = {power}")
        return float(positive[0])

    def psi_inverse_array(self, powers) -> np.ndarray:
        """Per-core ``psi_inverse`` over a budget vector.

        Homogeneous cores share one cubic; heterogeneous models dispatch
        per core.
        """
        return np.array([self.psi_inverse(max(float(q), 0.0)) for q in powers])

    def psi_inverse_for(self, core: int, power: float) -> float:
        """``psi_inverse`` for a specific core (homogeneous: core-independent).

        Exists so solvers can stay agnostic between this model and
        :class:`repro.power.heterogeneous.HeterogeneousPowerModel`.
        """
        del core
        return self.psi_inverse(power)

    def _check_voltages(self, arr: np.ndarray) -> None:
        active = arr[arr != 0]
        if active.size == 0:
            return
        lo, hi = float(active.min()), float(active.max())
        # Allow tiny numerical spill from continuous solvers.
        if lo < self.v_min - VOLTAGE_SPILL or hi > self.v_max + VOLTAGE_SPILL:
            raise PowerModelError(
                f"voltage outside supported range [{self.v_min}, {self.v_max}]: "
                f"min={lo}, max={hi}"
            )
