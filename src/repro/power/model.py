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

``alpha_lin``, ``gamma`` and ``beta`` are each a scalar (uniform cores)
or a per-core array (heterogeneous cores, e.g. the big.LITTLE pairings
of the paper's reference [26]); the thermal model folds a per-core
``beta`` node-wise, so ``A`` stays constant either way.

``psi`` is convex on ``v >= 0`` with ``psi(0) = 0`` on every core (an
idle, power-gated core injects nothing) — convexity is the property
Theorem 3's proof needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.tolerances import ROOT_IMAG_ATOL, VOLTAGE_SPILL

__all__ = ["PowerModel", "big_little_power_model"]


@dataclass(frozen=True)
class PowerModel:
    """Power coefficients of eq. (1), uniform or per core.

    ``alpha_lin``, ``gamma`` and ``beta`` are scalars or ``(n_cores,)``
    arrays.  When any of them is an array, all three are broadcast to
    float arrays of one length and the methods work core-wise; an
    all-scalar model keeps its values as given, so it returns floats for
    scalar voltages and stays hashable.

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
        Supported supply-voltage range in volts, shared by all cores
        (0 means power-gated idle).
    """

    alpha_lin: float | np.ndarray = 0.10
    gamma: float | np.ndarray = 5.00
    beta: float | np.ndarray = 0.10
    v_min: float = 0.6
    v_max: float = 1.3

    def __post_init__(self) -> None:
        names = ("alpha_lin", "gamma", "beta")
        if any(np.ndim(getattr(self, name)) for name in names):
            arrays = [
                np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
                for name in names
            ]
            n = max(a.size for a in arrays)
            for name, a in zip(names, arrays):
                object.__setattr__(self, name, np.broadcast_to(a, n).astype(float))
        if np.any(self.alpha_lin < 0):
            raise PowerModelError(f"alpha_lin must be >= 0, got {self.alpha_lin}")
        if np.any(self.gamma <= 0):
            raise PowerModelError(f"gamma must be > 0, got {self.gamma}")
        if np.any(self.beta < 0):
            raise PowerModelError(f"beta must be >= 0, got {self.beta}")
        if not (0 < self.v_min <= self.v_max):
            raise PowerModelError(
                f"need 0 < v_min <= v_max, got v_min={self.v_min}, v_max={self.v_max}"
            )

    def psi(self, v) -> np.ndarray | float:
        """Temperature-independent heat injection ``alpha(v) + gamma v^3`` in W.

        Accepts scalars or arrays; per-core coefficients broadcast over
        the last axis (a ``(n_cores,)`` vector or a ``(batch, n_cores)``
        matrix).  ``v = 0`` (idle) injects zero.  Values outside
        ``[v_min, v_max]`` (other than 0) are rejected.
        """
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        out = self.alpha_lin * arr + self.gamma * arr**3
        return out if out.ndim else float(out)

    def dynamic_power(self, v) -> np.ndarray | float:
        """Dynamic component ``gamma * v^3`` in W."""
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        out = self.gamma * arr**3
        return out if out.ndim else float(out)

    def leakage_power(self, v, theta) -> np.ndarray | float:
        """Leakage component ``alpha(v) + beta * theta`` in W.

        ``theta`` is the core temperature above ambient in K.
        """
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        out = self.alpha_lin * arr + self.beta * np.asarray(theta, dtype=float)
        return out if out.ndim else float(out)

    def total_power(self, v, theta) -> np.ndarray | float:
        """Total power ``psi(v) + beta * theta`` in W (eq. (1), normalized)."""
        out = np.asarray(self.psi(v)) + self.beta * np.asarray(theta, dtype=float)
        return out if out.ndim else float(out)

    def psi_inverse(self, power: float, core: int = 0) -> float:
        """Solve ``psi(v) = power`` for ``v >= 0`` on one core's cubic.

        Used by the continuous relaxation: given the heat injection a core
        may sustain, find the voltage that produces it.  ``core`` selects
        the coefficients of a per-core model; uniform models ignore it.
        Returns the unclamped root; callers clamp to ``[v_min, v_max]``.
        """
        if power < 0:
            raise PowerModelError(f"power must be >= 0, got {power}")
        if power == 0:
            return 0.0
        gamma, alpha_lin = self.gamma, self.alpha_lin
        if np.ndim(gamma):
            gamma, alpha_lin = gamma[core], alpha_lin[core]
        # psi is strictly increasing on v >= 0, so the root is unique.
        roots = np.roots([gamma, 0.0, alpha_lin, -float(power)])
        real = roots[np.abs(roots.imag) < ROOT_IMAG_ATOL].real
        positive = real[real >= 0]
        if positive.size == 0:  # pragma: no cover - cannot happen for valid coeffs
            raise PowerModelError(f"no non-negative root for psi(v) = {power}")
        return float(positive[0])

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


def big_little_power_model(
    big_cores,
    n_cores: int,
    base: PowerModel | None = None,
    little_gamma_scale: float = 0.45,
    little_alpha_scale: float = 0.55,
) -> PowerModel:
    """A big.LITTLE-style per-core model.

    Parameters
    ----------
    big_cores:
        Indices of the "big" cores (keep the base coefficients); the rest
        become efficiency cores with scaled-down dynamic/leakage power.
    n_cores:
        Total core count.
    base:
        Coefficients of the big cores (default: the calibrated 65 nm set).
    little_gamma_scale, little_alpha_scale:
        Power scaling of the little cores (they also do proportionally
        less work per volt in reality; in the normalized f = v convention
        that is modeled by assigning them less utilization).
    """
    if base is None:
        base = PowerModel()
    big = np.zeros(n_cores, dtype=bool)
    big[np.asarray(big_cores, dtype=int)] = True
    gamma = np.where(big, base.gamma, base.gamma * little_gamma_scale)
    alpha = np.where(big, base.alpha_lin, base.alpha_lin * little_alpha_scale)
    beta = np.full(n_cores, base.beta)
    return PowerModel(
        alpha_lin=alpha, gamma=gamma, beta=beta,
        v_min=base.v_min, v_max=base.v_max,
    )
