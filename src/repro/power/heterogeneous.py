"""Heterogeneous per-core power models.

The paper's reference [26] ("Heterogeneity exploration for peak temperature
reduction") motivates chips whose cores differ in power efficiency — e.g.
big.LITTLE pairings or process-variation binning.  This module provides a
drop-in :class:`PowerModel` variant with *per-core* ``alpha_lin`` and
``gamma`` arrays.  The leakage slope ``beta`` may also vary per core; the
thermal model folds it node-wise, so ``A`` stays constant exactly as
before.

All of the paper's machinery works unchanged on top: ``psi`` stays convex
per core, which is all Theorems 3/4 need, and the continuous relaxation /
AO pipeline only interacts with power through ``psi`` / ``psi_inverse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PowerModelError
from repro.power.model import PowerModel
from repro.tolerances import ROOT_IMAG_ATOL, VOLTAGE_SPILL

__all__ = ["HeterogeneousPowerModel", "big_little_power_model"]


@dataclass(frozen=True)
class HeterogeneousPowerModel:
    """Per-core power coefficients (same interface as :class:`PowerModel`).

    Attributes
    ----------
    alpha_lin, gamma, beta:
        ``(n_cores,)`` arrays of per-core coefficients.
    v_min, v_max:
        Shared supply-voltage range.
    """

    alpha_lin: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    v_min: float = 0.6
    v_max: float = 1.3

    def __post_init__(self) -> None:
        alpha = np.atleast_1d(np.asarray(self.alpha_lin, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        n = max(alpha.size, gamma.size, beta.size)
        alpha, gamma, beta = (
            np.broadcast_to(alpha, n).astype(float),
            np.broadcast_to(gamma, n).astype(float),
            np.broadcast_to(beta, n).astype(float),
        )
        if np.any(alpha < 0):
            raise PowerModelError(f"alpha_lin must be >= 0, got {alpha}")
        if np.any(gamma <= 0):
            raise PowerModelError(f"gamma must be > 0, got {gamma}")
        if np.any(beta < 0):
            raise PowerModelError(f"beta must be >= 0, got {beta}")
        if not (0 < self.v_min <= self.v_max):
            raise PowerModelError(
                f"need 0 < v_min <= v_max, got {self.v_min}, {self.v_max}"
            )
        object.__setattr__(self, "alpha_lin", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)

    @property
    def n_cores(self) -> int:
        """Number of cores the coefficients describe."""
        return self.alpha_lin.shape[0]

    # ------------------------------------------------------------------
    # PowerModel-compatible interface
    # ------------------------------------------------------------------

    def psi(self, v) -> np.ndarray:
        """Per-core heat injection ``alpha_i*v_i + gamma_i*v_i^3`` in W.

        Accepts a ``(n_cores,)`` vector or a ``(batch, n_cores)`` matrix.
        """
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        return self.alpha_lin * arr + self.gamma * arr**3

    def dynamic_power(self, v) -> np.ndarray:
        """Per-core dynamic component ``gamma_i * v_i^3``."""
        arr = np.asarray(v, dtype=float)
        self._check_voltages(arr)
        return self.gamma * arr**3

    def total_power(self, v, theta) -> np.ndarray:
        """Total per-core power ``psi_i(v_i) + beta_i * theta_i``."""
        return self.psi(v) + self.beta * np.asarray(theta, dtype=float)

    def psi_inverse(self, power: float, core: int = 0) -> float:
        """Solve ``psi_core(v) = power`` for ``v >= 0`` on one core."""
        if power < 0:
            raise PowerModelError(f"power must be >= 0, got {power}")
        if power == 0:
            return 0.0
        roots = np.roots(
            [float(self.gamma[core]), 0.0, float(self.alpha_lin[core]), -float(power)]
        )
        real = roots[np.abs(roots.imag) < ROOT_IMAG_ATOL].real
        positive = real[real >= 0]
        if positive.size == 0:  # pragma: no cover - impossible for valid coeffs
            raise PowerModelError(f"no root for psi(v) = {power} on core {core}")
        return float(positive[0])

    def psi_inverse_array(self, powers) -> np.ndarray:
        """Per-core ``psi_inverse`` over a budget vector (core-wise cubics)."""
        return np.array(
            [
                self.psi_inverse(max(float(q), 0.0), core=i)
                for i, q in enumerate(powers)
            ]
        )

    def psi_inverse_for(self, core: int, power: float) -> float:
        """``psi_inverse`` on a specific core's cubic."""
        return self.psi_inverse(power, core=core)

    def core_model(self, core: int) -> PowerModel:
        """A homogeneous :class:`PowerModel` view of one core."""
        return PowerModel(
            alpha_lin=float(self.alpha_lin[core]),
            gamma=float(self.gamma[core]),
            beta=float(self.beta[core]),
            v_min=self.v_min,
            v_max=self.v_max,
        )

    def _check_voltages(self, arr: np.ndarray) -> None:
        active = arr[arr != 0]
        if active.size == 0:
            return
        lo, hi = float(active.min()), float(active.max())
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
) -> HeterogeneousPowerModel:
    """A big.LITTLE-style heterogeneous model.

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
    return HeterogeneousPowerModel(
        alpha_lin=alpha, gamma=gamma, beta=beta,
        v_min=base.v_min, v_max=base.v_max,
    )
