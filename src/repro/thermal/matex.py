"""MatEx-style analytic transient solution within one state interval.

Pagani et al. [28] ("MatEx", DATE'15) observed that for the compact model
the transient inside an interval of constant power has the closed form

``theta_i(t) = Tinf_i + sum_k R_ik * exp(lambda_k t)``

with real negative ``lambda_k`` — so temperatures (and their extrema) can
be computed analytically instead of by numerical integration.  This module
implements that method on top of the cached eigendecomposition:

* :func:`interval_solution` builds the modal coefficients once per interval,
* :meth:`IntervalSolution.peak` finds each node's maximum over the interval
  via a vectorized dense grid plus optional Brent refinement of the
  bracketed stationary points.

This is the engine behind peak identification for *arbitrary* schedules
(the expensive case the step-up concept avoids; see
:mod:`repro.thermal.peak`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.errors import ThermalModelError
from repro.thermal.model import ThermalModel
from repro.util.validation import as_1d_float

__all__ = ["IntervalSolution", "interval_solution", "interval_peak"]

#: Default number of dense samples per interval when hunting extrema.
DEFAULT_GRID = 64


@dataclass(frozen=True)
class IntervalSolution:
    """Closed-form temperatures over one constant-voltage interval.

    ``theta_i(t) = t_inf[i] + sum_k modal[i, k] * exp(lambdas[k] * t)``
    for ``t`` in ``[0, length]``.
    """

    t_inf: np.ndarray
    modal: np.ndarray
    lambdas: np.ndarray
    length: float

    def temperatures(self, times) -> np.ndarray:
        """Evaluate all node temperatures at the given times.

        Returns shape ``(len(times), n_nodes)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < -1e-12) or np.any(times > self.length + 1e-12):
            raise ThermalModelError(
                f"times outside interval [0, {self.length}]"
            )
        exp_matrix = np.exp(np.outer(times, self.lambdas))
        return self.t_inf[None, :] + exp_matrix @ self.modal.T

    def temperature_at(self, t: float) -> np.ndarray:
        """All node temperatures at a single time."""
        return self.temperatures([t])[0]

    def end_temperature(self) -> np.ndarray:
        """Temperatures at the interval end (the next interval's start)."""
        return self.temperature_at(self.length)

    def derivative_at(self, t: float, node: int) -> float:
        """``d theta_node / dt`` at time ``t``."""
        return float(np.sum(self.modal[node] * self.lambdas * np.exp(self.lambdas * t)))

    def peak(
        self,
        nodes: np.ndarray | None = None,
        grid: int = DEFAULT_GRID,
        refine: bool = True,
    ) -> tuple[float, int, float]:
        """Maximum temperature over the interval among ``nodes``.

        Parameters
        ----------
        nodes:
            Node indices to consider (default: all).
        grid:
            Number of dense samples used to bracket extrema.
        refine:
            When True, stationary points bracketed by a derivative sign
            change are polished with Brent's method.

        Returns
        -------
        (value, node, time)
            The peak temperature, which node attains it, and when.
        """
        if self.length <= 0:
            raise ThermalModelError(f"interval length must be > 0, got {self.length}")
        if nodes is None:
            nodes = np.arange(self.t_inf.shape[0])
        nodes = np.asarray(nodes, dtype=int)

        times = np.linspace(0.0, self.length, max(int(grid), 2))
        temps = self.temperatures(times)[:, nodes]  # (grid, len(nodes))

        flat = int(np.argmax(temps))
        ti, ni = np.unravel_index(flat, temps.shape)
        best_val = float(temps[ti, ni])
        best_node = int(nodes[ni])
        best_time = float(times[ti])

        if refine:
            # Refine every node near its own best grid point: a sign change of
            # the derivative between neighbouring samples brackets an extremum.
            for local, node in enumerate(nodes):
                col = temps[:, local]
                j = int(np.argmax(col))
                lo = times[max(j - 1, 0)]
                hi = times[min(j + 1, len(times) - 1)]
                if hi <= lo:
                    continue
                d_lo = self.derivative_at(lo, node)
                d_hi = self.derivative_at(hi, node)
                if d_lo > 0 and d_hi < 0:
                    t_star = brentq(lambda t: self.derivative_at(t, node), lo, hi)
                    val = float(self.temperature_at(t_star)[node])
                    if val > best_val:
                        best_val, best_node, best_time = val, int(node), float(t_star)
        return best_val, best_node, best_time


def interval_solution(
    model: ThermalModel,
    theta0: np.ndarray,
    voltages,
    length: float,
    t_inf: np.ndarray | None = None,
) -> IntervalSolution:
    """Build the closed-form solution for one state interval.

    Parameters
    ----------
    model:
        The thermal model (supplies the eigendecomposition).
    theta0:
        Node temperatures at the interval start (K above ambient).
    voltages:
        Per-core supply voltages held constant over the interval.
    length:
        Interval duration in seconds.
    t_inf:
        The node steady state of ``voltages``, when the caller already
        has it (skips the model's lookup).
    """
    if length < 0:
        raise ThermalModelError(f"interval length must be >= 0, got {length}")
    theta0 = as_1d_float(theta0, "theta0", model.n_nodes)
    if t_inf is None:
        t_inf = model.steady_state(voltages)
    modal = model.eigen.modal_coefficients(theta0 - t_inf)
    return IntervalSolution(
        t_inf=t_inf,
        modal=modal,
        lambdas=model.eigen.eigenvalues,
        length=float(length),
    )


def interval_peak(
    model: ThermalModel,
    theta0: np.ndarray,
    voltages,
    length: float,
    cores_only: bool = True,
    grid: int = DEFAULT_GRID,
    refine: bool = True,
) -> tuple[float, int, float]:
    """Peak temperature within one interval (convenience wrapper).

    Returns ``(value, node, time)``; with ``cores_only`` the search is
    restricted to core nodes (the constraint in Problem 1 is on cores).
    """
    sol = interval_solution(model, theta0, voltages, length)
    nodes = model.network.core_nodes if cores_only else None
    return sol.peak(nodes=nodes, grid=grid, refine=refine)
